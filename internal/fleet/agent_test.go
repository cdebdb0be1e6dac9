package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"numaperf/internal/memhist"
	"numaperf/internal/probenet"
)

// delayClock records the reconnect delays an agent sleeps and returns
// at once; the heartbeat loop's hour-long sleeps block until the test
// ends.
type delayClock struct {
	mu     sync.Mutex
	delays []time.Duration
	done   chan struct{}
}

func (c *delayClock) Now() time.Time { return time.Now() }

func (c *delayClock) Sleep(d time.Duration) {
	if d >= time.Hour {
		<-c.done
		return
	}
	c.mu.Lock()
	c.delays = append(c.delays, d)
	c.mu.Unlock()
}

// TestAgentBackoffRestartsAfterRegistration: a coordinator that
// accepts every registration and then drops the link makes the agent
// redial again and again. Each outage follows a registered connection,
// so every redial waits a first-retry delay (at most BackoffBase)
// instead of one that doubles over the agent's lifetime.
func TestAgentBackoffRestartsAfterRegistration(t *testing.T) {
	const lives = 6
	clock := &delayClock{done: make(chan struct{})}
	t.Cleanup(func() { close(clock.done) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var dials int
	a := &ProbeAgent{
		ID:                "probe-a",
		Coordinator:       "coordinator:1",
		HeartbeatInterval: 2 * time.Hour,
		BackoffBase:       time.Millisecond,
		BackoffMax:        time.Second,
		Clock:             clock,
		Dial: func(string, string, time.Duration) (net.Conn, error) {
			dials++
			if dials > lives {
				cancel()
			}
			probe, coord := net.Pipe()
			go func() {
				defer coord.Close()
				if _, _, err := probenet.ReadFrame(coord); err != nil {
					return
				}
				_ = probenet.WriteFrame(coord, probenet.FrameHello, &probenet.Hello{Version: probenet.Version})
			}()
			return probe, nil
		},
	}
	if err := a.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	clock.mu.Lock()
	defer clock.mu.Unlock()
	if len(clock.delays) < lives {
		t.Fatalf("agent slept %d reconnect delays, want at least %d", len(clock.delays), lives)
	}
	for i, d := range clock.delays {
		if d > a.BackoffBase {
			t.Errorf("redial %d after a registered connection waited %v, want at most the %v base", i+1, d, a.BackoffBase)
		}
	}
}

// TestAgentAnswersLikeProbeServer sends the same envelopes to a
// registered agent and to a classic ProbeServer: each answer must
// match in frame type and payload bytes (error code and message, or
// histogram body), because both answer through ServeRequest.
func TestAgentAnswersLikeProbeServer(t *testing.T) {
	registerPkgTiny()
	const panicSeed = 666
	handle := func(req memhist.ProbeRequest) (*memhist.Histogram, error) {
		if req.Seed == panicSeed {
			panic("scripted measurement panic")
		}
		return memhist.HandleRequest(req)
	}
	body := func(req memhist.ProbeRequest) json.RawMessage {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		body json.RawMessage
		want probenet.ErrorCode // "" = a RESPONSE
	}{
		{"valid", body(memhist.ProbeRequest{Workload: "fleet-pkg-tiny", Machine: "uma", Seed: 7}), ""},
		{"malformed body", json.RawMessage(`{"workload": 7}`), probenet.CodeBadRequest},
		{"bad bounds", body(memhist.ProbeRequest{Workload: "fleet-pkg-tiny", Bounds: []uint64{64, 8}}), probenet.CodeBadRequest},
		{"unknown machine", body(memhist.ProbeRequest{Workload: "fleet-pkg-tiny", Machine: "no-such-machine"}), probenet.CodeUnknownMachine},
		{"panicking handle", body(memhist.ProbeRequest{Workload: "fleet-pkg-tiny", Seed: panicSeed}), probenet.CodeInternal},
	}

	// The classic probe: the client reads its HELLO, then asks.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &memhist.ProbeServer{Handle: handle}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	probe, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	_ = probe.SetDeadline(time.Now().Add(10 * time.Second))
	if ft, _, err := probenet.ReadFrame(probe); err != nil || ft != probenet.FrameHello {
		t.Fatalf("probe handshake: %v, %v", ft, err)
	}

	// The agent: it dials a stand-in coordinator, which acknowledges its
	// registration and then asks on the same link.
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &ProbeAgent{ID: "p1", Coordinator: cln.Addr().String(), Handle: handle}
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	agent, err := cln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	_ = agent.SetDeadline(time.Now().Add(10 * time.Second))
	if ft, _, err := probenet.ReadFrame(agent); err != nil || ft != probenet.FrameHello {
		t.Fatalf("agent registration: %v, %v", ft, err)
	}
	if err := probenet.WriteFrame(agent, probenet.FrameHello, &probenet.Hello{Version: probenet.Version}); err != nil {
		t.Fatal(err)
	}

	// ask sends one envelope and returns the answer, skipping heartbeats.
	ask := func(conn net.Conn, env *probenet.Request) (probenet.FrameType, []byte) {
		t.Helper()
		if err := probenet.WriteFrame(conn, probenet.FrameRequest, env); err != nil {
			t.Fatal(err)
		}
		for {
			ft, payload, err := probenet.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if ft != probenet.FrameHeartbeat {
				return ft, payload
			}
		}
	}
	for i, tc := range cases {
		env := &probenet.Request{ID: uint64(i + 1), Body: tc.body}
		pt, pp := ask(probe, env)
		at, ap := ask(agent, env)
		if at != pt || !bytes.Equal(ap, pp) {
			t.Errorf("%s: agent answers %s %s\nprobe answers %s %s", tc.name, at, ap, pt, pp)
			continue
		}
		if tc.want == "" {
			if pt != probenet.FrameResponse {
				t.Errorf("%s: answered %s %s, want a RESPONSE", tc.name, pt, pp)
			}
			continue
		}
		var em probenet.ErrorMsg
		if pt != probenet.FrameError || probenet.Decode(pt, pp, &em) != nil || em.Code != tc.want {
			t.Errorf("%s: answered %s %s, want an ERROR %q", tc.name, pt, pp, tc.want)
		}
	}
	if got, want := a.Stats(), srv.Stats(); got.Served != want.Served || got.Failed != want.ErrorsSent {
		t.Errorf("agent counted %d served, %d failed; probe %d served, %d errors", got.Served, got.Failed, want.Served, want.ErrorsSent)
	}
}
