package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"numaperf/internal/exec"
	"numaperf/internal/memhist"
	"numaperf/internal/probenet"
	"numaperf/internal/workloads"
)

type pkgTinyWorkload struct{}

func (pkgTinyWorkload) Name() string { return "fleet-pkg-tiny" }
func (pkgTinyWorkload) Body() func(*exec.Thread) {
	return func(t *exec.Thread) {
		buf := t.Alloc(1 << 14)
		for i := uint64(0); i < 256; i++ {
			t.Load(buf.Addr(i * 64 % (1 << 14)))
		}
	}
}

var registerPkgTiny = sync.OnceFunc(func() {
	workloads.Register("fleet-pkg-tiny", func() workloads.Workload { return pkgTinyWorkload{} })
})

func startTestCoordinator(t *testing.T, opts Options) (*Coordinator, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(opts)
	go c.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c, ln.Addr().String()
}

func TestRunCampaignRejectsBadSpec(t *testing.T) {
	c := NewCoordinator(Options{})
	if _, err := c.RunCampaign(context.Background(), Spec{}); err == nil {
		t.Fatal("workload-free spec must be rejected")
	}
	if _, err := c.RunCampaign(context.Background(), Spec{Workload: "x", Cells: 5000}); err == nil {
		t.Fatal("oversized cell count must be rejected")
	}
}

// dialHello performs a raw registration exchange and returns the reply.
// The connection stays open until the test ends: once it closes, the
// coordinator's reader sees EOF and marks the probe dead, so a test
// asserting on the registered state must read it first.
func dialHello(t *testing.T, addr string, hello *probenet.Hello) (probenet.FrameType, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := probenet.WriteFrame(conn, probenet.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := probenet.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return ft, payload
}

func TestRegistrationRefusesMissingIdentity(t *testing.T) {
	_, addr := startTestCoordinator(t, Options{})
	ft, payload := dialHello(t, addr, &probenet.Hello{Version: probenet.Version})
	if ft != probenet.FrameError {
		t.Fatalf("identity-free hello answered with %s", ft)
	}
	var em probenet.ErrorMsg
	if err := probenet.Decode(ft, payload, &em); err != nil {
		t.Fatal(err)
	}
	if em.Code != probenet.CodeBadRequest {
		t.Errorf("refusal code %q, want %q", em.Code, probenet.CodeBadRequest)
	}
}

func TestRegistrationRefusesVersionMismatch(t *testing.T) {
	_, addr := startTestCoordinator(t, Options{})
	ft, payload := dialHello(t, addr, &probenet.Hello{Version: 99, ProbeID: "p1"})
	if ft != probenet.FrameError {
		t.Fatalf("mismatched hello answered with %s", ft)
	}
	var em probenet.ErrorMsg
	if err := probenet.Decode(ft, payload, &em); err != nil {
		t.Fatal(err)
	}
	if em.Code != probenet.CodeBadRequest {
		t.Errorf("refusal code %q", em.Code)
	}
}

func TestRegistrationAcceptsIdentity(t *testing.T) {
	c, addr := startTestCoordinator(t, Options{})
	ft, payload := dialHello(t, addr, &probenet.Hello{Version: probenet.Version, ProbeID: "p1", Instance: 1})
	if ft != probenet.FrameHello {
		t.Fatalf("registration answered with %s", ft)
	}
	var ack probenet.Hello
	if err := probenet.Decode(ft, payload, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Version != probenet.Version || ack.MaxFrame != probenet.MaxFrame {
		t.Errorf("ack = %+v", ack)
	}
	if st, ok := c.Tracker().State("p1"); !ok || st != Healthy {
		t.Errorf("tracker state after registration: %v, %v", st, ok)
	}
}

func TestFleetCampaignEndToEnd(t *testing.T) {
	registerPkgTiny()
	c, addr := startTestCoordinator(t, Options{
		SuspectAfter: 150 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		Tick:         5 * time.Millisecond,
	})
	a := &ProbeAgent{
		ID:                "p1",
		Coordinator:       addr,
		HeartbeatInterval: 10 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := c.WaitForProbes(wctx, 1); err != nil {
		t.Fatal(err)
	}

	spec := Spec{
		Workload:    "fleet-pkg-tiny",
		Machine:     "2s",
		Bounds:      []uint64{4, 64, 256},
		Cells:       3,
		RepsPerCell: 2,
		Seed:        7,
	}
	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()
	rep, err := c.RunCampaign(rctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Histogram == nil {
		t.Fatalf("campaign incomplete: %+v", rep)
	}
	// The gathered histogram carries the fleet origin and the merged
	// fidelity report of all cells.
	if rep.Histogram.Origin != "fleet" {
		t.Errorf("origin %q", rep.Histogram.Origin)
	}
	if rep.Histogram.Quality == nil || rep.Histogram.Quality.TotalCycles == 0 {
		t.Errorf("merged fidelity missing: %+v", rep.Histogram.Quality)
	}
	if rep.Histogram.Confidence == nil {
		t.Error("merged confidence missing")
	}
	if got := rep.ProbeCells["p1"]; got != 3 {
		t.Errorf("probe served %d cells, want 3", got)
	}
	// Heartbeats kept the probe healthy throughout. The first is due a
	// heartbeat interval after registration, and a short campaign can
	// end sooner, so wait for it (bounded) before asserting.
	if st, _ := c.Tracker().State("p1"); st != Healthy {
		t.Errorf("probe state after campaign: %s", st)
	}
	for deadline := time.Now().Add(5 * time.Second); a.Stats().Heartbeats == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if a.Stats().Heartbeats == 0 {
		t.Error("agent sent no heartbeats")
	}
	sum := rep.Summary()
	if sum == "" {
		t.Error("empty summary")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("agent returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("agent did not stop on context cancel")
	}
}

// TestMalformedHistogramStrikesAndRedispatches: a probe whose answers
// fail the histogram shape gate, which the link reader applies, is
// struck for each one, and every cell it spoiled completes on the
// healthy probe, so the gathered report equals the fault-free merge.
func TestMalformedHistogramStrikesAndRedispatches(t *testing.T) {
	spec := testFleetSpec(4)
	var hs []*memhist.Histogram
	for i := 0; i < spec.Cells; i++ {
		h, err := memhist.HandleRequest(spec.CellRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	ref, err := memhist.MergeHistograms(hs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref)

	// A probe is quarantined at its third strike, so no cell fails more
	// than three times.
	c, addr := startTestCoordinator(t, Options{
		SuspectAfter: 150 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		MaxRetries:   3,
		Tick:         5 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   5 * time.Millisecond,
	})
	malformed := func(memhist.ProbeRequest) (*memhist.Histogram, error) {
		return &memhist.Histogram{Bounds: []uint64{4, 4}, Counts: []float64{1, 1}, Uncertain: []bool{false, false}}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	for _, a := range []*ProbeAgent{
		{ID: "bad", Coordinator: addr, HeartbeatInterval: 10 * time.Millisecond, Handle: malformed},
		{ID: "good", Coordinator: addr, HeartbeatInterval: 10 * time.Millisecond},
	} {
		agents.Add(1)
		go func() {
			defer agents.Done()
			_ = a.Run(ctx) // the quarantined probe stops on its own
		}()
	}
	t.Cleanup(func() {
		cancel()
		agents.Wait()
	})
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := c.WaitForProbes(wctx, 2); err != nil {
		t.Fatal(err)
	}

	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()
	rep, err := c.RunCampaign(rctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(rep.Histogram); !rep.Complete() || string(got) != string(want) {
		t.Fatalf("gathered report differs from the fault-free merge\ngot:  %s\nwant: %s", got, want)
	}
	if rep.ProbeCells["bad"] != 0 || rep.Redispatched == 0 {
		t.Errorf("bad probe served %d cells, %d re-dispatched; want 0 and at least 1", rep.ProbeCells["bad"], rep.Redispatched)
	}
	for _, p := range c.Tracker().Snapshot() {
		if p.ID == "bad" && (p.Strikes == 0 || p.StrikeReasons[0] != "returned a malformed histogram") {
			t.Errorf("bad probe ledger: %d strikes %q", p.Strikes, p.StrikeReasons)
		}
	}
}

func TestWaitForProbesContextExpiry(t *testing.T) {
	c := NewCoordinator(Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.WaitForProbes(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitForProbes on empty fleet = %v", err)
	}
}

func TestAgentRequiresIdentityAndAddress(t *testing.T) {
	if err := (&ProbeAgent{Coordinator: "x"}).Run(context.Background()); err == nil {
		t.Error("agent without ID must refuse to run")
	}
	if err := (&ProbeAgent{ID: "p"}).Run(context.Background()); err == nil {
		t.Error("agent without coordinator must refuse to run")
	}
}

func TestShutdownRefusesRegistrations(t *testing.T) {
	c, addr := startTestCoordinator(t, Options{})
	_ = addr
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := c.Serve(ln); err == nil {
		t.Fatal("Serve after Shutdown must refuse")
	}
}
