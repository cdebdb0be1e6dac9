package memhist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"numaperf/internal/clockx"
	"numaperf/internal/exec"
	"numaperf/internal/probenet"
	"numaperf/internal/workloads"
)

// startServer launches a ProbeServer on a loopback listener and tears
// it down with the test.
func startServer(t *testing.T, srv *ProbeServer) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

// dialFrames opens a raw protocol connection and consumes the HELLO.
func dialFrames(t *testing.T, addr string) (net.Conn, *probenet.Hello) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	ft, payload, err := probenet.ReadFrame(conn)
	if err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	if ft != probenet.FrameHello {
		t.Fatalf("first frame = %s, want HELLO", ft)
	}
	var hello probenet.Hello
	if err := probenet.Decode(ft, payload, &hello); err != nil {
		t.Fatal(err)
	}
	return conn, &hello
}

// tinyWorkload is a fast load loop so protocol tests spend their time
// in the transport, not the simulated measurement.
type tinyWorkload struct{}

func (tinyWorkload) Name() string { return "test-tiny" }
func (tinyWorkload) Body() func(*exec.Thread) {
	return func(t *exec.Thread) {
		buf := t.Alloc(1 << 16)
		for i := uint64(0); i < 2000; i++ {
			t.Load(buf.Addr(i * 64 % (1 << 16)))
		}
	}
}

var registerTiny = sync.OnceFunc(func() {
	workloads.Register("test-tiny", func() workloads.Workload { return tinyWorkload{} })
})

func quickRequest() ProbeRequest {
	registerTiny()
	return ProbeRequest{
		Workload: "test-tiny",
		Machine:  "2s",
		Exact:    true,
		Bounds:   []uint64{4, 64, 256, 512},
	}
}

func TestProbeHelloCapabilities(t *testing.T) {
	addr := startServer(t, &ProbeServer{})
	_, hello := dialFrames(t, addr)
	if hello.Version != probenet.Version {
		t.Errorf("hello version = %d", hello.Version)
	}
	found := false
	for _, w := range hello.Workloads {
		if w == "triad" {
			found = true
		}
	}
	if !found {
		t.Errorf("hello workloads %v missing triad", hello.Workloads)
	}
	if len(hello.Machines) == 0 {
		t.Error("hello advertises no machines")
	}
	if hello.MaxFrame != probenet.MaxFrame {
		t.Errorf("hello max frame = %d", hello.MaxFrame)
	}
}

func TestMultipleRequestsPerConnection(t *testing.T) {
	addr := startServer(t, &ProbeServer{})
	conn, _ := dialFrames(t, addr)
	for _, id := range []uint64{101, 102, 103} {
		body, _ := json.Marshal(quickRequest())
		if err := probenet.WriteFrame(conn, probenet.FrameRequest, &probenet.Request{ID: id, Body: body}); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := probenet.ReadFrame(conn)
		if err != nil {
			t.Fatalf("request %d: %v", id, err)
		}
		if ft != probenet.FrameResponse {
			t.Fatalf("request %d: got %s", id, ft)
		}
		var resp probenet.Response
		if err := probenet.Decode(ft, payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != id {
			t.Errorf("response id %d, want %d", resp.ID, id)
		}
		var h Histogram
		if err := json.Unmarshal(resp.Body, &h); err != nil {
			t.Fatal(err)
		}
		if h.Total() == 0 {
			t.Errorf("request %d: empty histogram", id)
		}
	}
}

func TestServerSideValidation(t *testing.T) {
	addr := startServer(t, &ProbeServer{})
	conn, _ := dialFrames(t, addr)
	// The raw socket bypasses client-side validation, so the server
	// must reject on its own.
	cases := []struct {
		name string
		req  ProbeRequest
		code probenet.ErrorCode
	}{
		{"unsorted bounds", ProbeRequest{Workload: "triad", Bounds: []uint64{64, 4, 256}}, probenet.CodeBadRequest},
		{"negative reps", ProbeRequest{Workload: "triad", Reps: -1}, probenet.CodeBadRequest},
		{"thread cap", ProbeRequest{Workload: "triad", Threads: MaxRequestThreads + 1}, probenet.CodeBadRequest},
		{"no workload", ProbeRequest{}, probenet.CodeBadRequest},
		{"unknown workload", ProbeRequest{Workload: "nope", Exact: true}, probenet.CodeUnknownWorkload},
		{"unknown machine", ProbeRequest{Workload: "triad", Machine: "nope", Exact: true}, probenet.CodeUnknownMachine},
	}
	for i, c := range cases {
		id := uint64(200 + i)
		body, _ := json.Marshal(c.req)
		if err := probenet.WriteFrame(conn, probenet.FrameRequest, &probenet.Request{ID: id, Body: body}); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := probenet.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ft != probenet.FrameError {
			t.Fatalf("%s: got %s, want ERROR", c.name, ft)
		}
		var em probenet.ErrorMsg
		if err := probenet.Decode(ft, payload, &em); err != nil {
			t.Fatal(err)
		}
		if em.Code != c.code {
			t.Errorf("%s: code %s, want %s", c.name, em.Code, c.code)
		}
		if em.ID != id {
			t.Errorf("%s: error id %d, want %d", c.name, em.ID, id)
		}
	}
	// The connection survives rejected requests: a good request still works.
	body, _ := json.Marshal(quickRequest())
	if err := probenet.WriteFrame(conn, probenet.FrameRequest, &probenet.Request{ID: 999, Body: body}); err != nil {
		t.Fatal(err)
	}
	ft, _, err := probenet.ReadFrame(conn)
	if err != nil || ft != probenet.FrameResponse {
		t.Fatalf("after rejections: frame %s err %v", ft, err)
	}
}

func TestClientSideValidation(t *testing.T) {
	dials := 0
	_, err := FetchRemoteWith("127.0.0.1:1", ProbeRequest{Workload: "triad", Bounds: []uint64{9, 9}}, FetchOptions{
		Timeout: time.Second,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			dials++
			return net.DialTimeout(network, addr, timeout)
		},
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v, want ErrBadRequest", err)
	}
	if dials != 0 {
		t.Errorf("client dialled %d times for an invalid request", dials)
	}
}

func TestUnexpectedFrameKeepsConnection(t *testing.T) {
	addr := startServer(t, &ProbeServer{})
	conn, _ := dialFrames(t, addr)
	// A client must not send HELLO; the server answers bad-request but
	// keeps the connection usable.
	if err := probenet.WriteFrame(conn, probenet.FrameHello, &probenet.Hello{Version: probenet.Version}); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := probenet.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ft != probenet.FrameError {
		t.Fatalf("got %s, want ERROR", ft)
	}
	var em probenet.ErrorMsg
	_ = probenet.Decode(ft, payload, &em)
	if em.Code != probenet.CodeBadRequest {
		t.Errorf("code = %s", em.Code)
	}
	body, _ := json.Marshal(quickRequest())
	if err := probenet.WriteFrame(conn, probenet.FrameRequest, &probenet.Request{ID: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := probenet.ReadFrame(conn); err != nil || ft != probenet.FrameResponse {
		t.Fatalf("after unexpected frame: frame %s err %v", ft, err)
	}
}

func TestOverloadedRejection(t *testing.T) {
	addr := startServer(t, &ProbeServer{MaxConns: 1})
	// Hold the only slot with an idle connection.
	dialFrames(t, addr)

	// Overload is backpressure, not a verdict on the request: unlike
	// every other ERROR frame it IS retried — the probe may free up —
	// but the slot never frees here, so all attempts burn and the final
	// error is still the typed overloaded rejection.
	dials := 0
	_, err := FetchRemoteWith(addr, quickRequest(), FetchOptions{
		Timeout: 10 * time.Second,
		Retries: 3,
		Sleep:   clockx.NoSleep,
		Dial: func(network, a string, timeout time.Duration) (net.Conn, error) {
			dials++
			return net.DialTimeout(network, a, timeout)
		},
	})
	var re *probenet.RemoteError
	if !errors.As(err, &re) || re.Code != probenet.CodeOverloaded {
		t.Fatalf("err = %v, want overloaded RemoteError", err)
	}
	if dials != 4 {
		t.Errorf("client dialled %d times, want 4: backpressure retries every attempt", dials)
	}
}

func TestPingStatsExposeFailures(t *testing.T) {
	srv := &ProbeServer{}
	addr := startServer(t, srv)
	if _, err := FetchRemote(addr, quickRequest(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// Provoke one ERROR frame (server-side unknown workload via raw conn).
	conn, _ := dialFrames(t, addr)
	body, _ := json.Marshal(ProbeRequest{Workload: "nope"})
	if err := probenet.WriteFrame(conn, probenet.FrameRequest, &probenet.Request{ID: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := probenet.ReadFrame(conn); err != nil || ft != probenet.FrameError {
		t.Fatalf("frame %s err %v", ft, err)
	}

	stats, err := PingProbe(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served < 1 {
		t.Errorf("served = %d", stats.Served)
	}
	if stats.ErrorsSent < 1 {
		t.Errorf("errors sent = %d", stats.ErrorsSent)
	}
	if stats.Accepted < 3 {
		t.Errorf("accepted = %d", stats.Accepted)
	}
	if got := srv.Stats(); got.Accepted != stats.Accepted {
		t.Errorf("Stats() accepted %d, PING says %d", got.Accepted, stats.Accepted)
	}
}

// blockingWorkload parks the measurement until released, making drain
// windows deterministic.
type blockingWorkload struct {
	name     string
	started  chan struct{}
	release  chan struct{}
	onceMark sync.Once
}

func (w *blockingWorkload) Name() string { return w.name }
func (w *blockingWorkload) Body() func(*exec.Thread) {
	return func(*exec.Thread) {
		w.onceMark.Do(func() { close(w.started) })
		<-w.release
	}
}

func registerBlocking(t *testing.T, name string) *blockingWorkload {
	t.Helper()
	w := &blockingWorkload{name: name, started: make(chan struct{}), release: make(chan struct{})}
	workloads.Register(name, func() workloads.Workload { return w })
	return w
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	srv := &ProbeServer{MaxConns: 4}
	addr := startServer(t, srv)
	w := registerBlocking(t, "test-drain-block")

	type result struct {
		h   *Histogram
		err error
	}
	fetched := make(chan result, 1)
	go func() {
		h, err := FetchRemoteWith(addr, ProbeRequest{
			Workload: w.name, Machine: "2s", Exact: true, Bounds: []uint64{4, 64},
		}, FetchOptions{Timeout: 30 * time.Second})
		fetched <- result{h, err}
	}()
	<-w.started

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()

	// While draining, new connections must be told "shutting-down".
	deadline := time.Now().Add(5 * time.Second)
	sawFarewell := false
	for !sawFarewell && time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break // listener already closed: also an acceptable refusal
		}
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		ft, payload, err := probenet.ReadFrame(conn)
		if err == nil && ft == probenet.FrameError {
			var em probenet.ErrorMsg
			if probenet.Decode(ft, payload, &em) == nil && em.Code == probenet.CodeShuttingDown {
				sawFarewell = true
			}
		}
		conn.Close()
		if !sawFarewell {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !sawFarewell {
		t.Error("no shutting-down farewell observed during drain")
	}

	close(w.release)
	res := <-fetched
	if res.err != nil {
		t.Fatalf("in-flight fetch failed during drain: %v", res.err)
	}
	if res.h == nil || res.h.Origin != OriginProbe {
		t.Errorf("in-flight histogram = %+v", res.h)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
	// After the drain, the listener is gone.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
}

func TestShutdownForceClosesOnExpiredContext(t *testing.T) {
	srv := &ProbeServer{}
	addr := startServer(t, srv)
	w := registerBlocking(t, "test-force-block")
	defer close(w.release) // unstick the leaked measurement at test end

	fetched := make(chan error, 1)
	go func() {
		_, err := FetchRemoteWith(addr, ProbeRequest{
			Workload: w.name, Machine: "2s", Exact: true, Bounds: []uint64{4, 64},
		}, FetchOptions{Timeout: 30 * time.Second})
		fetched <- err
	}()
	<-w.started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
	select {
	case err := <-fetched:
		if err == nil {
			t.Error("fetch succeeded though its connection was force-closed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client hung after force-close")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := &ProbeServer{MaxConns: 8}
	addr := startServer(t, srv)

	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			req := quickRequest()
			req.Seed = int64(i)
			h, err := FetchRemoteWith(addr, req, FetchOptions{
				Timeout: 60 * time.Second,
				Retries: 4,
				Backoff: probenet.NewBackoff(5*time.Millisecond, 50*time.Millisecond, int64(i)),
			})
			if err == nil && h.Total() == 0 {
				err = fmt.Errorf("client %d: empty histogram", i)
			}
			if err == nil && h.Origin != OriginProbe {
				err = fmt.Errorf("client %d: origin %q", i, h.Origin)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if stats := srv.Stats(); stats.Served < clients {
		t.Errorf("served = %d, want >= %d", stats.Served, clients)
	}
}

func TestMeasurementPanicBecomesErrorFrame(t *testing.T) {
	// The exec engine converts workload-body panics into errors, so
	// panic in the registry factory: it fires inside HandleRequest,
	// past the engine's own recovery.
	name := "test-panic"
	workloads.Register(name, func() workloads.Workload { panic("synthetic registry bug") })
	srv := &ProbeServer{}
	addr := startServer(t, srv)
	_, err := FetchRemoteWith(addr, ProbeRequest{
		Workload: name, Machine: "2s", Exact: true, Bounds: []uint64{4, 64},
	}, FetchOptions{Timeout: 30 * time.Second})
	var re *probenet.RemoteError
	if err == nil || !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Code != probenet.CodeInternal {
		t.Errorf("code = %s, want internal", re.Code)
	}
	if srv.Stats().Panics == 0 {
		t.Error("panic not counted")
	}
	// The probe survives: the next request succeeds.
	if _, err := FetchRemote(addr, quickRequest(), 30*time.Second); err != nil {
		t.Errorf("probe dead after panic: %v", err)
	}
}

// TestResponsePayloadMatchesMarshal: for every pooledSequence
// histogram, the hand-framed envelope equals json.Marshal of the
// Response at IDs 0, 1 and 2^64−1, and the RESPONSE frame ServeRequest
// writes is the frame of that marshalled envelope.
func TestResponsePayloadMatchesMarshal(t *testing.T) {
	srv := &ProbeServer{}
	for i, req := range pooledSequence() {
		h, err := HandleRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint64{0, 1, math.MaxUint64} {
			want, err := json.Marshal(&probenet.Response{ID: id, Body: body})
			if err != nil {
				t.Fatal(err)
			}
			if got := probenet.ResponsePayload(id, body); !bytes.Equal(got, want) {
				t.Errorf("request %d, id %d: ResponsePayload\n got %s\nwant %s", i, id, got, want)
			}
		}
		reqBody, _ := json.Marshal(req)
		var got, want bytes.Buffer
		if err := srv.ServeRequest(probenet.Request{ID: uint64(i), Body: reqBody}, func(ft probenet.FrameType, v any) error {
			return probenet.WriteFrame(&got, ft, v)
		}); err != nil {
			t.Fatal(err)
		}
		if err := probenet.WriteFrame(&want, probenet.FrameResponse, &probenet.Response{ID: uint64(i), Body: body}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("request %d: ServeRequest wrote\n%q\nwant\n%q", i, got.Bytes(), want.Bytes())
		}
	}
}
