package probenet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"numaperf/internal/clockx"
	"numaperf/internal/memhist"
	"numaperf/internal/probenet"
)

// Wire-compatibility suite for the retry-after hint and the other
// fields of the retired overload layer. ERROR frames keep an omitempty
// RetryAfterMillis field so a front end still honours the hint of an
// older probe, but a probe of this version sends no hint at all: its
// connection-cap and drain rejections are byte-identical to the frames
// a probe sent before hints existed. An older probe's brownout marker
// and overload counters still decode. The structs below spell out the
// pre-hint payload shape literally instead of importing it, so the
// test keeps guarding the wire format even as the Go type evolves.

// oldErrorMsg is the ERROR payload shape before the retry-after hint.
type oldErrorMsg struct {
	ID      uint64             `json:"id"`
	Code    probenet.ErrorCode `json:"code"`
	Message string             `json:"message,omitempty"`
}

func frameBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := probenet.WriteFrame(&buf, probenet.FrameError, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLegacyErrorFramesByteIdentical(t *testing.T) {
	// Every code, with and without a message: a new peer that sets no
	// hint emits exactly the bytes an old peer would have.
	for _, code := range []probenet.ErrorCode{
		probenet.CodeBadRequest, probenet.CodeUnknownWorkload, probenet.CodeUnknownMachine,
		probenet.CodeOverloaded, probenet.CodeShuttingDown, probenet.CodeQuarantined,
		probenet.CodeInternal,
	} {
		for _, msg := range []string{"", "probe at connection limit 4"} {
			oldFrame := frameBytes(t, oldErrorMsg{ID: 7, Code: code, Message: msg})
			newFrame := frameBytes(t, probenet.ErrorMsg{ID: 7, Code: code, Message: msg})
			if !bytes.Equal(oldFrame, newFrame) {
				t.Errorf("code %s: hintless ERROR frame differs from the pre-overload bytes\nold: %q\nnew: %q",
					code, oldFrame, newFrame)
			}
		}
	}
}

func TestZeroRetryAfterOmittedFromWire(t *testing.T) {
	body, err := json.Marshal(probenet.ErrorMsg{ID: 1, Code: probenet.CodeOverloaded})
	if err != nil {
		t.Fatal(err)
	}
	if jsonHasField(t, body, "retry_after_ms") {
		t.Error("zero retry_after_ms must be omitted from the wire")
	}
}

func TestOldClientDecodesHintedError(t *testing.T) {
	body, err := json.Marshal(probenet.ErrorMsg{
		ID: 3, Code: probenet.CodeOverloaded, Message: "shedding", RetryAfterMillis: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var old oldErrorMsg
	if err := probenet.Decode(probenet.FrameError, body, &old); err != nil {
		t.Fatalf("pre-overload client rejected hinted ERROR: %v", err)
	}
	if old.ID != 3 || old.Code != probenet.CodeOverloaded || old.Message != "shedding" {
		t.Errorf("pre-overload client mis-decoded the payload: %+v", old)
	}
}

func TestNewClientDecodesBareError(t *testing.T) {
	body, err := json.Marshal(oldErrorMsg{ID: 9, Code: probenet.CodeShuttingDown, Message: "draining"})
	if err != nil {
		t.Fatal(err)
	}
	var em probenet.ErrorMsg
	if err := probenet.Decode(probenet.FrameError, body, &em); err != nil {
		t.Fatalf("new client rejected pre-overload ERROR: %v", err)
	}
	if em.RetryAfterMillis != 0 {
		t.Errorf("absent retry_after_ms must decode as 0, got %d", em.RetryAfterMillis)
	}
	if em.ID != 9 || em.Code != probenet.CodeShuttingDown {
		t.Errorf("new client mis-decoded the payload: %+v", em)
	}
}

func TestBackpressureClassification(t *testing.T) {
	over := &probenet.RemoteError{Code: probenet.CodeOverloaded, RetryAfterMillis: 25}
	if !probenet.IsBackpressure(over) {
		t.Error("overloaded must classify as backpressure")
	}
	if got := probenet.RetryAfter(over); got.Milliseconds() != 25 {
		t.Errorf("RetryAfter = %v, want 25ms", got)
	}
	if probenet.IsTransient(over) {
		t.Error("backpressure is not transient: the request was understood")
	}
	bad := &probenet.RemoteError{Code: probenet.CodeBadRequest, RetryAfterMillis: 25}
	if probenet.IsBackpressure(bad) {
		t.Error("bad-request must not classify as backpressure")
	}
	if probenet.RetryAfter(bad) != 0 {
		t.Error("non-backpressure errors carry no retry-after")
	}
	neg := &probenet.RemoteError{Code: probenet.CodeOverloaded, RetryAfterMillis: -5}
	if probenet.RetryAfter(neg) != 0 {
		t.Error("negative hints must clamp to zero")
	}
	if probenet.IsBackpressure(nil) || probenet.RetryAfter(nil) != 0 {
		t.Error("nil error must classify as nothing")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func startProbe(t *testing.T, srv *memhist.ProbeServer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// dial connects to addr under a deadline for every later read.
func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// served dials addr and reads the HELLO, so the probe has registered
// the connection by the time it returns.
func served(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn := dial(t, addr)
	if ft, _, err := probenet.ReadFrame(conn); err != nil || ft != probenet.FrameHello {
		t.Fatalf("frame %s err %v, want HELLO", ft, err)
	}
	return conn
}

// readError reads the next frame, which must be an ERROR, and returns
// its payload.
func readError(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	ft, payload, err := probenet.ReadFrame(conn)
	if err != nil || ft != probenet.FrameError {
		t.Fatalf("frame %s err %v, want ERROR", ft, err)
	}
	return payload
}

// TestCapRejectionIsPreHintFrame: a probe at its connection cap answers
// with exactly the ERROR payload of a probe that predates the hint.
func TestCapRejectionIsPreHintFrame(t *testing.T) {
	addr := startProbe(t, &memhist.ProbeServer{MaxConns: 1})
	served(t, addr) // holds the only slot
	got := readError(t, dial(t, addr))
	want := mustMarshal(t, oldErrorMsg{Code: probenet.CodeOverloaded, Message: "probe at connection limit 1"})
	if !bytes.Equal(got, want) {
		t.Errorf("cap rejection payload\n got %s\nwant %s", got, want)
	}
}

// TestDrainFarewellIsPreHintFrame: an idle connection to a draining
// probe receives exactly the pre-hint shutting-down payload.
func TestDrainFarewellIsPreHintFrame(t *testing.T) {
	srv := &memhist.ProbeServer{}
	conn := served(t, startProbe(t, srv))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	got := readError(t, conn)
	want := mustMarshal(t, oldErrorMsg{Code: probenet.CodeShuttingDown, Message: "probe is draining"})
	if !bytes.Equal(got, want) {
		t.Errorf("drain farewell payload\n got %s\nwant %s", got, want)
	}
}

// hintedErrorMsg is the ERROR payload shape of a probe that sent
// retry-after hints.
type hintedErrorMsg struct {
	ID               uint64             `json:"id"`
	Code             probenet.ErrorCode `json:"code"`
	Message          string             `json:"message,omitempty"`
	RetryAfterMillis int64              `json:"retry_after_ms,omitempty"`
}

// scriptOldProbe serves the listener's connections in turn: each gets
// a capability-less HELLO, and serve answers the client's first frame.
func scriptOldProbe(t *testing.T, serve ...func(ft probenet.FrameType, payload []byte) (probenet.FrameType, any)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for _, answer := range serve {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if probenet.WriteFrame(conn, probenet.FrameHello, &probenet.Hello{Version: probenet.Version}) == nil {
				if ft, payload, err := probenet.ReadFrame(conn); err == nil {
					at, v := answer(ft, payload)
					_ = probenet.WriteFrame(conn, at, v)
				}
			}
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

func requestID(t *testing.T, payload []byte) uint64 {
	var env probenet.Request
	if err := probenet.Decode(probenet.FrameRequest, payload, &env); err != nil {
		t.Error(err)
	}
	return env.ID
}

// tinyHistogram is a well-formed RESPONSE body of an older probe.
const tinyHistogram = `{"Bounds":[4,64],"Counts":[1,2],"Uncertain":[false,false],"Exact":true,"Source":"mlc-local"}`

// TestFetchHonoursOldProbeHint: an older probe sheds the first request
// with a 300 ms hint; the client sleeps at least that long, retries and
// gets the histogram.
func TestFetchHonoursOldProbeHint(t *testing.T) {
	addr := scriptOldProbe(t,
		func(_ probenet.FrameType, payload []byte) (probenet.FrameType, any) {
			return probenet.FrameError, hintedErrorMsg{
				ID: requestID(t, payload), Code: probenet.CodeOverloaded, Message: "probe shedding load", RetryAfterMillis: 300,
			}
		},
		func(_ probenet.FrameType, payload []byte) (probenet.FrameType, any) {
			return probenet.FrameResponse, &probenet.Response{ID: requestID(t, payload), Body: json.RawMessage(tinyHistogram)}
		},
	)
	var slept clockx.Recorder
	h, err := memhist.FetchRemoteWith(addr, memhist.ProbeRequest{Workload: "mlc-local"}, memhist.FetchOptions{
		Timeout: 10 * time.Second, Retries: 1, Sleep: slept.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Origin != memhist.OriginProbe || h.Counts[1] != 2 {
		t.Errorf("histogram = %+v", h)
	}
	if d := slept.Durations(); len(d) != 1 || d[0] < 300*time.Millisecond {
		t.Errorf("slept %v, want one sleep of at least 300ms", d)
	}
}

// TestOldBrownoutResponseDecodes: a histogram an older probe marked as
// served at reduced fidelity passes the client's gate.
func TestOldBrownoutResponseDecodes(t *testing.T) {
	body := tinyHistogram[:len(tinyHistogram)-1] + `,"Brownout":true}`
	h, err := memhist.DecodeHistogram([]byte(body))
	if err != nil {
		t.Fatalf("brownout response rejected: %v", err)
	}
	if h.Counts[1] != 2 || h.Source != "mlc-local" {
		t.Errorf("brownout response mis-decoded: %+v", h)
	}
}

// TestOldOverloadStatsDecode: PONG stats that carry an older probe's
// overload counters pass PingProbe.
func TestOldOverloadStatsDecode(t *testing.T) {
	addr := scriptOldProbe(t, func(ft probenet.FrameType, payload []byte) (probenet.FrameType, any) {
		var ping probenet.Ping
		if ft != probenet.FramePing || probenet.Decode(ft, payload, &ping) != nil {
			t.Errorf("got %s frame, want PING", ft)
		}
		return probenet.FramePong, &probenet.Pong{ID: ping.ID, Stats: json.RawMessage(
			`{"accepted":4,"served":2,"errors_sent":2,"encode_failures":0,"rejected_overload":0,"rejected_draining":0,"panics":0,` +
				`"shed_overload":2,"queued_requests":3,"brownout_entered":1,"brownout_served":1}`)}
	})
	stats, err := memhist.PingProbe(addr, 10*time.Second)
	if err != nil {
		t.Fatalf("PONG with overload stats rejected: %v", err)
	}
	if stats.Accepted != 4 || stats.Served != 2 || stats.ErrorsSent != 2 {
		t.Errorf("stats mis-decoded: %+v", stats)
	}
}
