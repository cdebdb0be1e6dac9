package memhist

import (
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"numaperf/internal/probenet"
)

// FetchOptions tunes the resilient front-end side of Fig. 6.
type FetchOptions struct {
	// Timeout bounds each attempt (dial + handshake + measurement +
	// response) and is propagated to the probe. Default 5 minutes.
	Timeout time.Duration
	// Retries is the number of additional attempts after the first,
	// taken on transient failures (refused, reset, timeout, corrupted
	// stream) and on backpressure rejections (overloaded,
	// shutting-down) — never on any other well-formed ERROR frame.
	Retries int
	// Backoff schedules the retry delays; nil selects
	// probenet.NewBackoff(0, 0, 1), the deterministic default. When the
	// previous rejection carried a retry-after hint longer than the
	// backoff delay, as an older probe's may, the hint wins.
	Backoff *probenet.Backoff
	// FallbackLocal degrades gracefully: when the probe stays
	// unreachable after all retries, measure locally and tag the
	// histogram OriginLocalFallback.
	FallbackLocal bool

	// Sleep replaces time.Sleep between retries (test hook).
	Sleep func(time.Duration)
	// Dial replaces net.DialTimeout (test hook).
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
}

// requestID numbers requests process-wide so responses can be matched
// to the request they answer even across reconnects.
var requestID atomic.Uint64

// FetchRemote connects to a probe, submits the request and returns the
// measured histogram — the front-end side of Fig. 6 with default
// resilience (single attempt, no fallback).
func FetchRemote(addr string, req ProbeRequest, timeout time.Duration) (*Histogram, error) {
	return FetchRemoteWith(addr, req, FetchOptions{Timeout: timeout})
}

// FetchRemoteWith fetches a histogram from the probe at addr with
// retries, deterministic backoff and optional local fallback. Every
// call terminates within roughly (Retries+1)·Timeout plus the backoff
// delays, returning either a validated histogram or a typed error:
// *probenet.RemoteError for probe verdicts, *probenet.ProtocolError or
// a network error for transport failures.
func FetchRemoteWith(addr string, req ProbeRequest, opts FetchOptions) (*Histogram, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Minute
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff == nil {
		opts.Backoff = probenet.NewBackoff(0, 0, 1)
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.Dial == nil {
		opts.Dial = net.DialTimeout
	}
	// Client-side validation: a malformed request must not burn retries
	// or fall back; it would fail identically everywhere.
	if err := req.Validate(); err != nil {
		return nil, err
	}

	var lastErr error
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		if attempt > 0 {
			delay := opts.Backoff.Delay(attempt - 1)
			if hint := probenet.RetryAfter(lastErr); hint > delay {
				delay = hint
			}
			opts.Sleep(delay)
		}
		h, err := fetchOnce(addr, req, opts)
		if err == nil {
			h.Origin = OriginProbe
			return h, nil
		}
		lastErr = err
		if !probenet.IsBackpressure(err) && !probenet.IsTransient(err) {
			// A well-formed probe verdict or version mismatch: final.
			// Backpressure means the probe is healthy but busy or
			// draining, so it is worth another attempt.
			return nil, err
		}
	}
	if opts.FallbackLocal {
		h, err := HandleRequest(req)
		if err != nil {
			return nil, fmt.Errorf("memhist: probe %s unreachable (%v); local fallback failed: %w", addr, lastErr, err)
		}
		h.Origin = OriginLocalFallback
		return h, nil
	}
	return nil, fmt.Errorf("memhist: probe %s unreachable after %d attempt(s): %w", addr, opts.Retries+1, lastErr)
}

// fetchOnce performs one complete exchange: dial, HELLO, REQUEST,
// RESPONSE. Errors are returned unwrapped enough for probenet
// classification (errors.As/Is through %w).
func fetchOnce(addr string, req ProbeRequest, opts FetchOptions) (*Histogram, error) {
	conn, err := opts.Dial("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, fmt.Errorf("connecting to probe %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(opts.Timeout))

	// Handshake: the server speaks first.
	t, payload, err := probenet.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("reading probe handshake: %w", err)
	}
	switch t {
	case probenet.FrameError:
		return nil, remoteError(payload)
	case probenet.FrameHello:
	default:
		return nil, &probenet.ProtocolError{Reason: fmt.Sprintf("expected HELLO, got %s", t)}
	}
	var hello probenet.Hello
	if err := probenet.Decode(t, payload, &hello); err != nil {
		return nil, err
	}
	if hello.Version != probenet.Version {
		return nil, &probenet.VersionError{Got: hello.Version, Want: probenet.Version}
	}
	// Fail fast on capabilities the probe advertises it lacks; this
	// saves a measurement round-trip and is never retried.
	if len(hello.Workloads) > 0 && !contains(hello.Workloads, req.Workload) {
		return nil, &probenet.RemoteError{
			Code:    probenet.CodeUnknownWorkload,
			Message: fmt.Sprintf("probe does not offer workload %q (have %v)", req.Workload, hello.Workloads),
		}
	}
	if req.Machine != "" && len(hello.Machines) > 0 && !contains(hello.Machines, req.Machine) {
		return nil, &probenet.RemoteError{
			Code:    probenet.CodeUnknownMachine,
			Message: fmt.Sprintf("probe does not model machine %q (have %v)", req.Machine, hello.Machines),
		}
	}

	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	id := requestID.Add(1)
	env := &probenet.Request{ID: id, TimeoutMillis: opts.Timeout.Milliseconds(), Body: body}
	if err := probenet.WriteFrame(conn, probenet.FrameRequest, env); err != nil {
		return nil, err
	}

	for {
		t, payload, err := probenet.ReadFrame(conn)
		if err != nil {
			return nil, fmt.Errorf("reading probe response: %w", err)
		}
		switch t {
		case probenet.FrameResponse:
			var resp probenet.Response
			if err := probenet.Decode(t, payload, &resp); err != nil {
				return nil, err
			}
			if resp.ID != id {
				return nil, &probenet.ProtocolError{Reason: fmt.Sprintf("response id %d for request %d", resp.ID, id)}
			}
			return DecodeHistogram(resp.Body)
		case probenet.FrameError:
			var em probenet.ErrorMsg
			if err := probenet.Decode(t, payload, &em); err != nil {
				return nil, err
			}
			if em.ID != 0 && em.ID != id {
				return nil, &probenet.ProtocolError{Reason: fmt.Sprintf("error frame id %d for request %d", em.ID, id)}
			}
			return nil, &probenet.RemoteError{Code: em.Code, Message: em.Message, RetryAfterMillis: em.RetryAfterMillis}
		case probenet.FramePong:
			// Stray pong from a previous exchange: ignore.
		default:
			return nil, &probenet.ProtocolError{Reason: fmt.Sprintf("unexpected %s frame awaiting response", t)}
		}
	}
}

// DecodeHistogram unmarshals and sanity-checks a histogram so a
// damaged-but-parseable payload can never masquerade as data: shape
// invariants (matching slice lengths, ≥ 2 strictly increasing bounds)
// must hold or the attempt fails as transport corruption. The fleet
// coordinator shares this gate: a sick probe can drop out of a
// campaign, but it can never smuggle a malformed histogram into the
// merged report.
func DecodeHistogram(body []byte) (*Histogram, error) {
	var h Histogram
	if err := probenet.Decode(probenet.FrameResponse, body, &h); err != nil {
		return nil, err
	}
	if len(h.Bounds) < 2 || len(h.Counts) != len(h.Bounds) || len(h.Uncertain) != len(h.Bounds) {
		return nil, &probenet.ProtocolError{Reason: "histogram shape invariants violated"}
	}
	for i := 0; i+1 < len(h.Bounds); i++ {
		if h.Bounds[i+1] <= h.Bounds[i] {
			return nil, &probenet.ProtocolError{Reason: "histogram bounds not strictly increasing"}
		}
	}
	// Confidence is optional (pre-fidelity probes omit it), but when
	// present it must annotate every interval.
	if h.Confidence != nil && len(h.Confidence) != len(h.Bounds) {
		return nil, &probenet.ProtocolError{Reason: "histogram confidence length mismatch"}
	}
	return &h, nil
}

func remoteError(payload []byte) error {
	var em probenet.ErrorMsg
	if err := probenet.Decode(probenet.FrameError, payload, &em); err != nil {
		return err
	}
	return &probenet.RemoteError{Code: em.Code, Message: em.Message, RetryAfterMillis: em.RetryAfterMillis}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// PingProbe health-checks the probe at addr and returns its counters.
func PingProbe(addr string, timeout time.Duration) (*ProbeStats, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("connecting to probe %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	t, payload, err := probenet.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("reading probe handshake: %w", err)
	}
	if t == probenet.FrameError {
		return nil, remoteError(payload)
	}
	if t != probenet.FrameHello {
		return nil, &probenet.ProtocolError{Reason: fmt.Sprintf("expected HELLO, got %s", t)}
	}
	id := requestID.Add(1)
	if err := probenet.WriteFrame(conn, probenet.FramePing, &probenet.Ping{ID: id}); err != nil {
		return nil, err
	}
	t, payload, err = probenet.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("reading pong: %w", err)
	}
	if t == probenet.FrameError {
		return nil, remoteError(payload)
	}
	if t != probenet.FramePong {
		return nil, &probenet.ProtocolError{Reason: fmt.Sprintf("expected PONG, got %s", t)}
	}
	var pong probenet.Pong
	if err := probenet.Decode(t, payload, &pong); err != nil {
		return nil, err
	}
	var stats ProbeStats
	if len(pong.Stats) > 0 {
		if err := json.Unmarshal(pong.Stats, &stats); err != nil {
			return nil, &probenet.ProtocolError{Reason: fmt.Sprintf("malformed PONG stats: %v", err)}
		}
	}
	return &stats, nil
}
