package memhist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"numaperf/internal/clockx"
	"numaperf/internal/probenet"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// ProbeStats is a snapshot of the probe's counters, exposed through
// the PING frame so operators (and tests) can observe rejected
// connections and — crucially — response-encode failures that would
// otherwise vanish silently.
type ProbeStats struct {
	// Accepted counts accepted TCP connections.
	Accepted uint64 `json:"accepted"`
	// Served counts successful RESPONSE frames sent.
	Served uint64 `json:"served"`
	// ErrorsSent counts ERROR frames sent (any code).
	ErrorsSent uint64 `json:"errors_sent"`
	// EncodeFailures counts frames that failed to serialise or write —
	// the silent-swallow path of the original sketch, now observable.
	EncodeFailures uint64 `json:"encode_failures"`
	// RejectedOverload counts connections refused over MaxConns.
	RejectedOverload uint64 `json:"rejected_overload"`
	// RejectedDraining counts connections refused during shutdown.
	RejectedDraining uint64 `json:"rejected_draining"`
	// Panics counts recovered panics (connection or measurement).
	Panics uint64 `json:"panics"`
	// SamplesDropped accumulates records lost across all served
	// measurements (overrun + throttle); omitted when zero so the PING
	// payload stays byte-compatible with pre-fidelity probes on the
	// lossless path.
	SamplesDropped uint64 `json:"samples_dropped,omitempty"`
	// ThrottledCycles accumulates suppressed sampling time across all
	// served measurements.
	ThrottledCycles uint64 `json:"throttled_cycles,omitempty"`
	// LowCoverageServed counts responses whose histogram coverage fell
	// below the default coverage floor — measurements a -strict client
	// would have rejected.
	LowCoverageServed uint64 `json:"low_coverage_served,omitempty"`
	// ShedOverload counts requests shed by the in-flight admission
	// queue with an "overloaded" ERROR plus retry-after hint: the
	// request was admitted to the connection but its queue wait would
	// have blown the propagated deadline (or the queue budget was
	// already spent). Zero — and absent from the wire — on probes that
	// never shed, keeping their PING payloads byte-identical.
	ShedOverload uint64 `json:"shed_overload,omitempty"`
	// QueuedRequests counts requests that waited for an in-flight slot
	// before being served (pressure short of shedding).
	QueuedRequests uint64 `json:"queued_requests,omitempty"`
	// BrownoutEntered counts transitions into brownout mode.
	BrownoutEntered uint64 `json:"brownout_entered,omitempty"`
	// BrownoutServed counts histograms served at reduced fidelity while
	// the probe was browned out.
	BrownoutServed uint64 `json:"brownout_served,omitempty"`
}

type probeCounters struct {
	accepted          atomic.Uint64
	served            atomic.Uint64
	errorsSent        atomic.Uint64
	encodeFailures    atomic.Uint64
	rejectedOverload  atomic.Uint64
	rejectedDraining  atomic.Uint64
	panics            atomic.Uint64
	samplesDropped    atomic.Uint64
	throttledCycles   atomic.Uint64
	lowCoverageServed atomic.Uint64
	shedOverload      atomic.Uint64
	queuedRequests    atomic.Uint64
	brownoutEntered   atomic.Uint64
	brownoutServed    atomic.Uint64
}

func (c *probeCounters) snapshot() ProbeStats {
	return ProbeStats{
		Accepted:          c.accepted.Load(),
		Served:            c.served.Load(),
		ErrorsSent:        c.errorsSent.Load(),
		EncodeFailures:    c.encodeFailures.Load(),
		RejectedOverload:  c.rejectedOverload.Load(),
		RejectedDraining:  c.rejectedDraining.Load(),
		Panics:            c.panics.Load(),
		SamplesDropped:    c.samplesDropped.Load(),
		ThrottledCycles:   c.throttledCycles.Load(),
		LowCoverageServed: c.lowCoverageServed.Load(),
		ShedOverload:      c.shedOverload.Load(),
		QueuedRequests:    c.queuedRequests.Load(),
		BrownoutEntered:   c.brownoutEntered.Load(),
		BrownoutServed:    c.brownoutServed.Load(),
	}
}

// ProbeServer is the hardened headless probe of the paper's Fig. 6
// architecture: concurrent connections behind a semaphore, per-frame
// deadlines, panic recovery, strict frame limits and a graceful drain.
// The zero value is usable; Serve may be called on multiple listeners.
type ProbeServer struct {
	// MaxConns bounds concurrently served connections; beyond it new
	// connections receive an "overloaded" ERROR frame. Default 16.
	MaxConns int
	// MaxInflight bounds concurrently *measured* requests across all
	// connections — the request-level admission control behind the
	// connection cap. Requests beyond it queue (up to QueueBudget) and
	// are shed with an "overloaded" ERROR plus retry-after hint when
	// their queue wait would blow the propagated deadline. 0 disables
	// admission control entirely: the legacy serve path, byte-identical
	// to pre-overload probes.
	MaxInflight int
	// QueueBudget bounds requests waiting for an in-flight slot; a
	// request arriving past the budget is shed immediately. Only
	// meaningful with MaxInflight > 0. Default 0: no queue, shed on the
	// first request past MaxInflight.
	QueueBudget int
	// BrownoutAfter flips the probe into brownout mode once this many
	// requests have been shed in the current pressure episode: instead
	// of refusing further work, the probe serves reduced-fidelity
	// histograms (single rep, coarser dwell, no adaptive repair) with
	// honest SampleQuality and a (BROWNOUT) render marker. A calm
	// admission — one that found the probe idle — ends the episode and
	// restores full fidelity. 0 disables brownout.
	BrownoutAfter int
	// Seed seeds the retry-after jitter (retryAfterBase..retryAfterMax);
	// 0 selects 1.
	Seed int64
	// Clock paces queue waits; nil selects the system clock. Tests
	// inject a clockx.Fake to walk queued requests into their deadlines
	// deterministically.
	Clock clockx.Clock
	// Handle serves one measurement request; nil selects HandleRequest.
	// The scenario engine and custom probes use it to control what (and
	// how slowly) the probe measures.
	Handle func(ProbeRequest) (*Histogram, error)
	// ProbeID, when set, is advertised in the HELLO handshake so front
	// ends and operators can tell which member of a fleet they reached.
	// Empty keeps the handshake byte-identical to identity-less probes.
	ProbeID string
	// Instance distinguishes restarts of the same ProbeID; advertised
	// alongside it when non-zero.
	Instance uint64
	// Logf, when set, receives diagnostics (encode failures, panics).
	Logf func(format string, args ...any)

	initOnce sync.Once
	sem      chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
	stats    probeCounters

	// Admission state: the in-flight slot semaphore plus the pressure
	// detector, all under olmu (the retry-after rng is not safe for
	// concurrent draws).
	inflight chan struct{}
	olmu     sync.Mutex
	hint     *probenet.Backoff
	queued   int
	episode  int // sheds in the current pressure episode
	brownout bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*probeConn]struct{}
}

// probeConn tracks one served connection's lifecycle so a graceful
// drain can close idle connections immediately while letting in-flight
// measurements finish.
type probeConn struct {
	conn net.Conn

	mu     sync.Mutex
	busy   bool
	closed bool
}

// beginRequest marks the connection busy; false means the connection
// was closed by a concurrent shutdown and the handler must stop.
func (pc *probeConn) beginRequest() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return false
	}
	pc.busy = true
	return true
}

func (pc *probeConn) endRequest() {
	pc.mu.Lock()
	pc.busy = false
	pc.mu.Unlock()
}

// closeIfIdle closes the connection unless a request is in flight,
// first letting notify write a farewell frame. Reports whether it
// closed the connection.
func (pc *probeConn) closeIfIdle(notify func(net.Conn)) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.busy || pc.closed {
		return false
	}
	pc.closed = true
	if notify != nil {
		notify(pc.conn)
	}
	pc.conn.Close()
	return true
}

func (pc *probeConn) forceClose() {
	pc.mu.Lock()
	pc.closed = true
	pc.mu.Unlock()
	pc.conn.Close()
}

func (s *ProbeServer) init() {
	s.initOnce.Do(func() {
		if s.MaxConns <= 0 {
			s.MaxConns = 16
		}
		seed := s.Seed
		if seed == 0 {
			seed = 1
		}
		s.hint = probenet.NewBackoff(retryAfterBase, retryAfterMax, seed)
		if s.Clock == nil {
			s.Clock = clockx.System()
		}
		if s.MaxInflight > 0 {
			s.inflight = make(chan struct{}, s.MaxInflight)
		}
		s.sem = make(chan struct{}, s.MaxConns)
		s.listeners = make(map[net.Listener]struct{})
		s.conns = make(map[*probeConn]struct{})
	})
}

// Retry-after hints on overloaded and shutting-down errors grow from
// retryAfterBase to at most retryAfterMax with seeded jitter.
const (
	retryAfterBase = 25 * time.Millisecond
	retryAfterMax  = 500 * time.Millisecond
)

// Connection deadlines: idleTimeout bounds the wait for the next frame
// on an open connection (and a queued request's wait when the client
// propagated no deadline), writeTimeout each frame write.
const (
	idleTimeout  = 2 * time.Minute
	writeTimeout = 30 * time.Second
)

// retryAfterMillis draws the next backpressure hint: a capped seeded-
// jitter exponential keyed to the depth of the current pressure episode,
// so hints grow as the overload persists and replay identically for a
// given seed and shed sequence.
func (s *ProbeServer) retryAfterMillis() int64 {
	s.olmu.Lock()
	defer s.olmu.Unlock()
	return s.hintLocked()
}

// admit applies request-level admission control. It returns a release
// function when the request may be measured (in brownout fidelity when
// brown is true), or shed=true when the request must be answered with
// an overloaded ERROR carrying the hint.
func (s *ProbeServer) admit(timeoutMillis int64) (release func(), brown, shed bool, hintMillis int64) {
	if s.inflight == nil {
		return func() {}, false, false, 0
	}
	free := func() { <-s.inflight }
	// Fast path: a free slot means the probe is keeping up. Finding the
	// queue empty too is the calm signal that ends a pressure episode
	// and clears brownout.
	select {
	case s.inflight <- struct{}{}:
		s.olmu.Lock()
		if s.queued == 0 {
			s.episode = 0
			s.brownout = false
		}
		brown = s.brownout
		s.olmu.Unlock()
		if brown {
			s.stats.brownoutServed.Add(1)
		}
		return free, brown, false, 0
	default:
	}
	// Queue, within budget.
	s.olmu.Lock()
	if s.queued >= s.QueueBudget {
		s.shedLocked()
		hint := s.hintLocked()
		s.olmu.Unlock()
		return nil, false, true, hint
	}
	s.queued++
	s.olmu.Unlock()
	s.stats.queuedRequests.Add(1)

	// A queued request may spend at most half its propagated deadline
	// waiting — the other half must remain for the measurement and the
	// response write. No deadline caps the wait at the idle timeout so
	// a silent client cannot pin a queue slot forever.
	wait := idleTimeout
	if timeoutMillis > 0 {
		wait = time.Duration(timeoutMillis) * time.Millisecond / 2
	}
	expired := make(chan struct{})
	abandon := make(chan struct{})
	go func() {
		s.Clock.Sleep(wait)
		select {
		case <-abandon:
		default:
			close(expired)
		}
	}()
	select {
	case s.inflight <- struct{}{}:
		close(abandon)
		s.olmu.Lock()
		s.queued--
		brown = s.brownout
		s.olmu.Unlock()
		if brown {
			s.stats.brownoutServed.Add(1)
		}
		return free, brown, false, 0
	case <-expired:
		s.olmu.Lock()
		s.queued--
		s.shedLocked()
		hint := s.hintLocked()
		s.olmu.Unlock()
		return nil, false, true, hint
	}
}

// shedLocked records one shed and advances the pressure episode,
// entering brownout at the configured threshold. Callers hold olmu.
func (s *ProbeServer) shedLocked() {
	s.stats.shedOverload.Add(1)
	s.episode++
	if s.BrownoutAfter > 0 && s.episode >= s.BrownoutAfter && !s.brownout {
		s.brownout = true
		s.stats.brownoutEntered.Add(1)
		s.logf("memhist: probe entering brownout after %d sheds", s.episode)
	}
}

// hintLocked draws the retry-after hint for the current episode depth.
// Callers hold olmu.
func (s *ProbeServer) hintLocked() int64 {
	attempt := s.episode
	if attempt > 6 {
		attempt = 6
	}
	ms := s.hint.Delay(attempt).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// brownoutRequest degrades a request to brownout fidelity: one rep, no
// adaptive repair, and a quarter of any explicit dwell. Exact requests
// pass through — ground truth is cheap and must stay ground truth.
func brownoutRequest(req ProbeRequest) ProbeRequest {
	if req.Exact {
		return req
	}
	req.Reps = 1
	req.Adaptive = false
	if req.SliceCycles > 0 {
		req.SliceCycles /= 4
		if req.SliceCycles < 1 {
			req.SliceCycles = 1
		}
	}
	return req
}

func (s *ProbeServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Stats returns a snapshot of the probe's counters.
func (s *ProbeServer) Stats() ProbeStats { return s.stats.snapshot() }

// Serve accepts probe connections until the listener closes (or
// Shutdown is called). Each connection is handled concurrently, up to
// MaxConns; excess connections are refused with an "overloaded" ERROR
// frame rather than queued, so a stalled probe fails fast instead of
// building an invisible backlog. Temporary accept errors are retried.
func (s *ProbeServer) Serve(l net.Listener) error {
	s.init()
	s.mu.Lock()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return err
		}
		s.stats.accepted.Add(1)
		if s.draining.Load() {
			s.stats.rejectedDraining.Add(1)
			go s.reject(conn, probenet.CodeShuttingDown, "probe is draining", s.retryAfterMillis())
			continue
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.stats.rejectedOverload.Add(1)
			go s.reject(conn, probenet.CodeOverloaded, fmt.Sprintf("probe at connection limit %d", s.MaxConns), s.retryAfterMillis())
			continue
		}
		pc := &probeConn{conn: conn}
		// Registration and the draining re-check share the mutex with
		// Shutdown, so every admitted connection is either counted in
		// the WaitGroup before Shutdown starts waiting or refused.
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			<-s.sem
			s.stats.rejectedDraining.Add(1)
			go s.reject(conn, probenet.CodeShuttingDown, "probe is draining", s.retryAfterMillis())
			continue
		}
		s.conns[pc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				if r := recover(); r != nil {
					s.stats.panics.Add(1)
					s.logf("memhist: probe connection panic: %v", r)
				}
				s.mu.Lock()
				delete(s.conns, pc)
				s.mu.Unlock()
				conn.Close()
				<-s.sem
				s.wg.Done()
			}()
			s.handle(pc)
		}()
	}
}

// reject answers a connection we will not serve with a single ERROR
// frame — carrying the retry-after hint when the rejection is
// backpressure — and closes it.
func (s *ProbeServer) reject(conn net.Conn, code probenet.ErrorCode, msg string, retryAfterMillis int64) {
	defer conn.Close()
	s.sendError(s.writer(conn), 0, code, msg, retryAfterMillis)
}

// writer returns the frame writer for conn: each frame under the write
// deadline, with failures logged and counted (the original
// implementation discarded them).
func (s *ProbeServer) writer(conn net.Conn) func(probenet.FrameType, any) error {
	return func(t probenet.FrameType, v any) error {
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := probenet.WriteFrame(conn, t, v); err != nil {
			s.stats.encodeFailures.Add(1)
			s.logf("memhist: probe failed to send %s to %s: %v", t, conn.RemoteAddr(), err)
			return err
		}
		return nil
	}
}

// sendError writes an ERROR frame; a nonzero retry-after hint makes it
// the request-scoped backpressure answer of the admission queue.
func (s *ProbeServer) sendError(write func(probenet.FrameType, any) error, id uint64, code probenet.ErrorCode, msg string, retryAfterMillis int64) error {
	return writeCounted(&s.stats.errorsSent, write, probenet.FrameError,
		&probenet.ErrorMsg{ID: id, Code: code, Message: msg, RetryAfterMillis: retryAfterMillis})
}

// writeCounted writes a frame that n counts. The count goes up before
// the write, since a client may PING as soon as it has read the frame
// and must see it counted; a failed write takes the count back.
func writeCounted(n *atomic.Uint64, write func(probenet.FrameType, any) error, t probenet.FrameType, v any) error {
	n.Add(1)
	err := write(t, v)
	if err != nil {
		n.Add(^uint64(0))
	}
	return err
}

// handle runs the per-connection frame loop: HELLO, then any number of
// REQUEST/PING frames until the peer leaves, a deadline fires or the
// server drains.
func (s *ProbeServer) handle(pc *probeConn) {
	conn := pc.conn
	write := s.writer(conn)
	hello := &probenet.Hello{
		Version:   probenet.Version,
		Workloads: workloads.Names(),
		Machines:  topology.MachineNames(),
		MaxFrame:  probenet.MaxFrame,
		ProbeID:   s.ProbeID,
		Instance:  s.Instance,
	}
	if write(probenet.FrameHello, hello) != nil {
		return
	}
	for {
		if s.draining.Load() {
			s.sendError(write, 0, probenet.CodeShuttingDown, "probe is draining", s.retryAfterMillis())
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		t, payload, err := probenet.ReadFrame(conn)
		if err != nil {
			// A malformed stream (bad magic, checksum mismatch,
			// truncation) means the transport is damaged, not that the
			// request was wrong: drop the connection without an ERROR
			// frame so the client classifies the failure as transient
			// and retries on a fresh connection. io.EOF is the clean
			// close between frames.
			if !errors.Is(err, io.EOF) {
				s.logf("memhist: probe dropping %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		switch t {
		case probenet.FramePing:
			var ping probenet.Ping
			if probenet.Decode(t, payload, &ping) != nil {
				s.sendError(write, 0, probenet.CodeBadRequest, "malformed PING", 0)
				continue
			}
			stats, _ := json.Marshal(s.Stats())
			if write(probenet.FramePong, &probenet.Pong{ID: ping.ID, Stats: stats}) != nil {
				return
			}
		case probenet.FrameRequest:
			var env probenet.Request
			if probenet.Decode(t, payload, &env) != nil {
				s.sendError(write, 0, probenet.CodeBadRequest, "malformed REQUEST envelope", 0)
				continue
			}
			if !pc.beginRequest() {
				return
			}
			err := s.ServeRequest(env, write)
			pc.endRequest()
			if err != nil {
				return
			}
		default:
			s.sendError(write, 0, probenet.CodeBadRequest, fmt.Sprintf("unexpected %s frame", t), 0)
		}
	}
}

// ServeRequest answers one REQUEST envelope through write, the one
// request path of the probe: its connection loop and the fleet's probe
// agent both call it, so every route measures and answers alike. It
// decodes and validates the body, applies admission control and
// brownout, measures with panic recovery, maps a failure onto its error
// code, accounts sampling fidelity, and encodes the RESPONSE. Every
// RESPONSE or ERROR is counted before write is called, so a peer that
// has read it sees it counted; a failed write takes the count back. The
// error returned is write's, after which the link is unusable.
func (s *ProbeServer) ServeRequest(env probenet.Request, write func(probenet.FrameType, any) error) error {
	s.init()
	var req ProbeRequest
	if err := json.Unmarshal(env.Body, &req); err != nil {
		return s.sendError(write, env.ID, probenet.CodeBadRequest, fmt.Sprintf("malformed request body: %v", err), 0)
	}
	if err := req.Validate(); err != nil {
		return s.sendError(write, env.ID, probenet.CodeBadRequest, err.Error(), 0)
	}
	// Request-level admission: past MaxInflight the request queues up to
	// the budget and is shed — with a retry-after hint — once its queue
	// wait would blow the propagated deadline. Under sustained pressure
	// the probe browns out and serves reduced fidelity instead.
	release, brown, shed, hintMillis := s.admit(env.TimeoutMillis)
	if shed {
		return s.sendError(write, env.ID, probenet.CodeOverloaded,
			fmt.Sprintf("probe shedding load (inflight limit %d, queue budget %d)", s.MaxInflight, s.QueueBudget),
			hintMillis)
	}
	if brown {
		req = brownoutRequest(req)
	}
	h, err := s.measure(req)
	release()
	if err != nil {
		return s.sendError(write, env.ID, errorCode(err), err.Error(), 0)
	}
	if brown && !req.Exact {
		h.Brownout = true
	}
	// Fidelity accounting: the probe's operators see sampling losses in
	// the PING stats even when every individual response is accepted by
	// its client.
	if q := h.Quality; q != nil {
		s.stats.samplesDropped.Add(q.Dropped())
		s.stats.throttledCycles.Add(q.ThrottledCycles)
	}
	if h.Coverage() < DefaultCoverageFloor {
		s.stats.lowCoverageServed.Add(1)
	}
	body, err := json.Marshal(h)
	if err != nil {
		return s.sendError(write, env.ID, probenet.CodeInternal, fmt.Sprintf("encoding histogram: %v", err), 0)
	}
	return writeCounted(&s.stats.served, write, probenet.FrameResponse, &probenet.Response{ID: env.ID, Body: body})
}

// measure runs the request with its own panic recovery so a workload
// bug inside one measurement becomes an ERROR frame, not a dead probe.
func (s *ProbeServer) measure(req ProbeRequest) (h *Histogram, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			s.logf("memhist: measurement panic for workload %q: %v", req.Workload, r)
			err = fmt.Errorf("memhist: measurement panic: %v", r)
		}
	}()
	if s.Handle != nil {
		return s.Handle(req)
	}
	return HandleRequest(req)
}

// errorCode maps a measurement error onto the protocol's error codes.
func errorCode(err error) probenet.ErrorCode {
	switch {
	case errors.Is(err, ErrUnknownWorkload):
		return probenet.CodeUnknownWorkload
	case errors.Is(err, ErrUnknownMachine):
		return probenet.CodeUnknownMachine
	case errors.Is(err, ErrBadRequest):
		return probenet.CodeBadRequest
	default:
		return probenet.CodeInternal
	}
}

// Shutdown drains the server gracefully: new connections are refused
// with "shutting-down", idle connections receive the same farewell and
// close immediately, and in-flight measurements run to completion (and
// deliver their response) before their connections close. When the
// context expires first, remaining connections are force-closed and the
// context's error is returned. Listeners close once the drain ends, so
// Serve returns nil.
func (s *ProbeServer) Shutdown(ctx context.Context) error {
	s.init()
	s.mu.Lock()
	s.draining.Store(true)
	idle := make([]*probeConn, 0, len(s.conns))
	for pc := range s.conns {
		idle = append(idle, pc)
	}
	s.mu.Unlock()

	farewell := func(c net.Conn) {
		s.sendError(s.writer(c), 0, probenet.CodeShuttingDown, "probe is draining", s.retryAfterMillis())
	}
	for _, pc := range idle {
		pc.closeIfIdle(farewell)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	closeListeners := func() {
		s.mu.Lock()
		for l := range s.listeners {
			l.Close()
		}
		s.mu.Unlock()
	}

	select {
	case <-done:
		closeListeners()
		return nil
	case <-ctx.Done():
		// Force-close without waiting: a measurement cannot be
		// cancelled mid-run, so its handler may outlive Shutdown; the
		// closed connection guarantees nothing more reaches the peer.
		s.mu.Lock()
		for pc := range s.conns {
			pc.forceClose()
		}
		s.mu.Unlock()
		closeListeners()
		return ctx.Err()
	}
}

// ServeProbe accepts probe connections until the listener closes — the
// Measure(...) RPC of Fig. 6, served by a default ProbeServer. Callers
// needing concurrency limits, stats or graceful shutdown should use
// ProbeServer directly.
func ServeProbe(l net.Listener) error {
	return (&ProbeServer{}).Serve(l)
}
