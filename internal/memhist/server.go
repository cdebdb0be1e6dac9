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
		s.sem = make(chan struct{}, s.MaxConns)
		s.listeners = make(map[net.Listener]struct{})
		s.conns = make(map[*probeConn]struct{})
	})
}

// Connection deadlines: idleTimeout bounds the wait for the next frame
// on an open connection, writeTimeout each frame write.
const (
	idleTimeout  = 2 * time.Minute
	writeTimeout = 30 * time.Second
)

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
			go s.reject(conn, probenet.CodeShuttingDown, "probe is draining")
			continue
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.stats.rejectedOverload.Add(1)
			go s.reject(conn, probenet.CodeOverloaded, fmt.Sprintf("probe at connection limit %d", s.MaxConns))
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
			go s.reject(conn, probenet.CodeShuttingDown, "probe is draining")
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
// frame and closes it.
func (s *ProbeServer) reject(conn net.Conn, code probenet.ErrorCode, msg string) {
	defer conn.Close()
	s.sendError(s.writer(conn), 0, code, msg)
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

// sendError writes an ERROR frame.
func (s *ProbeServer) sendError(write func(probenet.FrameType, any) error, id uint64, code probenet.ErrorCode, msg string) error {
	return writeCounted(&s.stats.errorsSent, write, probenet.FrameError,
		&probenet.ErrorMsg{ID: id, Code: code, Message: msg})
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
			s.sendError(write, 0, probenet.CodeShuttingDown, "probe is draining")
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
				s.sendError(write, 0, probenet.CodeBadRequest, "malformed PING")
				continue
			}
			stats, _ := json.Marshal(s.Stats())
			if write(probenet.FramePong, &probenet.Pong{ID: ping.ID, Stats: stats}) != nil {
				return
			}
		case probenet.FrameRequest:
			var env probenet.Request
			if probenet.Decode(t, payload, &env) != nil {
				s.sendError(write, 0, probenet.CodeBadRequest, "malformed REQUEST envelope")
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
			s.sendError(write, 0, probenet.CodeBadRequest, fmt.Sprintf("unexpected %s frame", t))
		}
	}
}

// ServeRequest answers one REQUEST envelope through write, the one
// request path of the probe: its connection loop and the fleet's probe
// agent both call it, so every route measures and answers alike. It
// decodes and validates the body, measures with panic recovery, maps a
// failure onto its error code, accounts sampling fidelity, and encodes
// the RESPONSE. Every
// RESPONSE or ERROR is counted before write is called, so a peer that
// has read it sees it counted; a failed write takes the count back. The
// error returned is write's, after which the link is unusable.
func (s *ProbeServer) ServeRequest(env probenet.Request, write func(probenet.FrameType, any) error) error {
	s.init()
	var req ProbeRequest
	if err := json.Unmarshal(env.Body, &req); err != nil {
		return s.sendError(write, env.ID, probenet.CodeBadRequest, fmt.Sprintf("malformed request body: %v", err))
	}
	if err := req.Validate(); err != nil {
		return s.sendError(write, env.ID, probenet.CodeBadRequest, err.Error())
	}
	h, err := s.measure(req)
	if err != nil {
		return s.sendError(write, env.ID, errorCode(err), err.Error())
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
		return s.sendError(write, env.ID, probenet.CodeInternal, fmt.Sprintf("encoding histogram: %v", err))
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
		s.sendError(s.writer(c), 0, probenet.CodeShuttingDown, "probe is draining")
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
