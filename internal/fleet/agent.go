package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"numaperf/internal/clockx"
	"numaperf/internal/memhist"
	"numaperf/internal/probenet"
)

// Fault is one scripted disruption of a probe agent, consulted through
// the Disruptor seam before a request is served.
type Fault struct {
	// Delay stalls the request before serving it (long enough and the
	// coordinator's cell deadline fires).
	Delay time.Duration
	// Crash drops the connection instead of answering.
	Crash bool
	// StayDown (with Crash) terminates the agent for good instead of
	// reconnecting — a probe process that died and was never restarted.
	StayDown bool
	// Overload answers the request with a request-scoped "overloaded"
	// ERROR carrying RetryAfterMillis instead of serving it — a probe
	// shedding load. The connection stays up; the coordinator treats the
	// answer as backpressure, not as a strike.
	Overload         bool
	RetryAfterMillis int64
}

// Disruptor is the fault-injection seam of a probe agent. A nil
// disruptor never disrupts; internal/faultfleet provides a scripted
// implementation for the chaos suite.
type Disruptor interface {
	// RefuseConnect makes dial attempt n (0-based) fail without
	// dialling — a partitioned probe.
	RefuseConnect(attempt int) bool
	// SkipHeartbeat suppresses beacon seq (1-based) — heartbeat loss
	// without connection loss.
	SkipHeartbeat(seq uint64) bool
	// OnRequest returns the fault for the n-th request (1-based,
	// counted across reconnects).
	OnRequest(n int) Fault
}

// ErrAgentDown marks a scripted StayDown crash: the agent terminated
// deliberately and will not reconnect.
var ErrAgentDown = errors.New("fleet: probe agent staying down (scripted crash)")

// AgentStats counts a probe agent's lifetime events. Served and Failed
// count the RESPONSE and ERROR answers of its request path.
type AgentStats struct {
	Connects   uint64 `json:"connects"`
	Served     uint64 `json:"served"`
	Failed     uint64 `json:"failed"`
	Heartbeats uint64 `json:"heartbeats"`
	Crashes    uint64 `json:"crashes"`
	// Overloads counts requests answered with a backpressure ERROR
	// instead of a measurement; omitted when zero so agents that never
	// shed keep their stats payload byte-identical.
	Overloads uint64 `json:"overloads,omitempty"`
}

// ProbeAgent is the probe side of the fleet control plane: it dials the
// coordinator, registers with its identity (speaking first, the reverse
// of the classic front-end handshake), heartbeats on an interval, and
// serves the measurement cells the coordinator scatters to it through
// memhist.ProbeServer.ServeRequest, the classic probe's request path.
// Lost connections reconnect with deterministic backoff under a fresh
// instance number; a quarantine or version verdict is terminal.
type ProbeAgent struct {
	// ID is the probe identity (required).
	ID string
	// Coordinator is the coordinator's address (required).
	Coordinator string
	// HeartbeatInterval is the beacon period (0 =
	// DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// Handle serves one cell (nil = memhist.HandleRequest, the
	// deterministic local engine).
	Handle func(memhist.ProbeRequest) (*memhist.Histogram, error)
	// Disruptor injects scripted faults (nil = none).
	Disruptor Disruptor
	// BackoffBase/BackoffMax/BackoffSeed parameterise the reconnect
	// backoff, which grows over consecutive dial attempts and starts
	// again from the base once a connection registers.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	BackoffSeed int64
	// Clock paces heartbeats and reconnect delays (nil =
	// clockx.System()).
	Clock clockx.Clock
	// Logf receives diagnostics (nil = discard).
	Logf func(format string, args ...any)
	// Dial replaces net.DialTimeout (test hook).
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)

	// srv answers every cell; Run hands it Handle and Logf.
	srv        memhist.ProbeServer
	connects   atomic.Uint64
	heartbeats atomic.Uint64
	crashes    atomic.Uint64
	overloads  atomic.Uint64
	received   atomic.Uint64
	// inFlight counts the requests in ServeRequest, which heartbeats
	// report: 1 while a cell is served, else 0.
	inFlight atomic.Int64
}

// Stats snapshots the agent's counters.
func (a *ProbeAgent) Stats() AgentStats {
	answers := a.srv.Stats()
	return AgentStats{
		Connects:   a.connects.Load(),
		Served:     answers.Served,
		Failed:     answers.ErrorsSent,
		Heartbeats: a.heartbeats.Load(),
		Crashes:    a.crashes.Load(),
		Overloads:  a.overloads.Load(),
	}
}

func (a *ProbeAgent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *ProbeAgent) clock() clockx.Clock {
	if a.Clock != nil {
		return a.Clock
	}
	return clockx.System()
}

// Run registers with the coordinator and serves cells until the context
// ends (returns ctx.Err()), the coordinator quarantines or refuses the
// probe permanently (*probenet.RemoteError), or a scripted crash says
// StayDown (ErrAgentDown).
func (a *ProbeAgent) Run(ctx context.Context) error {
	if a.ID == "" {
		return errors.New("fleet: probe agent requires an ID")
	}
	if a.Coordinator == "" {
		return errors.New("fleet: probe agent requires a coordinator address")
	}
	dial := a.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	a.srv.Handle, a.srv.Logf = a.Handle, a.Logf
	backoff := probenet.NewBackoff(a.BackoffBase, a.BackoffMax, a.BackoffSeed)
	clock := a.clock()

	instance := uint64(1)
	retries := 0 // dial attempts since the last registered connection
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			if !sleepCtx(ctx, clock, backoff.Delay(retries)) {
				return ctx.Err()
			}
			retries++
		}
		if d := a.Disruptor; d != nil && d.RefuseConnect(attempt) {
			a.logf("fleet: probe %q: scripted dial refusal (attempt %d)", a.ID, attempt)
			continue
		}
		conn, err := dial("tcp", a.Coordinator, dialTimeout)
		if err != nil {
			a.logf("fleet: probe %q: dial %s: %v", a.ID, a.Coordinator, err)
			continue
		}
		a.connects.Add(1)
		err = a.serve(ctx, conn, instance, func() { retries = 0 })
		instance++ // any future connection is a new life
		switch {
		case err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return ctx.Err()
		case errors.Is(err, ErrAgentDown):
			return err
		case isTerminal(err):
			a.logf("fleet: probe %q: terminal: %v", a.ID, err)
			return err
		default:
			a.logf("fleet: probe %q: connection ended: %v; reconnecting", a.ID, err)
		}
	}
}

// isTerminal recognises verdicts reconnecting cannot change: a
// quarantine or shutdown refusal, or a protocol version mismatch.
func isTerminal(err error) bool {
	var re *probenet.RemoteError
	if errors.As(err, &re) {
		return re.Code == probenet.CodeQuarantined || re.Code == probenet.CodeShuttingDown
	}
	var ve *probenet.VersionError
	return errors.As(err, &ve)
}

// sleepCtx sleeps d on the clock unless the context ends first; it
// reports whether the full sleep elapsed.
func sleepCtx(ctx context.Context, clock clockx.Clock, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	done := make(chan struct{})
	go func() {
		clock.Sleep(d)
		close(done)
	}()
	select {
	case <-done:
		return ctx.Err() == nil
	case <-ctx.Done():
		return false
	}
}

// serve runs one registered connection: handshake, heartbeat loop and
// request loop. It calls registered once the coordinator acknowledged
// the handshake.
func (a *ProbeAgent) serve(ctx context.Context, conn net.Conn, instance uint64, registered func()) error {
	defer conn.Close()
	var writeMu sync.Mutex
	send := func(t probenet.FrameType, v any) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		return probenet.WriteFrame(conn, t, v)
	}

	// Registration: the probe speaks first with its identity.
	if err := send(probenet.FrameHello, &probenet.Hello{
		Version: probenet.Version, ProbeID: a.ID, Instance: instance, MaxFrame: probenet.MaxFrame,
	}); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	t, payload, err := probenet.ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("reading registration ack: %w", err)
	}
	switch t {
	case probenet.FrameHello:
		var hello probenet.Hello
		if err := probenet.Decode(t, payload, &hello); err != nil {
			return err
		}
		if hello.Version != probenet.Version {
			return &probenet.VersionError{Got: hello.Version, Want: probenet.Version}
		}
	case probenet.FrameError:
		var em probenet.ErrorMsg
		if err := probenet.Decode(t, payload, &em); err != nil {
			return err
		}
		return &probenet.RemoteError{Code: em.Code, Message: em.Message}
	default:
		return &probenet.ProtocolError{Reason: fmt.Sprintf("expected registration ack, got %s", t)}
	}
	a.logf("fleet: probe %q instance %d registered with %s", a.ID, instance, a.Coordinator)
	registered()

	// The context closes the connection, which unblocks both loops.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	// Heartbeat loop.
	interval := a.HeartbeatInterval
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	clock := a.clock()
	go func() {
		var seq uint64
		for {
			clock.Sleep(interval)
			select {
			case <-stop:
				return
			default:
			}
			seq++
			if d := a.Disruptor; d != nil && d.SkipHeartbeat(seq) {
				a.logf("fleet: probe %q: scripted heartbeat %d loss", a.ID, seq)
				continue
			}
			stats, _ := json.Marshal(a.Stats())
			if err := send(probenet.FrameHeartbeat, &probenet.Heartbeat{
				ProbeID: a.ID, Instance: instance, Seq: seq, InFlight: int(a.inFlight.Load()), Stats: stats,
			}); err != nil {
				return // the request loop observes the dead connection
			}
			a.heartbeats.Add(1)
		}
	}()

	// Request loop: serve cells until the connection ends.
	for {
		_ = conn.SetReadDeadline(time.Time{})
		t, payload, err := probenet.ReadFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		switch t {
		case probenet.FrameRequest:
			var env probenet.Request
			if err := probenet.Decode(t, payload, &env); err != nil {
				return err
			}
			n := int(a.received.Add(1))
			var fault Fault
			if d := a.Disruptor; d != nil {
				fault = d.OnRequest(n)
			}
			if fault.Delay > 0 {
				a.logf("fleet: probe %q: scripted %s stall on request %d", a.ID, fault.Delay, n)
				if !sleepCtx(ctx, clock, fault.Delay) {
					return ctx.Err()
				}
			}
			if fault.Crash {
				a.crashes.Add(1)
				a.logf("fleet: probe %q: scripted crash on request %d", a.ID, n)
				conn.Close()
				if fault.StayDown {
					return ErrAgentDown
				}
				return fmt.Errorf("fleet: probe %q: scripted crash", a.ID)
			}
			if fault.Overload {
				// Request-scoped shed: the ERROR carries the request ID so
				// the coordinator routes it to the waiting cell as
				// backpressure instead of dropping the link.
				a.overloads.Add(1)
				a.logf("fleet: probe %q: scripted overload answer on request %d", a.ID, n)
				if err := send(probenet.FrameError, &probenet.ErrorMsg{
					ID: env.ID, Code: probenet.CodeOverloaded,
					Message:          "probe shedding load",
					RetryAfterMillis: fault.RetryAfterMillis,
				}); err != nil {
					return err
				}
				continue
			}
			a.inFlight.Add(1)
			err := a.srv.ServeRequest(env, send)
			a.inFlight.Add(-1)
			if err != nil {
				return err
			}
		case probenet.FrameError:
			var em probenet.ErrorMsg
			if err := probenet.Decode(t, payload, &em); err != nil {
				return err
			}
			return &probenet.RemoteError{Code: em.Code, Message: em.Message, RetryAfterMillis: em.RetryAfterMillis}
		case probenet.FramePing:
			var ping probenet.Ping
			if err := probenet.Decode(t, payload, &ping); err != nil {
				return err
			}
			stats, _ := json.Marshal(a.Stats())
			if err := send(probenet.FramePong, &probenet.Pong{ID: ping.ID, Stats: stats}); err != nil {
				return err
			}
		default:
			return &probenet.ProtocolError{Reason: fmt.Sprintf("unexpected %s frame from coordinator", t)}
		}
	}
}
