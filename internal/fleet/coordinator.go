package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"numaperf/internal/clockx"
	"numaperf/internal/journal"
	"numaperf/internal/memhist"
	"numaperf/internal/probenet"
)

// Options tunes a Coordinator.
type Options struct {
	// SuspectAfter / DeadAfter / ProbeStrikes parameterise the health
	// state machine (zero = package defaults).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	ProbeStrikes int

	// CellTimeout bounds one cell dispatch end to end; a probe that
	// blows it is struck and the cell re-dispatched (0 =
	// DefaultCellTimeout).
	CellTimeout time.Duration
	// MaxRetries is the re-dispatch allowance per cell after the first
	// attempt (negative = 0 retries; 0 = DefaultMaxRetries).
	MaxRetries int
	// KeepGoing turns a cell that exhausts its retries into a typed Gap
	// instead of aborting the campaign.
	KeepGoing bool
	// MaxInflightPerProbe caps how many cells may be in flight on one
	// probe at a time (0 = 1, the historical one-cell-per-probe rule).
	// Raising it lets a small fleet absorb a large campaign faster while
	// the coordinator's backpressure handling keeps an overloaded probe
	// from being overrun: an "overloaded" answer re-dispatches the cell
	// with the probe's retry-after hint and charges no strike.
	MaxInflightPerProbe int
	// NoProbeGrace is how long a campaign tolerates an empty fleet
	// before failing the remaining cells with ErrNoProbes (0 =
	// DefaultNoProbeGrace).
	NoProbeGrace time.Duration

	// BackoffBase/BackoffMax/BackoffSeed parameterise the deterministic
	// per-cell re-dispatch backoff; cell i draws from seed
	// BackoffSeed+i, so the backoff schedule of a retried cell is
	// reproducible across runs.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	BackoffSeed int64

	// Tick is the campaign loop's bookkeeping period: the granularity of
	// health sweeps, deadline checks and backoff expiry (0 = 10ms).
	Tick time.Duration

	// JournalPath enables the campaign crash journal; empty runs in
	// memory only. Every committed cell (histogram bytes in
	// json.Marshal's compact form, fidelity footer, gap verdict) and
	// every probe strike-ledger change is CRC-framed. A ledger change is
	// fsynced before any further cell is dispatched; the cells a loop
	// turn commits share one fsync, issued before the loop waits for
	// outcomes and before the campaign returns its report.
	JournalPath string
	// JournalSegmentBytes rotates the journal into checkpointed
	// segments (JournalPath.000001, …) once the live tail passes this
	// many bytes, keeping a week-long campaign's journal bounded and
	// resume cost O(tail). Zero keeps the journal in one file. A
	// one-file journal resumed with rotation enabled is checkpointed
	// into JournalPath.000001 crash-safely.
	JournalSegmentBytes int
	// StrictJournal fails the campaign with ErrJournalDegraded on any
	// journal disk fault (ENOSPC, fsync failure, …). Without it the
	// campaign finishes in memory and the report is marked JOURNAL
	// DEGRADED — results intact, resume guarantee honestly lost.
	StrictJournal bool
	// JournalFS overrides the filesystem under the journal; nil is the
	// real one. internal/faultdisk scripts disk faults through this.
	JournalFS journal.FS
	// Resume loads an existing journal, replays its committed cells and
	// strike ledger, and re-scatters only the missing cells. Without
	// Resume, a non-empty journal is ErrJournalExists, never silently
	// clobbered.
	Resume bool
	// Disruptor scripts coordinator-side faults (nil = never fault) —
	// the internal/faultfleet test seam.
	Disruptor CoordinatorDisruptor

	// Clock supplies timestamps for the health state machine (nil =
	// clockx.System()). Socket deadlines always use the wall clock.
	Clock clockx.Clock
	// Logf receives operator diagnostics (nil = discard).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.CellTimeout <= 0 {
		o.CellTimeout = DefaultCellTimeout
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.NoProbeGrace <= 0 {
		o.NoProbeGrace = DefaultNoProbeGrace
	}
	if o.MaxInflightPerProbe <= 0 {
		o.MaxInflightPerProbe = 1
	}
	if o.Tick <= 0 {
		o.Tick = 10 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = clockx.System()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// outcome is one terminal event for a dispatched cell, delivered from a
// link reader to the campaign loop. A response's histogram is decoded
// by the reader: ans, or histErr when the body is malformed.
type outcome struct {
	reqID   uint64
	err     error
	ans     *answer
	histErr error
}

// answer is a response body that decoded, as its link remembers it: the
// body, its histogram, and its journal form, json.Marshal of the body
// as a json.RawMessage, which is what encoding a fleetCellRecord does
// to it (compacting, escaping HTML). Cells answered with these bytes
// share it, so nothing may change it.
type answer struct {
	body    []byte
	hist    *memhist.Histogram
	journal []byte
}

// pendEntry routes a response for one request ID to the campaign
// waiting on it. Entries are delivered or cancelled exactly once.
type pendEntry struct {
	probe    string
	instance uint64
	ch       chan<- outcome
}

// Bounds on both ends of a fleet link: one frame write, the
// registration handshake, and the agent's dial.
const (
	writeTimeout     = 10 * time.Second
	handshakeTimeout = 10 * time.Second
	dialTimeout      = 10 * time.Second
)

// link is one registered probe connection. Writes are serialised; the
// reader goroutine owns all reads, and last, the link's last answer
// that decoded.
type link struct {
	id       string
	instance uint64
	conn     net.Conn
	writeMu  sync.Mutex
	closed   atomic.Bool
	last     *answer
}

func (l *link) send(t probenet.FrameType, v any) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	_ = l.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return probenet.WriteFrame(l.conn, t, v)
}

func (l *link) close() {
	if l.closed.CompareAndSwap(false, true) {
		_ = l.conn.Close()
	}
}

// decode decodes a response body, and its journal form, into the
// link's last answer; a body that fails to decode leaves the last
// answer as it was.
func (l *link) decode(body []byte) (*answer, error) {
	h, err := memhist.DecodeHistogram(body)
	if err != nil {
		return nil, err
	}
	j, err := json.Marshal(json.RawMessage(body))
	if err != nil {
		return nil, err
	}
	l.last = &answer{body: body, hist: h, journal: j}
	return l.last, nil
}

// Coordinator is the fleet control plane: it accepts probe
// registrations, supervises their health from heartbeats, and scatters
// campaign cells across the live fleet, gathering the results into one
// deterministic report. One RunCampaign may run at a time.
type Coordinator struct {
	opts    Options
	tracker *Tracker

	mu        sync.Mutex
	links     map[string]*link
	listeners map[net.Listener]struct{}
	draining  bool
	wg        sync.WaitGroup

	pendMu  sync.Mutex
	pending map[uint64]*pendEntry
	reqID   atomic.Uint64

	fleetMu sync.Mutex
	fleetCh chan struct{}

	campaignMu sync.Mutex

	progMu sync.Mutex
	prog   CampaignProgress
}

// CampaignProgress is a point-in-time view of the running campaign,
// refreshed once per campaign-loop sweep. It backs the periodic
// -stats-interval snapshots of cmd/memhist-fleet; every field is
// run-dependent accounting and never enters the deterministic report.
type CampaignProgress struct {
	// Active is false before the first sweep and after the campaign
	// returned.
	Active bool
	// Cells and Completed mirror the report counters at the snapshot.
	Cells     int
	Completed int
	// Dispatches and Backpressure mirror the dispatch accounting.
	Dispatches   int
	Backpressure int
	// InflightByProbe counts cells currently in flight per probe ID.
	InflightByProbe map[string]int
}

// Progress returns the latest campaign-loop snapshot. Safe to call
// concurrently with a running campaign.
func (c *Coordinator) Progress() CampaignProgress {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	p := c.prog
	p.InflightByProbe = make(map[string]int, len(c.prog.InflightByProbe))
	for id, n := range c.prog.InflightByProbe {
		p.InflightByProbe[id] = n
	}
	return p
}

// publishProgress refreshes the snapshot behind Progress.
func (c *Coordinator) publishProgress(active bool, report *Report, inflightByProbe map[string]int) {
	byProbe := make(map[string]int, len(inflightByProbe))
	for id, n := range inflightByProbe {
		if n > 0 {
			byProbe[id] = n
		}
	}
	c.progMu.Lock()
	defer c.progMu.Unlock()
	c.prog = CampaignProgress{
		Active:          active,
		Cells:           report.Cells,
		Completed:       report.Completed,
		Dispatches:      report.Dispatches,
		Backpressure:    report.Backpressure,
		InflightByProbe: byProbe,
	}
}

// NewCoordinator builds a coordinator (zero option fields take the
// package defaults).
func NewCoordinator(opts Options) *Coordinator {
	opts = opts.withDefaults()
	return &Coordinator{
		opts: opts,
		tracker: NewTracker(TrackerOptions{
			SuspectAfter: opts.SuspectAfter,
			DeadAfter:    opts.DeadAfter,
			StrikeLimit:  opts.ProbeStrikes,
		}),
		links:     make(map[string]*link),
		listeners: make(map[net.Listener]struct{}),
		pending:   make(map[uint64]*pendEntry),
		fleetCh:   make(chan struct{}),
	}
}

// Tracker exposes the health state machine for inspection.
func (c *Coordinator) Tracker() *Tracker { return c.tracker }

func (c *Coordinator) now() time.Time { return c.opts.Clock.Now() }

// Serve accepts probe registrations on ln until the listener is closed
// (by Shutdown or the caller). It returns nil on a clean close.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		ln.Close()
		return errors.New("fleet: coordinator is shut down")
	}
	c.listeners[ln] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.listeners, ln)
		c.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handshake(conn)
		}()
	}
}

// handshake runs the fleet registration: the probe speaks first with a
// HELLO carrying its identity; the coordinator admits it into the
// tracker and acknowledges with its own HELLO, or refuses with a typed
// ERROR frame.
func (c *Coordinator) handshake(conn net.Conn) {
	refuse := func(code probenet.ErrorCode, msg string) {
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_ = probenet.WriteFrame(conn, probenet.FrameError, &probenet.ErrorMsg{Code: code, Message: msg})
		conn.Close()
	}
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	t, payload, err := probenet.ReadFrame(conn)
	if err != nil {
		c.opts.Logf("fleet: registration from %s failed: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	if t != probenet.FrameHello {
		refuse(probenet.CodeBadRequest, fmt.Sprintf("expected HELLO, got %s", t))
		return
	}
	var hello probenet.Hello
	if err := probenet.Decode(t, payload, &hello); err != nil {
		c.opts.Logf("fleet: registration from %s: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	if hello.Version != probenet.Version {
		refuse(probenet.CodeBadRequest, fmt.Sprintf("protocol version %d, want %d", hello.Version, probenet.Version))
		return
	}
	if hello.ProbeID == "" {
		refuse(probenet.CodeBadRequest, "fleet registration requires a probe identity")
		return
	}
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	if draining {
		refuse(probenet.CodeShuttingDown, "coordinator is shutting down")
		return
	}
	if err := c.tracker.Register(hello.ProbeID, hello.Instance, c.now()); err != nil {
		var qe *QuarantineError
		if errors.As(err, &qe) {
			refuse(probenet.CodeQuarantined, qe.Error())
		} else {
			refuse(probenet.CodeBadRequest, err.Error())
		}
		c.opts.Logf("fleet: refused probe %q: %v", hello.ProbeID, err)
		return
	}

	l := &link{id: hello.ProbeID, instance: hello.Instance, conn: conn}
	c.mu.Lock()
	old := c.links[l.id]
	c.links[l.id] = l
	c.mu.Unlock()
	if old != nil {
		// The probe re-registered while its previous connection was
		// still open (a flap, already charged by Register). The old
		// reader's disconnect is recognised as stale and ignored.
		old.close()
	}
	if err := l.send(probenet.FrameHello, &probenet.Hello{
		Version: probenet.Version, MaxFrame: probenet.MaxFrame,
	}); err != nil {
		c.dropLink(l, fmt.Sprintf("registration ack failed: %v", err))
		return
	}
	c.opts.Logf("fleet: probe %q instance %d registered from %s", l.id, l.instance, conn.RemoteAddr())
	c.notifyFleet()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.readLoop(l)
	}()
}

// readLoop owns all reads on one probe link: heartbeats feed the
// tracker, responses and errors route to the waiting campaign. A
// RESPONSE that splits canonically into an ID and a body byte-equal to
// the link's last answer is that answer, with no JSON pass; any other
// is decoded in full.
func (c *Coordinator) readLoop(l *link) {
	idle := c.opts.DeadAfter
	if idle <= 0 {
		idle = DefaultDeadAfter
	}
	idle += 2 * time.Second
	for {
		_ = l.conn.SetReadDeadline(time.Now().Add(idle))
		t, payload, err := probenet.ReadFrame(l.conn)
		if err != nil {
			c.dropLink(l, fmt.Sprintf("connection lost: %v", err))
			return
		}
		switch t {
		case probenet.FrameHeartbeat:
			var hb probenet.Heartbeat
			if err := probenet.Decode(t, payload, &hb); err != nil {
				c.dropLink(l, err.Error())
				return
			}
			if hb.ProbeID != l.id || (hb.Instance != 0 && hb.Instance != l.instance) {
				c.dropLink(l, fmt.Sprintf("heartbeat identity %q/%d does not match link %q/%d",
					hb.ProbeID, hb.Instance, l.id, l.instance))
				return
			}
			if _, err := c.tracker.Heartbeat(l.id, l.instance, c.now()); err != nil {
				var qe *QuarantineError
				if errors.As(err, &qe) {
					_ = l.send(probenet.FrameError,
						&probenet.ErrorMsg{Code: probenet.CodeQuarantined, Message: qe.Error()})
				}
				c.dropLink(l, fmt.Sprintf("heartbeat rejected: %v", err))
				return
			}
			c.notifyFleet()
		case probenet.FrameResponse:
			id, body, ok := probenet.SplitResponse(payload)
			repeat := ok && l.last != nil && bytes.Equal(body, l.last.body)
			if !repeat {
				var resp probenet.Response
				if err := probenet.Decode(t, payload, &resp); err != nil {
					c.dropLink(l, err.Error())
					return
				}
				id, body = resp.ID, resp.Body
			}
			// A late or duplicate response is dropped undecoded.
			if ch := c.claim(id); ch != nil {
				o := outcome{reqID: id}
				if repeat {
					o.ans = l.last
				} else {
					o.ans, o.histErr = l.decode(body)
				}
				ch <- o
			}
		case probenet.FrameError:
			var em probenet.ErrorMsg
			if err := probenet.Decode(t, payload, &em); err != nil {
				c.dropLink(l, err.Error())
				return
			}
			if em.ID != 0 {
				if ch := c.claim(em.ID); ch != nil {
					ch <- outcome{reqID: em.ID, err: &probenet.RemoteError{Code: em.Code, Message: em.Message, RetryAfterMillis: em.RetryAfterMillis}}
				}
			} else {
				c.dropLink(l, fmt.Sprintf("probe reported connection error [%s]: %s", em.Code, em.Message))
				return
			}
		case probenet.FramePing:
			var ping probenet.Ping
			if err := probenet.Decode(t, payload, &ping); err == nil {
				_ = l.send(probenet.FramePong, &probenet.Pong{ID: ping.ID})
			}
		default:
			c.dropLink(l, fmt.Sprintf("unexpected %s frame from probe", t))
			return
		}
	}
}

// dropLink tears one probe connection down: the tracker records the
// death (unless the link was already superseded or swept), every cell
// in flight on it fails over to the campaign loop, and fleet waiters
// re-evaluate.
func (c *Coordinator) dropLink(l *link, reason string) {
	l.close()
	c.mu.Lock()
	if c.links[l.id] == l {
		delete(c.links, l.id)
	}
	c.mu.Unlock()
	state, err := c.tracker.Disconnect(l.id, l.instance, reason)
	var se *StaleProbeError
	if errors.As(err, &se) {
		// A newer instance registered; this death is history.
		return
	}
	c.opts.Logf("fleet: probe %q instance %d dropped (%s): now %s", l.id, l.instance, reason, state)
	c.failPending(l.id, l.instance, fmt.Errorf("fleet: probe %q died: %s", l.id, reason))
	c.notifyFleet()
}

// closeLink force-closes the current connection of a probe (after a
// sweep declared it dead or quarantined); cleanup happens in its
// reader's dropLink.
func (c *Coordinator) closeLink(id string) {
	c.mu.Lock()
	l := c.links[id]
	c.mu.Unlock()
	if l != nil {
		l.close()
	}
}

// claim removes the pending entry of reqID and returns the channel of
// the campaign waiting on it, which the caller sends its outcome on; nil
// means the entry was cancelled or already delivered. A link reader
// builds the outcome, decoding a response off the campaign loop.
func (c *Coordinator) claim(reqID uint64) chan<- outcome {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	e, ok := c.pending[reqID]
	if !ok {
		return nil
	}
	delete(c.pending, reqID)
	return e.ch
}

// cancelPending removes a pending entry so a late response is dropped.
func (c *Coordinator) cancelPending(reqID uint64) {
	c.pendMu.Lock()
	delete(c.pending, reqID)
	c.pendMu.Unlock()
}

// failPending fails every pending request routed at one probe instance.
func (c *Coordinator) failPending(probe string, instance uint64, err error) {
	c.pendMu.Lock()
	var hit []struct {
		id uint64
		ch chan<- outcome
	}
	for id, e := range c.pending {
		if e.probe == probe && e.instance == instance {
			hit = append(hit, struct {
				id uint64
				ch chan<- outcome
			}{id, e.ch})
			delete(c.pending, id)
		}
	}
	c.pendMu.Unlock()
	for _, h := range hit {
		h.ch <- outcome{reqID: h.id, err: err}
	}
}

// notifyFleet wakes WaitForProbes waiters after any fleet change.
func (c *Coordinator) notifyFleet() {
	c.fleetMu.Lock()
	close(c.fleetCh)
	c.fleetCh = make(chan struct{})
	c.fleetMu.Unlock()
}

func (c *Coordinator) fleetChanged() <-chan struct{} {
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	return c.fleetCh
}

// WaitForProbes blocks until at least n probes are healthy or the
// context expires.
func (c *Coordinator) WaitForProbes(ctx context.Context, n int) error {
	for {
		ch := c.fleetChanged()
		if len(c.tracker.Healthy()) >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: waiting for %d probe(s) (%d healthy): %w",
				n, len(c.tracker.Healthy()), ctx.Err())
		case <-ch:
		}
	}
}

// Shutdown refuses new registrations, closes every probe link and
// listener, and waits for the readers to drain or the context to
// expire.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	for ln := range c.listeners {
		_ = ln.Close()
	}
	var ls []*link
	for _, l := range c.links {
		ls = append(ls, l)
	}
	c.mu.Unlock()
	for _, l := range ls {
		l.close()
	}
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cellStatus tracks one cell through the scatter/gather loop.
type cellStatus int

const (
	cellPending cellStatus = iota
	cellInFlight
	cellDone
	cellGapped
)

type cellState struct {
	status    cellStatus
	attempts  int
	notBefore time.Time
	backoff   *probenet.Backoff // built on the cell's first retry
	// hist is the cell's histogram. Cells a link answered with the same
	// bytes share one decoded histogram, so nothing may change it: the
	// gather's MergeHistograms only reads it.
	hist         *memhist.Histogram
	gapReason    string
	redispatched bool
	// journalHist retains the histogram's journal form until the cell is
	// journaled; servedBy names the probe that produced it.
	journalHist []byte
	servedBy    string
	// journaled marks the cell's verdict written to the journal, to be
	// fsynced before the loop next waits (or replayed from a resumed
	// journal).
	journaled bool
	// lastProbe is the probe of the previous attempt; re-dispatch
	// prefers any other probe, because a probe that just failed the
	// cell (a blown deadline in particular) may still be wedged behind
	// it while heartbeating on time.
	lastProbe string
}

// dispatch is one in-flight cell assignment.
type dispatch struct {
	cell     int
	probe    string
	instance uint64
	deadline time.Time
}

// RunCampaign scatters the campaign's cells across the live fleet and
// gathers the merged report. The campaign loop is the single committer:
// it alone mutates cell state, and the final merge folds the per-cell
// histograms in canonical cell order, so the report's histogram, gaps
// and quarantine verdicts depend only on the spec whenever every cell
// eventually completes. Cells stranded on a dead, quarantined or
// deadline-blown probe re-dispatch with deterministic per-cell backoff;
// a cell that exhausts MaxRetries becomes a typed Gap under KeepGoing
// or aborts the campaign with a *CellError otherwise.
func (c *Coordinator) RunCampaign(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.campaignMu.Lock()
	defer c.campaignMu.Unlock()

	n := spec.Cells
	results := make(chan outcome, n)
	cells := make([]*cellState, n)
	for i := range cells {
		cells[i] = &cellState{}
	}
	inflight := make(map[uint64]*dispatch)
	inflightByProbe := make(map[string]int)
	report := &Report{Cells: n, ProbeCells: make(map[string]int)}
	defer func() { c.publishProgress(false, report, nil) }()
	remaining := n
	var emptySince time.Time

	// Journal: resume or refuse to clobber, then open for append.
	// Replayed cells enter the loop already done and journaled, so the
	// scatter only sees the missing ones; the restored strike ledger
	// closes the door on probes whose quarantine predates the restart.
	// The writer owns the header: it writes one at the head of every
	// segment it starts, with the probe ledger compacted to one record
	// per probe at each checkpoint.
	nextCommit := 0
	lastLedger := make(map[string]fleetProbeRecord)
	jnl, err := journalOwner.Open(journal.Config{
		FS: c.opts.JournalFS, Path: c.opts.JournalPath, Resume: c.opts.Resume,
		Strict: c.opts.StrictJournal, Logf: c.opts.Logf,
		Segments: journal.SegmentedOptions{
			SegmentBytes: c.opts.JournalSegmentBytes,
			Version:      fleetJournalVersion,
			Header:       fleetHeaderFor(spec),
			Summarize:    summarizeFleetCheckpoint,
		},
		Adopt: func(generic *journal.State) error {
			state, err := convertFleetJournal(generic, nil)
			if err != nil {
				return err
			}
			if err := state.header.matches(fleetHeaderFor(spec)); err != nil {
				return err
			}
			for _, id := range state.probeIDs() {
				pr := state.probes[id]
				lastLedger[pr.ID] = *pr
				if st := c.tracker.RestoreStrikes(pr.ID, pr.Strikes, pr.Reasons, pr.Quarantined); st == Quarantined {
					// The journal remembers what the restart forgot: cut
					// the probe off even if it already re-registered.
					c.closeLink(pr.ID)
					c.opts.Logf("fleet: probe %q quarantine restored from journal", pr.ID)
				}
			}
			for i, cm := range state.committed {
				st := cells[i]
				st.journaled = true
				if cm.cell != nil {
					h, err := memhist.DecodeHistogram(cm.cell.Hist)
					if err != nil {
						return fmt.Errorf("%w: journaled cell %d: %v", ErrJournalCorrupt, i, err)
					}
					st.status = cellDone
					st.hist = h
					report.Completed++
					report.ProbeCells[cm.cell.Probe]++
				} else {
					st.status = cellGapped
					st.gapReason = cm.gap.Reason
				}
				remaining--
				report.Replayed++
			}
			nextCommit = len(state.committed)
			if state.truncated {
				// OpenSegmented truncates the torn tail before appending.
				report.Truncated = true
				c.opts.Logf("fleet: dropped a torn final journal record (crash mid-write)")
			}
			c.opts.Logf("fleet: resuming %s: %d of %d cells already journaled",
				c.opts.JournalPath, nextCommit, n)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	// A disk fault that cost the journal is reported, never lost
	// silently.
	defer func() {
		report.JournalFault = jnl.Fault()
		report.JournalDegraded = report.JournalFault != ""
	}()

	// abort cancels every outstanding dispatch so late responses are
	// dropped, then surfaces err.
	abort := func(err error) (*Report, error) {
		for id := range inflight {
			c.cancelPending(id)
		}
		return nil, err
	}

	// commit writes cell verdicts to the journal in canonical order: a
	// cell is written only once every earlier cell's verdict is, which
	// is what makes a partial journal a byte-prefix of the complete one.
	// A completed cell's record is spliced around its histogram's
	// journal form. The writes become durable together at the loop's
	// next jnl.Sync. Scripted faults crash the coordinator in each
	// distinct window of the write path, on the same record bytes.
	commit := func() error {
		for nextCommit < n {
			st := cells[nextCommit]
			if st.status != cellDone && st.status != cellGapped {
				return nil
			}
			if !st.journaled {
				var payload []byte
				switch {
				case jnl == nil:
					// Without a journal nothing reads the record.
				case st.status == cellDone:
					payload = cellRecordJSON(nextCommit, st.servedBy, st.journalHist)
				default:
					var err error
					payload, err = json.Marshal(&fleetGapRecord{Kind: "gap", Cell: nextCommit, Reason: st.gapReason})
					if err != nil {
						return fmt.Errorf("fleet: encoding journal record: %w", err)
					}
				}
				if d := c.opts.Disruptor; d != nil {
					if fault := d.OnCommit(nextCommit); fault != CommitNone {
						if fault == CommitKillBefore {
							return ErrCoordinatorKilled
						}
						frame := journal.Frame(payload)
						if fault == CommitTear {
							frame = frame[:len(frame)/2]
						}
						if err := jnl.WriteRaw(frame); err != nil {
							return err
						}
						return ErrCoordinatorKilled
					}
				}
				if err := jnl.Write(payload); err != nil {
					return err
				}
				st.journaled = true
				st.journalHist = nil
			}
			nextCommit++
		}
		return nil
	}

	// syncLedger journals probe strike/quarantine changes in probe-ID
	// order, each fsynced before the loop dispatches again. Records
	// carry absolute totals and the last record per probe wins on
	// replay, so re-writing on every change is idempotent across any
	// number of restarts.
	syncLedger := func() error {
		if jnl == nil {
			return nil
		}
		for _, p := range c.tracker.Snapshot() {
			quar := p.State == Quarantined
			last, seen := lastLedger[p.ID]
			if !seen && p.Strikes == 0 && !quar {
				continue
			}
			if seen && last.Strikes == p.Strikes && last.Quarantined == quar {
				continue
			}
			rec := fleetProbeRecord{Kind: "probe", ID: p.ID, Strikes: p.Strikes,
				Reasons: p.StrikeReasons, Quarantined: quar}
			if err := jnl.Append(&rec); err != nil {
				return err
			}
			lastLedger[p.ID] = rec
		}
		return nil
	}

	// fail consumes one attempt of a cell; it re-queues the cell with
	// its deterministic backoff, gaps it, or (KeepGoing off) returns the
	// terminal campaign error.
	fail := func(i int, now time.Time, cause error) error {
		st := cells[i]
		if st.attempts <= c.opts.MaxRetries {
			if st.backoff == nil {
				st.backoff = probenet.NewBackoff(c.opts.BackoffBase, c.opts.BackoffMax, c.opts.BackoffSeed+int64(i))
			}
			st.status = cellPending
			st.notBefore = now.Add(st.backoff.Delay(st.attempts - 1))
			st.redispatched = true
			c.opts.Logf("fleet: cell %d attempt %d failed (%v); re-dispatching after %s",
				i, st.attempts, cause, st.notBefore.Sub(now))
			return nil
		}
		if c.opts.KeepGoing {
			st.status = cellGapped
			st.gapReason = cause.Error()
			remaining--
			c.opts.Logf("fleet: cell %d gapped after %d attempt(s): %v", i, st.attempts, cause)
			return nil
		}
		return &CellError{Cell: i, Attempts: st.attempts, Err: cause}
	}

	// structural recognises probe verdicts that would fail identically
	// on every probe — retrying them elsewhere only repeats the answer.
	structural := func(err error) bool {
		var re *probenet.RemoteError
		if !errors.As(err, &re) {
			return false
		}
		switch re.Code {
		case probenet.CodeBadRequest, probenet.CodeUnknownWorkload, probenet.CodeUnknownMachine:
			return true
		}
		return false
	}

	handle := func(o outcome, now time.Time) error {
		d, ok := inflight[o.reqID]
		if !ok {
			return nil // late response for a cancelled dispatch
		}
		delete(inflight, o.reqID)
		inflightByProbe[d.probe]--
		if o.err != nil {
			if structural(o.err) {
				return &CellError{Cell: d.cell, Attempts: cells[d.cell].attempts, Err: o.err}
			}
			if probenet.IsBackpressure(o.err) {
				// The probe is healthy but shedding: re-dispatch the cell
				// after the hinted delay, preferably elsewhere (lastProbe is
				// already set), without consuming a retry or charging a
				// strike — a load spike must not gap cells or launder a
				// healthy probe into quarantine.
				st := cells[d.cell]
				st.status = cellPending
				st.notBefore = now.Add(probenet.RetryAfter(o.err))
				st.redispatched = true
				report.Backpressure++
				c.opts.Logf("fleet: cell %d deferred by probe %q backpressure (retry after %s)",
					d.cell, d.probe, probenet.RetryAfter(o.err))
				return nil
			}
			return fail(d.cell, now, o.err)
		}
		if o.histErr != nil {
			if st := c.tracker.Strike(d.probe, "returned a malformed histogram"); st == Quarantined {
				c.closeLink(d.probe)
			}
			return fail(d.cell, now, fmt.Errorf("probe %q returned a malformed histogram: %w", d.probe, o.histErr))
		}
		st := cells[d.cell]
		st.status = cellDone
		st.hist = o.ans.hist
		st.journalHist = o.ans.journal
		st.servedBy = d.probe
		remaining--
		report.Completed++
		report.ProbeCells[d.probe]++
		return nil
	}

	timer := time.NewTimer(c.opts.Tick)
	defer timer.Stop()
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		now := c.now()

		// Health sweep: probes falling silent go suspect, then dead;
		// dead and quarantined probes lose their connection and every
		// cell in flight on them.
		for _, tr := range c.tracker.Sweep(now) {
			c.opts.Logf("fleet: probe %q: %s -> %s (%s)", tr.ProbeID, tr.From, tr.To, tr.Reason)
			if tr.To == Dead || tr.To == Quarantined {
				c.closeLink(tr.ProbeID)
			}
		}
		for id, d := range inflight {
			st, _ := c.tracker.State(d.probe)
			if st != Dead && st != Quarantined {
				continue
			}
			c.cancelPending(id)
			delete(inflight, id)
			inflightByProbe[d.probe]--
			if err := fail(d.cell, now, fmt.Errorf("probe %q declared %s mid-cell", d.probe, st)); err != nil {
				return abort(err)
			}
		}

		// Deadline check: a probe sitting on a cell past CellTimeout is
		// struck and the cell re-dispatched; its eventual stale response
		// is dropped.
		for id, d := range inflight {
			if now.Before(d.deadline) {
				continue
			}
			c.cancelPending(id)
			delete(inflight, id)
			inflightByProbe[d.probe]--
			if st := c.tracker.Strike(d.probe, "exceeded cell deadline"); st == Quarantined {
				c.closeLink(d.probe)
			}
			if err := fail(d.cell, now, fmt.Errorf("probe %q exceeded the %s cell deadline", d.probe, c.opts.CellTimeout)); err != nil {
				return abort(err)
			}
		}

		// Commit point: fsync the strike ledger and write every cell whose
		// canonical turn has come before scattering more work. The cell
		// records are fsynced together just before the loop waits, while
		// the probes measure the cells dispatched below.
		if err := syncLedger(); err != nil {
			return abort(err)
		}
		if err := commit(); err != nil {
			return abort(err)
		}

		// Dispatch: ready cells scatter to healthy probes, one cell per
		// probe at a time, in canonical cell order.
		healthy := c.tracker.Healthy()
		for i := 0; i < n; i++ {
			st := cells[i]
			if st.status != cellPending || now.Before(st.notBefore) {
				continue
			}
			probe, fallback := "", ""
			for _, id := range healthy {
				if inflightByProbe[id] >= c.opts.MaxInflightPerProbe {
					continue
				}
				if id == st.lastProbe {
					fallback = id
					continue
				}
				probe = id
				break
			}
			if probe == "" {
				probe = fallback
			}
			if probe == "" {
				break // fleet saturated; wait for capacity
			}
			c.mu.Lock()
			l := c.links[probe]
			c.mu.Unlock()
			if l == nil {
				continue // raced with a disconnect; next tick re-evaluates
			}
			if d := c.opts.Disruptor; d != nil && d.OnDispatch(i, st.attempts+1) {
				// Scripted kill mid-scatter: earlier cells of this sweep
				// are already on the wire; their responses will land on a
				// dead coordinator and the resumed one must re-dispatch.
				return abort(ErrCoordinatorKilled)
			}
			body, err := json.Marshal(spec.CellRequest(i))
			if err != nil {
				return abort(fmt.Errorf("fleet: encoding cell %d: %w", i, err))
			}
			id := c.reqID.Add(1)
			c.pendMu.Lock()
			c.pending[id] = &pendEntry{probe: probe, instance: l.instance, ch: results}
			c.pendMu.Unlock()
			st.attempts++
			st.lastProbe = probe
			report.Dispatches++
			if err := l.send(probenet.FrameRequest, &probenet.Request{
				ID: id, TimeoutMillis: c.opts.CellTimeout.Milliseconds(), Body: body,
			}); err != nil {
				c.cancelPending(id)
				l.close()
				if ferr := fail(i, now, fmt.Errorf("dispatch to probe %q failed: %w", probe, err)); ferr != nil {
					return abort(ferr)
				}
				continue
			}
			st.status = cellInFlight
			inflight[id] = &dispatch{cell: i, probe: probe, instance: l.instance, deadline: now.Add(c.opts.CellTimeout)}
			inflightByProbe[probe]++
		}

		// Empty-fleet accounting: with nothing in flight and no live
		// probe, cells cannot progress; past the grace period they fail
		// with ErrNoProbes.
		if len(inflight) == 0 && remaining > 0 && c.tracker.Live() == 0 {
			if emptySince.IsZero() {
				emptySince = now
			} else if now.Sub(emptySince) >= c.opts.NoProbeGrace {
				for i := 0; i < n && remaining > 0; i++ {
					st := cells[i]
					if st.status != cellPending {
						continue
					}
					st.attempts = c.opts.MaxRetries + 1 // retries cannot help an empty fleet
					if err := fail(i, now, ErrNoProbes); err != nil {
						return abort(err)
					}
				}
				continue
			}
		} else {
			emptySince = time.Time{}
		}
		if remaining == 0 {
			break
		}

		c.publishProgress(true, report, inflightByProbe)

		// Durability point: every cell record written this turn is on
		// disk before the loop waits.
		if err := jnl.Sync(); err != nil {
			return abort(err)
		}

		// Wait for an outcome or the next bookkeeping tick.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(c.opts.Tick)
		select {
		case o := <-results:
			if err := handle(o, c.now()); err != nil {
				return abort(err)
			}
			// Drain whatever else already arrived.
			for more := true; more; {
				select {
				case o := <-results:
					if err := handle(o, c.now()); err != nil {
						return abort(err)
					}
				default:
					more = false
				}
			}
		case <-timer.C:
		case <-ctx.Done():
			return abort(ctx.Err())
		}
	}

	// Final durability point: the loop can exit with verdicts not yet
	// journaled (the last outcomes arrive inside the select); nothing is
	// acknowledged in the report before it is on disk.
	if err := syncLedger(); err != nil {
		return abort(err)
	}
	if err := commit(); err != nil {
		return abort(err)
	}
	if err := jnl.Sync(); err != nil {
		return abort(err)
	}

	// Gather: the committer folds per-cell results in canonical cell
	// order — the report is a pure function of the completed cells.
	var hists []*memhist.Histogram
	for i := 0; i < n; i++ {
		st := cells[i]
		switch st.status {
		case cellDone:
			hists = append(hists, st.hist)
		case cellGapped:
			report.Gaps = append(report.Gaps, Gap{Cell: i, Reason: st.gapReason})
		}
		if st.redispatched {
			report.Redispatched++
		}
	}
	if len(hists) > 0 {
		merged, err := memhist.MergeHistograms(hists)
		if err != nil {
			return nil, fmt.Errorf("fleet: merging campaign cells: %w", err)
		}
		report.Histogram = merged
	}
	report.Quarantined = c.tracker.Quarantines()
	return report, nil
}
