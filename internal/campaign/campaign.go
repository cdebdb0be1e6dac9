// Package campaign is the supervised measurement layer for EvSel.
// Measuring "the whole plenitude of available hardware counters" means
// re-running a program once per PMU register batch, times repetitions,
// times sweep parameters — dozens to hundreds of runs, any of which can
// hang, panic, exit nonzero or return garbage on a real machine. The
// campaign runner decomposes such a request into individually retryable
// run cells, executes each under a wall-clock timeout and op budget
// with panic recovery, retries transient failures with deterministic
// capped backoff, journals every completed cell to a CRC-checked
// append-only file (so a killed campaign resumes exactly where it
// stopped), quarantines counters that repeatedly fail or return
// impossible values, and reports typed gaps for everything it could not
// measure — never a hang, never silent sample loss.
//
// Each cell builds a fresh engine seeded by the cell's global ordinal,
// so a cell's measurement is a pure function of the spec: retries,
// crashes and resumes cannot change the final numbers, which is what
// makes a resumed campaign byte-identical to an uninterrupted one.
//
// The cells of one sweep point differ only in that seed, which draws
// their measurement noise, so a Run simulates each point once. The first
// cell of a point to reach the simulator keeps its run; every later cell
// of the point still builds its own engine and takes its run from
// exec.Engine.Repeat on it, which returns exactly what simulating the
// body on that engine would. A cell is still the unit of retry, timeout,
// fault injection and journaling. A cell whose point is being simulated
// waits for it, and the wait counts against the cell's RunTimeout; an
// attempt abandoned on timeout may still finish the simulation and hand
// it to the attempts after it. Only such wall-clock outcomes can differ
// from simulating every cell. A resumed campaign simulates a point again
// only if one of its cells is missing, and then once.
//
// That same independence makes cells safe to measure concurrently: with
// Options.Concurrency > 1 a bounded worker pool executes cells while a
// single committer consumes their outcomes in canonical cell order, so
// the journal, the resume path, quarantine verdicts and every rendered
// table stay byte-identical to a serial run at any worker count —
// parallelism changes wall-clock time and nothing else. A free worker
// takes the lowest pending cell of a point that has already returned a
// cell, else the first cell of the lowest point no worker has started,
// else the lowest pending cell (Pool). One worker thus runs the
// canonical order; several simulate different points at once, and a
// simulated point's other cells run before another point starts, so
// they are journaled as soon as the points before them are.
package campaign

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/journal"
	"numaperf/internal/perf"
	"numaperf/internal/probenet"
)

// DefaultMaxRetries is the retry allowance per cell when Options leaves
// MaxRetries zero.
const DefaultMaxRetries = 2

// DefaultQuarantineAfter is the strike count at which an event is
// quarantined.
const DefaultQuarantineAfter = 3

// DefaultRunTimeout bounds one run attempt when Options leaves
// RunTimeout zero.
const DefaultRunTimeout = 30 * time.Second

// Point is one sweep setting: the parameter value and a constructor
// producing a fresh engine and body for it. Mk is called once per run
// cell with a cell-specific seed, which keeps every cell independent of
// execution order — the resume invariant. Mk may use the seed only as
// the engine's exec.Config.Seed, and the body must not depend on it: the
// runner simulates one cell's body per point and gives every other cell
// of the point a Repeat of that run on the cell's own engine.
type Point struct {
	Param float64
	Mk    func(seed int64) (*exec.Engine, func(*exec.Thread), error)
}

// Spec describes a measurement campaign: events × reps × batches per
// sweep point.
type Spec struct {
	// ParamName labels the swept parameter ("threads"); single-point
	// campaigns may leave it empty.
	ParamName string
	Points    []Point
	Events    []counters.EventID
	Reps      int
	Mode      perf.Mode
	// Seed is the campaign base seed; cell i measures with Seed+i+1.
	Seed int64
}

// Options tunes the runner's supervision and persistence.
type Options struct {
	// RunTimeout bounds one run attempt (0 = DefaultRunTimeout,
	// negative = no wall clock).
	RunTimeout time.Duration
	// OpBudget caps simulated operations per run; 0 = unlimited. A
	// budget abort is deterministic and therefore never retried.
	OpBudget uint64
	// MaxRetries is the per-cell retry allowance (0 =
	// DefaultMaxRetries, negative = no retries).
	MaxRetries int
	// KeepGoing records a typed gap for a cell whose retries are
	// exhausted and continues; without it the campaign aborts with a
	// *CampaignError (the journal keeping everything completed so far).
	KeepGoing bool
	// Concurrency is the number of cells measured at once (≤ 1 =
	// serial). Workers take cells by Pool's rule, with each sweep point
	// a group: one worker runs the canonical order, and several start
	// different points at once but run out a simulated point's cells
	// before starting another. Every cell runs on its own engine and
	// outcomes are committed in canonical cell order by a single
	// goroutine, so the journal, resume behaviour, quarantine verdicts
	// and every rendered table are byte-identical at any setting — only
	// wall-clock time changes. Each cell's retry backoff is seeded
	// BackoffSeed + cell ordinal, keeping retry delays reproducible
	// regardless of worker scheduling.
	Concurrency int
	// JournalPath enables the crash journal; empty runs in memory only.
	JournalPath string
	// JournalSegmentBytes rotates the journal into checkpointed
	// segments (JournalPath.000001, …) once the live tail passes this
	// many bytes, keeping resume cost O(tail) instead of O(history).
	// Zero keeps the journal in one file. A one-file journal resumed
	// with rotation enabled is checkpointed into JournalPath.000001
	// crash-safely.
	JournalSegmentBytes int
	// StrictJournal fails the campaign with ErrJournalDegraded on any
	// journal disk fault (ENOSPC, fsync failure, …). Without it the
	// campaign finishes in memory and the report is marked
	// JournalDegraded — results intact, resume guarantee honestly lost.
	StrictJournal bool
	// JournalFS overrides the filesystem under the journal; nil is the
	// real one. internal/faultdisk scripts disk faults through this.
	JournalFS journal.FS
	// Resume loads an existing journal and skips its completed cells.
	// Without Resume, a non-empty journal is an error, never silently
	// overwritten.
	Resume bool
	// BackoffSeed seeds the deterministic retry backoff (probenet's
	// default base and cap).
	BackoffSeed int64
	// Sleep replaces time.Sleep in tests.
	Sleep func(time.Duration)
	// Wrap decorates the cell run function; the faultrun package uses
	// this to inject scripted run-level faults. The function it wraps is
	// the one that shares a point's simulation between the point's
	// cells, so a wrapper still sees, and may fault, every cell.
	Wrap Middleware
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Cell identifies one run: a (point, repetition, batch) coordinate plus
// its global ordinal, which seeds the cell's engine.
type Cell struct {
	Point int
	Rep   int
	Batch int
	Index int
	Param float64
}

// Key is the cell's journal identity.
func (c Cell) Key() string { return fmt.Sprintf("p%d/r%d/b%d", c.Point, c.Rep, c.Batch) }

// RunFunc executes one measurement run for a cell and returns the
// per-event values it observed.
type RunFunc func(Cell) (map[counters.EventID]float64, error)

// Middleware wraps a RunFunc — the seam where faultrun injects faults.
// Under Concurrency > 1 the wrapped RunFunc is called from multiple
// pool workers at once and must be safe for concurrent use.
type Middleware func(RunFunc) RunFunc

// cellOutcome is what a pool worker hands the committer for one
// executed cell, beside the cell's final error.
type cellOutcome struct {
	samples  map[counters.EventID]float64
	attempts int
}

// Gap is a typed hole in the campaign's data: a cell that was given up
// on, and the events that consequently lack one sample each.
type Gap struct {
	Cell   Cell
	Events []counters.EventID
	Reason string
}

// Quarantine reports a counter removed from the results because its
// runs repeatedly failed or returned impossible values.
type Quarantine struct {
	Event   counters.EventID
	Name    string
	Strikes int
	Reason  string
}

// PointResult is the assembled measurement of one sweep point.
type PointResult struct {
	Param float64
	M     *perf.Measurement
}

// Report is the outcome of a campaign: per-point measurements plus a
// faithful account of everything that went wrong.
type Report struct {
	ParamName   string
	Points      []PointResult
	Gaps        []Gap
	Quarantined []Quarantine
	// Cells counts the campaign's run cells; Ran of them executed this
	// session, Replayed came from the journal, Retried counts extra
	// attempts beyond each cell's first.
	Cells, Ran, Replayed, Retried int
	// Truncated records that a torn final journal record was dropped
	// during resume (the expected signature of a crash mid-write).
	Truncated bool
	// JournalDegraded records that a disk fault cost this run its
	// journal mid-campaign: the results are complete (finished in
	// memory) but crash-resume protection was lost. JournalFault names
	// the fault.
	JournalDegraded bool
	JournalFault    string
}

// Complete reports whether the campaign lost no cell and quarantined no
// counter. A complete campaign's point can still be Partial: a screened
// value, or a multiplexed run too short to give every group a quantum,
// leaves an event with fewer than Reps samples.
func (r *Report) Complete() bool { return len(r.Gaps) == 0 && len(r.Quarantined) == 0 }

// Summary renders the supervision outcome for humans: cell accounting,
// gaps and quarantine verdicts, and, when there are neither, the points
// whose measurement is still partial.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign: %d cells (%d run, %d replayed from journal, %d retries)\n",
		r.Cells, r.Ran, r.Replayed, r.Retried)
	if r.Truncated {
		sb.WriteString("campaign: dropped a torn final journal record (crash mid-write)\n")
	}
	if r.JournalDegraded {
		fmt.Fprintf(&sb, "campaign: JOURNAL DEGRADED (%s) — crash-resume protection lost\n", r.JournalFault)
	}
	for _, g := range r.Gaps {
		fmt.Fprintf(&sb, "gap: cell %s (%s=%g): %s (%d events unsampled)\n",
			g.Cell.Key(), r.ParamName, g.Cell.Param, g.Reason, len(g.Events))
	}
	for _, q := range r.Quarantined {
		fmt.Fprintf(&sb, "quarantined: %s after %d strikes: %s\n", q.Name, q.Strikes, q.Reason)
	}
	if !r.Complete() {
		return sb.String()
	}
	partial := false
	for _, p := range r.Points {
		if !p.M.Partial {
			continue
		}
		partial = true
		short := 0
		for _, s := range p.M.Samples {
			if len(s) < p.M.Reps {
				short++
			}
		}
		fmt.Fprintf(&sb, "partial: %s=%g: %d of %d events carry fewer than %d samples\n",
			r.ParamName, p.Param, short, len(p.M.Samples), p.M.Reps)
	}
	if !partial {
		sb.WriteString("campaign: complete, no gaps, no quarantined counters\n")
	}
	return sb.String()
}

// Runner executes a Spec under Options.
type Runner struct {
	Spec Spec
	Opts Options
}

// pointPlan is the cell decomposition of one sweep point.
type pointPlan struct {
	batches int
	visible func(b int) []counters.EventID
}

func (r *Runner) validate() error {
	if len(r.Spec.Points) == 0 {
		return errors.New("campaign: no sweep points")
	}
	if len(r.Spec.Events) == 0 {
		return errors.New("campaign: no events requested")
	}
	if r.Spec.Reps <= 0 {
		return errors.New("campaign: need at least one repetition")
	}
	switch r.Spec.Mode {
	case perf.Batched, perf.Multiplexed, perf.Unlimited:
	default:
		return fmt.Errorf("campaign: unknown mode %v", r.Spec.Mode)
	}
	for i, p := range r.Spec.Points {
		if p.Mk == nil {
			return fmt.Errorf("campaign: point %d has no engine constructor", i)
		}
	}
	return nil
}

// plan builds the per-point cell decomposition. Batched mode needs one
// probe engine per point to learn the register budget; other modes run
// one whole-event-set cell per repetition.
func (r *Runner) plan() ([]pointPlan, error) {
	plans := make([]pointPlan, len(r.Spec.Points))
	for i, p := range r.Spec.Points {
		if r.Spec.Mode != perf.Batched {
			all := append([]counters.EventID(nil), r.Spec.Events...)
			plans[i] = pointPlan{batches: 1, visible: func(int) []counters.EventID { return all }}
			continue
		}
		e, _, err := p.Mk(r.Spec.Seed)
		if err != nil {
			return nil, fmt.Errorf("campaign: planning point %d: %w", i, err)
		}
		bp := perf.PlanBatches(e, r.Spec.Events)
		plans[i] = pointPlan{batches: bp.Batches(), visible: bp.Visible}
	}
	return plans, nil
}

// cells enumerates the campaign's run cells in their canonical order:
// points outermost, then repetitions, then register batches.
func (r *Runner) cells(plans []pointPlan) []Cell {
	var out []Cell
	idx := 0
	for pi, p := range r.Spec.Points {
		for rep := 0; rep < r.Spec.Reps; rep++ {
			for b := 0; b < plans[pi].batches; b++ {
				out = append(out, Cell{Point: pi, Rep: rep, Batch: b, Index: idx, Param: p.Param})
				idx++
			}
		}
	}
	return out
}

// defaultRun builds the real measurement RunFunc. Every cell builds a
// fresh engine seeded by its ordinal and reads one register batch
// (Batched) or one full repetition (Unlimited/Multiplexed) from a run on
// it. The first cell of a point to get here simulates the run; every
// later cell of the point takes its run from Repeat on its own engine,
// which draws that engine's noise and simulates nothing.
func (r *Runner) defaultRun(plans []pointPlan) RunFunc {
	memo := make([]pointRun, len(r.Spec.Points))
	return func(c Cell) (map[counters.EventID]float64, error) {
		e, body, err := r.Spec.Points[c.Point].Mk(r.Spec.Seed + int64(c.Index) + 1)
		if err != nil {
			return nil, err
		}
		if r.Opts.OpBudget > 0 {
			e.SetOpBudget(r.Opts.OpBudget)
		}
		res, mux, err := memo[c.Point].get(e, func() (*exec.Result, *perf.MuxRun, error) {
			if r.Spec.Mode != perf.Multiplexed {
				res, err := e.Run(body)
				return res, nil, err
			}
			mux, err := perf.RunMultiplexed(e, body, r.Spec.Events)
			if err != nil {
				return nil, nil, err
			}
			return mux.Result, mux, nil
		})
		if err != nil {
			return nil, err
		}
		if mux != nil {
			return mux.Read(res), nil
		}
		visible := plans[c.Point].visible(c.Batch)
		out := make(map[counters.EventID]float64, len(visible))
		for _, id := range visible {
			out[id] = float64(res.Total.Get(id))
		}
		return out, nil
	}
}

// pointRun is the one simulated run of a sweep point, or the op-budget
// abort that stops every cell of it. It keeps no other failure: the next
// cell of the point simulates again.
type pointRun struct {
	mu  sync.Mutex
	res *exec.Result
	mux *perf.MuxRun // the group samples, in Multiplexed mode
	err error
}

// get returns a cell's run and, in Multiplexed mode, the point's group
// samples: the simulated run when the cell is the point's first to get
// here, otherwise a Repeat of it on the cell's own engine e. A cell
// waits while another simulates the point.
func (p *pointRun) get(e *exec.Engine, simulate func() (*exec.Result, *perf.MuxRun, error)) (*exec.Result, *perf.MuxRun, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.err != nil:
		return nil, nil, p.err
	case p.res != nil:
		return e.Repeat(p.res), p.mux, nil
	}
	res, mux, err := simulate()
	switch {
	case err == nil:
		p.res, p.mux = res, mux
	case errors.Is(err, exec.ErrOpBudget):
		p.err = err
	}
	return res, mux, err
}

// header describes the spec for journal verification.
func (r *Runner) header() *journalHeader {
	h := &journalHeader{
		Kind:      "header",
		Version:   journalVersion,
		ParamName: r.Spec.ParamName,
		Reps:      r.Spec.Reps,
		Mode:      r.Spec.Mode.String(),
		Seed:      r.Spec.Seed,
	}
	for _, p := range r.Spec.Points {
		h.Params = append(h.Params, p.Param)
	}
	for _, id := range r.Spec.Events {
		h.Events = append(h.Events, counters.Def(id).Name)
	}
	return h
}

// strikeLog accumulates per-event evidence for quarantine decisions.
type strikeLog struct {
	count   map[counters.EventID]int
	reasons map[counters.EventID][]string
}

func newStrikeLog() *strikeLog {
	return &strikeLog{
		count:   make(map[counters.EventID]int),
		reasons: make(map[counters.EventID][]string),
	}
}

func (s *strikeLog) strike(id counters.EventID, reason string) {
	s.count[id]++
	rs := s.reasons[id]
	if len(rs) == 0 || rs[len(rs)-1] != reason {
		s.reasons[id] = append(rs, reason)
	}
}

// Run executes the campaign and returns its report. On an aborted
// campaign (KeepGoing disabled) the error is a *CampaignError and the
// journal retains every completed cell for a later resume.
func (r *Runner) Run() (*Report, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	logf := r.Opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	plans, err := r.plan()
	if err != nil {
		return nil, err
	}
	cells := r.cells(plans)

	// Journal: resume (truncating a torn tail before appending) or
	// refuse to clobber, then open for append. The writer owns the
	// header: it writes one at the head of every segment it starts.
	var state *journalState
	jnl, err := journalOwner.Open(journal.Config{
		FS: r.Opts.JournalFS, Path: r.Opts.JournalPath, Resume: r.Opts.Resume,
		Strict: r.Opts.StrictJournal, Logf: logf,
		Segments: journal.SegmentedOptions{
			SegmentBytes: r.Opts.JournalSegmentBytes,
			Version:      journalVersion,
			Header:       r.header(),
		},
		Adopt: func(generic *journal.State) (err error) {
			if state, err = convertJournal(generic, nil); err != nil {
				return err
			}
			if err := state.header.matches(r.header()); err != nil {
				return err
			}
			logf("campaign: resuming %s: %d of %d cells already journaled",
				r.Opts.JournalPath, state.completed(), len(cells))
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer jnl.Close()

	run := r.defaultRun(plans)
	if r.Opts.Wrap != nil {
		run = r.Opts.Wrap(run)
	}
	timeout := r.Opts.RunTimeout
	switch {
	case timeout == 0:
		timeout = DefaultRunTimeout
	case timeout < 0:
		timeout = 0
	}
	maxRetries := r.Opts.MaxRetries
	switch {
	case maxRetries == 0:
		maxRetries = DefaultMaxRetries
	case maxRetries < 0:
		maxRetries = 0
	}
	rep := &Report{ParamName: r.Spec.ParamName, Cells: len(cells)}
	if state != nil {
		rep.Truncated = state.truncated
	}

	// A disk fault that cost the journal is reported, never lost
	// silently.
	defer func() {
		rep.JournalFault = jnl.Fault()
		rep.JournalDegraded = rep.JournalFault != ""
	}()
	strikes := newStrikeLog()
	acc := make([]map[counters.EventID][]float64, len(r.Spec.Points))
	runsPerPoint := make([]int, len(r.Spec.Points))
	for i := range acc {
		acc[i] = make(map[counters.EventID][]float64)
	}

	record := func(c Cell, samples map[counters.EventID]float64, bad map[string]string) {
		runsPerPoint[c.Point]++
		for _, id := range plans[c.Point].visible(c.Batch) {
			if v, ok := samples[id]; ok {
				acc[c.Point][id] = append(acc[c.Point][id], v)
			}
		}
		for name, reason := range bad {
			if id, ok := counters.Lookup(name); ok {
				strikes.strike(id, reason)
			}
		}
	}
	gap := func(c Cell, reason string) {
		events := plans[c.Point].visible(c.Batch)
		rep.Gaps = append(rep.Gaps, Gap{Cell: c, Events: events, Reason: reason})
		for _, id := range events {
			strikes.strike(id, "run failed: "+reason)
		}
	}

	// Cells the journal does not already satisfy go to the worker pool,
	// grouped by sweep point: a point's first cell simulates it and its
	// later cells wait for that run, so the pool starts different points
	// on different workers and runs out a simulated point's cells before
	// it starts another (see Pool). Workers only execute; the commit loop
	// below is the sole goroutine that journals, records, strikes and
	// accounts, consuming outcomes in canonical cell order — so every
	// byte of journal and report is independent of worker count and
	// scheduling.
	var toRun []Cell
	var points []int
	for _, c := range cells {
		if state != nil {
			key := c.Key()
			if _, ok := state.cells[key]; ok {
				continue
			}
			if _, ok := state.gaps[key]; ok {
				continue
			}
		}
		toRun = append(toRun, c)
		points = append(points, c.Point)
	}
	pool := NewPool(points, r.Opts.Concurrency, func(i int) (cellOutcome, error) {
		c := toRun[i]
		// Every cell gets its own supervisor whose backoff stream is
		// seeded by the cell ordinal: retry delays depend only on the
		// cell, never on which worker ran it or in what order.
		sup := &Supervisor{
			Timeout:    timeout,
			MaxRetries: maxRetries,
			Backoff:    probenet.NewBackoff(0, 0, r.Opts.BackoffSeed+int64(c.Index)),
			Sleep:      r.Opts.Sleep,
		}
		out, attempts, err := Do(sup, func() (map[counters.EventID]float64, error) {
			return run(c)
		})
		return cellOutcome{samples: out, attempts: attempts}, err
	})
	defer pool.Stop()

	for _, c := range cells {
		key := c.Key()
		if state != nil {
			if cr, ok := state.cells[key]; ok {
				samples, err := decodeSamples(cr.Samples)
				if err != nil {
					return nil, fmt.Errorf("%w: cell %s: %v", ErrJournalMismatch, key, err)
				}
				record(c, samples, cr.Bad)
				rep.Replayed++
				continue
			}
			if gr, ok := state.gaps[key]; ok {
				gap(c, gr.Error)
				rep.Replayed++
				continue
			}
		}

		o, err := pool.Next()
		rep.Retried += o.attempts - 1
		if err != nil {
			cerr := &CellError{Cell: c, Attempts: o.attempts, Err: err}
			if !r.Opts.KeepGoing {
				// Aborting here leaves the journal a clean prefix of the
				// serial journal: later cells may have executed on other
				// workers, but none of them has been committed.
				return rep, &CampaignError{Cell: c, Err: cerr}
			}
			logf("campaign: %v (recording gap)", cerr)
			if jerr := jnl.Append(&gapRecord{Kind: "gap", Key: key, Error: cerr.Error(),
				Events: names(plans[c.Point].visible(c.Batch))}); jerr != nil {
				return rep, jerr
			}
			gap(c, cerr.Error())
			rep.Ran++
			continue
		}

		// Screen impossible values: the sample is dropped (a strike),
		// the rest of the cell is kept.
		out := o.samples
		samples := make(map[string]float64, len(out))
		bad := map[string]string{}
		for _, id := range plans[c.Point].visible(c.Batch) {
			v, ok := out[id]
			if !ok {
				continue
			}
			name := counters.Def(id).Name
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				bad[name] = (&ValueError{Event: name, Value: v}).Error()
				continue
			}
			samples[name] = v
		}
		if jerr := jnl.Append(&cellRecord{Kind: "cell", Key: key, Samples: samples, Bad: bad}); jerr != nil {
			return rep, jerr
		}
		decoded, _ := decodeSamples(samples)
		record(c, decoded, bad)
		rep.Ran++
	}

	// Quarantine verdicts: counters whose strike count crossed the
	// threshold are removed from every point and reported.
	var quarantined []counters.EventID
	for id, n := range strikes.count {
		if n >= DefaultQuarantineAfter {
			quarantined = append(quarantined, id)
		}
	}
	sort.Slice(quarantined, func(i, j int) bool { return quarantined[i] < quarantined[j] })
	for _, id := range quarantined {
		rep.Quarantined = append(rep.Quarantined, Quarantine{
			Event:   id,
			Name:    counters.Def(id).Name,
			Strikes: strikes.count[id],
			Reason:  strings.Join(strikes.reasons[id], "; "),
		})
	}

	// Assemble per-point measurements.
	for pi, p := range r.Spec.Points {
		m := &perf.Measurement{
			Samples: make(map[counters.EventID][]float64, len(r.Spec.Events)),
			Runs:    runsPerPoint[pi],
			Batches: plans[pi].batches,
			Reps:    r.Spec.Reps,
			Mode:    r.Spec.Mode,
		}
		for _, id := range r.Spec.Events {
			if contains(quarantined, id) {
				m.Partial = true
				continue
			}
			s := acc[pi][id]
			m.Samples[id] = s
			if len(s) < r.Spec.Reps {
				m.Partial = true
			}
		}
		rep.Points = append(rep.Points, PointResult{Param: p.Param, M: m})
	}
	return rep, nil
}

// decodeSamples maps journaled event names back to IDs.
func decodeSamples(in map[string]float64) (map[counters.EventID]float64, error) {
	out := make(map[counters.EventID]float64, len(in))
	for name, v := range in {
		id, ok := counters.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown event %q", name)
		}
		out[id] = v
	}
	return out, nil
}

func names(ids []counters.EventID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = counters.Def(id).Name
	}
	return out
}

func contains(ids []counters.EventID, id counters.EventID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
