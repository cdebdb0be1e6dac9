package exec

import (
	"errors"
	"fmt"
	"math/rand"

	"numaperf/internal/counters"
	"numaperf/internal/memsim"
	"numaperf/internal/oslite"
	"numaperf/internal/topology"
)

// Mapping selects how threads are pinned to cores.
type Mapping int

const (
	// Compact fills one socket before using the next (threads 0..17 on
	// socket 0 of the DL580, and so on).
	Compact Mapping = iota
	// Scatter distributes threads round-robin across sockets.
	Scatter
)

// String names the mapping.
func (m Mapping) String() string {
	if m == Scatter {
		return "scatter"
	}
	return "compact"
}

// Config parameterises an Engine.
type Config struct {
	Machine  *topology.Machine
	Threads  int
	Policy   oslite.Policy
	BindNode int     // used with oslite.Bind
	Mapping  Mapping // thread pinning
	Seed     int64   // measurement-noise seed; runs derive sub-seeds
	Noise    float64 // relative counter noise σ; default 0.004, negative disables
	Chunk    int     // ops per scheduling quantum; default 4096
}

type threadState int

const (
	running threadState = iota
	atBarrier
	done
)

type threadInfo struct {
	t     *Thread
	state threadState
}

// ErrOpBudget marks a run aborted because it exceeded the engine's
// per-run operation budget (see SetOpBudget). Campaign supervisors use
// it to distinguish a runaway workload from a transient failure: the
// simulator is deterministic, so re-running the same cell would exceed
// the budget again.
var ErrOpBudget = errors.New("exec: op budget exceeded")

// BudgetError reports how far past the budget a run got before being
// aborted. It unwraps to ErrOpBudget.
type BudgetError struct {
	Ops    uint64 // operations simulated when the run was aborted
	Budget uint64 // the configured limit
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("exec: op budget exceeded: %d ops simulated, budget %d", e.Ops, e.Budget)
}

func (e *BudgetError) Unwrap() error { return ErrOpBudget }

// Engine executes workload bodies on a simulated machine.
type Engine struct {
	cfg       Config
	sim       *memsim.Sim
	proc      *oslite.Process
	chunkSize int
	runs      int64
	hook      func()
	opBudget  uint64
	opCount   uint64

	// Per-run region attribution (see regions.go). The run's region
	// table belongs to its threads, so a body still draining after a
	// budget abort never touches the next run's.
	regionStates []*regionState
	regionAggs   []*RegionProfile

	// opBufs are each thread's two op buffers (Thread.ops and .spare),
	// kept across runs and allocated by the first run that needs them;
	// abandon drops them.
	opBufs [][2][]Op
	// noise draws each run's measurement noise (see applyNoise).
	noise *rand.Rand
}

// NewEngine validates the configuration and builds the simulator.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Machine == nil {
		return nil, errors.New("exec: no machine configured")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Threads > cfg.Machine.Cores() {
		return nil, fmt.Errorf("exec: %d threads exceed %d cores", cfg.Threads, cfg.Machine.Cores())
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 4096
	}
	if cfg.Noise == 0 {
		// Calibrated to the run-to-run variation of large counters on a
		// quiesced machine (a few tenths of a percent).
		cfg.Noise = 0.004
	}
	sim, err := memsim.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, sim: sim, chunkSize: cfg.Chunk}, nil
}

// Reseed returns an idle engine, one whose last Run returned nil, to
// the state NewEngine builds for its configuration with the given seed:
// the run ordinal (and with it the noise sub-seeds) and the op count
// restart, the op budget, post-chunk hook, load observer, process and
// region attribution are cleared, and the simulator is reset but keeps
// its allocations, as the engine keeps its op buffers and noise
// generator. Its runs then match a fresh engine's. After a failed Run,
// body goroutines may still be draining into the engine (see abandon),
// so such an engine is not idle.
func (e *Engine) Reseed(seed int64) {
	e.cfg.Seed = seed
	e.runs, e.opBudget, e.opCount = 0, 0, 0
	e.hook = nil
	e.sim.SetLoadObserver(nil)
	e.sim.Reset()
	e.proc = nil
	e.regionStates, e.regionAggs = nil, nil
}

// Sim exposes the underlying simulator (the perf layer reads counters
// and cycle clocks through it).
func (e *Engine) Sim() *memsim.Sim { return e.sim }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Proc returns the process of the current (or last) run.
func (e *Engine) Proc() *oslite.Process { return e.proc }

// SetPostChunkHook installs a callback invoked after every simulated
// chunk; the perf layer uses it for time-sliced sampling. Pass nil to
// clear.
func (e *Engine) SetPostChunkHook(h func()) { e.hook = h }

// SetOpBudget caps the number of operations a single Run may simulate;
// 0 (the default) means unlimited. A run crossing the budget is aborted
// with a BudgetError: remaining thread output is drained in the
// background, allocation requests fail, and barriers release
// immediately, so Run returns promptly even for runaway bodies. The
// campaign layer uses this as the deterministic half of its run
// supervision (wall-clock timeouts being the other half).
func (e *Engine) SetOpBudget(n uint64) { e.opBudget = n }

// OpBudget returns the per-run operation cap set via SetOpBudget;
// 0 means unlimited. The perf layer uses it to pre-size sample
// buffers for budgeted runs.
func (e *Engine) OpBudget() uint64 { return e.opBudget }

// coreOf maps a thread index to a core per the configured mapping.
func (e *Engine) coreOf(tid int) int {
	m := e.cfg.Machine
	if e.cfg.Mapping == Scatter {
		sock := tid % m.Sockets
		idx := tid / m.Sockets
		return m.CoreOfNode(sock, idx)
	}
	return tid
}

// Run executes body once on every thread and returns the measured
// counters. Run can be called repeatedly; each run starts from cold
// caches and a fresh address space and uses a distinct noise sub-seed,
// which is what makes repeated runs statistically meaningful for
// EvSel's t-tests. Repeat returns the next run of the same body without
// simulating it again.
func (e *Engine) Run(body func(t *Thread)) (res *Result, err error) {
	e.runs++
	e.opCount = 0
	e.sim.Reset()
	e.proc, err = oslite.NewProcess(e.cfg.Machine, e.cfg.Policy, e.cfg.BindNode)
	if err != nil {
		return nil, err
	}
	syncBuf, err := e.proc.Alloc(128, 0)
	if err != nil {
		return nil, err
	}
	regions := newRegionTable()
	e.regionAggs = nil
	e.regionStates = make([]*regionState, e.cfg.Threads)
	for i := range e.regionStates {
		e.regionStates[i] = &regionState{snap: counters.NewCounts()}
	}

	if e.opBufs == nil {
		e.opBufs = make([][2][]Op, e.cfg.Threads)
		for i := range e.opBufs {
			e.opBufs[i] = [2][]Op{make([]Op, 0, e.chunkSize), make([]Op, 0, e.chunkSize)}
		}
	}
	threads := make([]*threadInfo, e.cfg.Threads)
	for i := range threads {
		core := e.coreOf(i)
		t := &Thread{
			id:          i,
			core:        core,
			node:        e.cfg.Machine.NodeOfCore(core),
			threads:     e.cfg.Threads,
			e:           e,
			regions:     regions,
			barrierAddr: syncBuf.Base,
			ops:         e.opBufs[i][0][:0],
			spare:       e.opBufs[i][1][:0],
			ch:          make(chan chunk),
			reply:       make(chan ctlReply),
		}
		threads[i] = &threadInfo{t: t}
		go func(t *Thread) {
			defer func() {
				if r := recover(); r != nil {
					t.ch <- chunk{ctl: ctlPanic, err: fmt.Errorf("thread %d: %v", t.id, r)}
					return
				}
				t.ch <- chunk{ops: t.ops, ctl: ctlDone}
			}()
			body(t)
		}(t)
	}

	var runErr error
	live := len(threads)
	for live > 0 {
		for _, ti := range threads {
			if ti.state != running {
				continue
			}
			c := <-ti.t.ch
			e.opCount += uint64(len(c.ops))
			if e.opBudget > 0 && e.opCount > e.opBudget {
				e.abandon(threads, ti, c)
				return nil, &BudgetError{Ops: e.opCount, Budget: e.opBudget}
			}
			e.simulate(ti.t, c.ops)
			switch c.ctl {
			case ctlNone:
				// plain chunk, thread keeps producing
			case ctlAlloc:
				buf, aerr := e.proc.Alloc(c.size, e.sim.Cycles(ti.t.core))
				e.sim.AddEvent(ti.t.core, counters.SWAllocCalls, 1)
				ti.t.reply <- ctlReply{buf: buf, err: aerr}
			case ctlFree:
				e.proc.Free(c.buf, e.sim.Cycles(ti.t.core))
				ti.t.reply <- ctlReply{}
			case ctlMove:
				ti.t.reply <- ctlReply{err: e.proc.MovePages(c.buf, c.node)}
			case ctlBarrier:
				e.sim.AddEvent(ti.t.core, counters.SWBarrierWaits, 1)
				ti.state = atBarrier
			case ctlDone:
				ti.state = done
				live--
			case ctlPanic:
				if runErr == nil {
					runErr = c.err
				}
				ti.state = done
				live--
			}
			e.releaseBarrierIfReady(threads)
		}
	}

	if runErr != nil {
		return nil, runErr
	}
	profiles := e.collectRegions(threads, regions)
	e.sim.Finalize()
	res = e.collect()
	res.Regions = profiles
	return res, nil
}

// Repeat returns what one more Run of the body that produced prev would
// return, without simulating it. A body emits the same operations on
// every run (see the package doc), so a run differs from the one
// before it only in its noise: Repeat advances the run ordinal, takes
// the next sub-seed as Seed and draws Total from prev.Raw with it. The
// exact fields (Raw, PerCore, Uncore, Cycles, Seconds, Footprint,
// Regions) are prev's own, shared and read-only. No chunk is
// simulated, so neither the post-chunk hook nor the load observer
// fires, and Proc still returns the last simulated run's process. prev
// must come from this engine's Run or Repeat since its last Reseed, or
// from a run of the same body on an engine whose configuration differs
// only in Seed: the exact fields do not depend on the seed, so Repeat
// then returns what this engine's Run would. The campaign runner relies
// on that to simulate a sweep point once for all of its cells.
func (e *Engine) Repeat(prev *Result) *Result {
	e.runs++
	res := *prev
	res.Seed = e.cfg.Seed + e.runs
	res.Total = e.applyNoise(prev.Raw, res.Seed)
	return &res
}

// abandon drains every unfinished thread in the background after a
// budget abort so Run can return promptly: allocation requests fail
// (the body's Alloc panics, which ends it), frees, moves and barriers
// reply immediately, and plain chunks are discarded unsimulated. A body
// that emits operations forever keeps its drainer goroutine alive;
// callers bound that with a wall-clock timeout. The drained bodies keep
// filling their op buffers, so the engine drops them and the next run
// allocates its own.
func (e *Engine) abandon(threads []*threadInfo, cur *threadInfo, pending chunk) {
	e.opBufs = nil
	budgetErr := &BudgetError{Ops: e.opCount, Budget: e.opBudget}
	drain := func(t *Thread, c chunk, havePending bool) {
		for {
			if !havePending {
				c = <-t.ch
			}
			havePending = false
			switch c.ctl {
			case ctlAlloc:
				t.reply <- ctlReply{err: budgetErr}
			case ctlFree, ctlMove, ctlBarrier:
				t.reply <- ctlReply{}
			case ctlDone, ctlPanic:
				return
			}
		}
	}
	for _, ti := range threads {
		t := ti.t
		switch {
		case ti == cur:
			go drain(t, pending, true)
		case ti.state == atBarrier:
			// Already parked: release the barrier, then keep draining.
			go func() {
				t.reply <- ctlReply{}
				drain(t, chunk{}, false)
			}()
		case ti.state == running:
			go drain(t, chunk{}, false)
		}
	}
}

// releaseBarrierIfReady resumes all barrier-parked threads once no
// thread is still running, synchronising their clocks to the slowest
// participant (BSP superstep end).
func (e *Engine) releaseBarrierIfReady(threads []*threadInfo) {
	waiting := 0
	for _, ti := range threads {
		switch ti.state {
		case running:
			return
		case atBarrier:
			waiting++
		}
	}
	if waiting == 0 {
		return
	}
	var max uint64
	for _, ti := range threads {
		if ti.state == atBarrier {
			if c := e.sim.Cycles(ti.t.core); c > max {
				max = c
			}
		}
	}
	for _, ti := range threads {
		if ti.state == atBarrier {
			e.sim.AdvanceTo(ti.t.core, max)
			ti.state = running
			ti.t.reply <- ctlReply{}
		}
	}
}

// simulate replays one chunk of operations on the thread's core.
func (e *Engine) simulate(t *Thread, ops []Op) {
	node := t.node
	home := func(addr uint64) int {
		h, fault := e.proc.HomeNodeFault(addr, node)
		if fault {
			e.sim.AddEvent(t.core, counters.SWPageFaults, 1)
		}
		return h
	}
	for _, op := range ops {
		switch op.Kind {
		case OpLoad:
			e.sim.Load(t.core, op.Arg, home(op.Arg), false)
		case OpLoadDep:
			e.sim.Load(t.core, op.Arg, home(op.Arg), true)
		case OpStore:
			e.sim.Store(t.core, op.Arg, home(op.Arg))
		case OpAtomic:
			e.sim.Atomic(t.core, op.Arg, home(op.Arg))
		case OpInstr:
			e.sim.Instr(t.core, op.Arg)
		case OpBranch:
			e.sim.Branch(t.core, uint16(op.Arg>>1), op.Arg&1 != 0)
		case OpRegionBegin, OpRegionEnd:
			e.handleRegionOp(t, op)
		}
	}
	if e.hook != nil && len(ops) > 0 {
		e.hook()
	}
}
