package exec

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/oslite"
	"numaperf/internal/topology"
)

func newEngine(t *testing.T, threads int) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		Machine: topology.TwoSocket(),
		Threads: threads,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("missing machine must fail")
	}
	if _, err := NewEngine(Config{Machine: topology.TwoSocket(), Threads: 1000}); err == nil {
		t.Error("too many threads must fail")
	}
	e, err := NewEngine(Config{Machine: topology.TwoSocket(), Threads: 0})
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().Threads != 1 {
		t.Error("zero threads must default to 1")
	}
	if e.Config().Chunk != 4096 || e.Config().Noise != 0.004 {
		t.Errorf("defaults: %+v", e.Config())
	}
}

func TestSimpleRunCounts(t *testing.T) {
	e := newEngine(t, 1)
	res, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 16)
		for off := uint64(0); off < buf.Size; off += 4 {
			t.Load(buf.Addr(off))
		}
		t.Instr(1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Raw.Get(counters.AllLoads); got != 1<<14 {
		t.Errorf("loads = %d, want %d", got, 1<<14)
	}
	if res.Cycles == 0 || res.Seconds <= 0 {
		t.Errorf("cycles=%d seconds=%g", res.Cycles, res.Seconds)
	}
	if res.Raw.Get(counters.CPUCycles) == 0 {
		t.Error("finalized cycles missing")
	}
	if len(res.Footprint) < 2 {
		t.Errorf("footprint history: %v", res.Footprint)
	}
	if res.Threads != 1 || res.Machine == nil {
		t.Error("metadata missing")
	}
}

func TestDeterministicRawNoisyTotal(t *testing.T) {
	body := func(t *Thread) {
		buf := t.Alloc(1 << 14)
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
	}
	e := newEngine(t, 2)
	r1, err := e.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	for id := range r1.Raw {
		if r1.Raw[id] != r2.Raw[id] {
			t.Fatalf("raw counter %s differs across runs: %d vs %d",
				counters.Def(counters.EventID(id)).Name, r1.Raw[id], r2.Raw[id])
		}
	}
	if r1.Total.Get(counters.CPUCycles) == r2.Total.Get(counters.CPUCycles) {
		t.Error("noisy totals must differ across runs")
	}
	if r1.Seed == r2.Seed {
		t.Error("runs must use distinct sub-seeds")
	}
}

func TestNoiseDisabled(t *testing.T) {
	e, err := NewEngine(Config{Machine: topology.TwoSocket(), Threads: 1, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(func(t *Thread) {
		buf := t.Alloc(4096)
		t.Load(buf.Addr(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range res.Raw {
		if res.Total[id] != res.Raw[id] {
			t.Fatalf("noise-free total differs at %s", counters.Def(counters.EventID(id)).Name)
		}
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	e := newEngine(t, 4)
	var cyclesAfter [4]uint64
	_, err := e.Run(func(t *Thread) {
		// Thread 0 does much more work before the barrier.
		n := 100
		if t.ID() == 0 {
			n = 100000
		}
		t.Instr(uint64(n))
		t.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		cyclesAfter[i] = e.Sim().Cycles(e.coreOf(i))
	}
	// All threads were advanced to (at least) the slowest participant.
	for i := 1; i < 4; i++ {
		if cyclesAfter[i] < cyclesAfter[0]*9/10 {
			t.Errorf("thread %d clock %d far below thread 0's %d", i, cyclesAfter[i], cyclesAfter[0])
		}
	}
	// Barrier waits must show up as stalls on the fast threads.
	if e.Sim().CoreCounts(e.coreOf(1)).Get(counters.StallsTotal) == 0 {
		t.Error("waiting threads must accumulate stall cycles")
	}
}

func TestBarrierEmitsSyncTraffic(t *testing.T) {
	e := newEngine(t, 2)
	res, err := e.Run(func(t *Thread) {
		for i := 0; i < 10; i++ {
			t.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Raw.Get(counters.LockLoads); got != 20 {
		t.Errorf("lock loads = %d, want 20 (2 threads × 10 barriers)", got)
	}
	if res.Raw.Get(counters.CacheLockCycle) == 0 {
		t.Error("barriers must lock the L1D")
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	e, err := NewEngine(Config{
		Machine: topology.TwoSocket(),
		Threads: 2,
		Mapping: Scatter, // thread 0 → socket 0, thread 1 → socket 1
		Policy:  oslite.FirstTouch,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 20)
		for off := uint64(0); off < buf.Size; off += 4096 {
			t.Store(buf.Addr(off))
		}
		t.Barrier()
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each thread touched its own allocation: apart from the shared
	// barrier line, DRAM loads must be local.
	if remote := res.Raw.Get(counters.RemoteDRAM); remote > 4 {
		t.Errorf("first-touch private data produced %d remote loads", remote)
	}
	if res.Raw.Get(counters.LocalDRAM) == 0 {
		t.Error("no local DRAM traffic recorded")
	}
}

func TestBindPolicyForcesRemote(t *testing.T) {
	e, err := NewEngine(Config{
		Machine:  topology.TwoSocket(),
		Threads:  1,
		Policy:   oslite.Bind,
		BindNode: 1, // thread 0 runs on socket 0
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 20)
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw.Get(counters.LocalDRAM) != 0 {
		t.Errorf("bound-remote run shows %d local DRAM loads", res.Raw.Get(counters.LocalDRAM))
	}
	if res.Raw.Get(counters.RemoteDRAM) == 0 {
		t.Error("bound-remote run shows no remote DRAM loads")
	}
}

func TestPanicInBodyBecomesError(t *testing.T) {
	e := newEngine(t, 2)
	_, err := e.Run(func(t *Thread) {
		if t.ID() == 1 {
			panic("boom")
		}
		t.Instr(10)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagated", err)
	}
	// The engine must stay usable afterwards.
	if _, err := e.Run(func(t *Thread) { t.Instr(1) }); err != nil {
		t.Fatalf("engine unusable after panic: %v", err)
	}
}

func TestAllocFreeFootprint(t *testing.T) {
	e := newEngine(t, 1)
	res, err := e.Run(func(t *Thread) {
		a := t.Alloc(1 << 20)
		t.Instr(10000)
		b := t.Alloc(1 << 20)
		t.Instr(10000)
		t.Free(a)
		t.Instr(10000)
		_ = b
	})
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	for _, s := range res.Footprint {
		if s.Bytes > peak {
			peak = s.Bytes
		}
	}
	if peak < 2<<20 {
		t.Errorf("peak footprint = %d, want ≥ 2 MiB", peak)
	}
	last := res.Footprint[len(res.Footprint)-1]
	if last.Bytes >= peak {
		t.Error("free must shrink the footprint")
	}
}

func TestMovePagesThroughThread(t *testing.T) {
	e, err := NewEngine(Config{Machine: topology.TwoSocket(), Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 18)
		for off := uint64(0); off < buf.Size; off += 4096 {
			t.Store(buf.Addr(off)) // first touch: node 0
		}
		t.MovePages(buf, 1)
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw.Get(counters.RemoteDRAM) == 0 {
		t.Error("after MovePages to node 1, loads must be remote")
	}
}

func TestScatterMapping(t *testing.T) {
	e, err := NewEngine(Config{Machine: topology.TwoSocket(), Threads: 4, Mapping: Scatter})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[int]int{}
	for i := 0; i < 4; i++ {
		nodes[e.cfg.Machine.NodeOfCore(e.coreOf(i))]++
	}
	if nodes[0] != 2 || nodes[1] != 2 {
		t.Errorf("scatter distribution = %v, want 2 per socket", nodes)
	}
	if Compact.String() != "compact" || Scatter.String() != "scatter" {
		t.Error("mapping names")
	}
}

func TestPostChunkHook(t *testing.T) {
	e := newEngine(t, 1)
	calls := 0
	e.SetPostChunkHook(func() { calls++ })
	_, err := e.Run(func(t *Thread) {
		for i := 0; i < 10000; i++ { // > 2 chunks of 4096
			t.Instr(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Errorf("hook called %d times, want ≥ 2", calls)
	}
	e.SetPostChunkHook(nil)
}

func TestBranchThroughEngine(t *testing.T) {
	e := newEngine(t, 1)
	res, err := e.Run(func(t *Thread) {
		for i := 0; i < 500; i++ {
			t.Branch(7, true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw.Get(counters.BranchRetired) != 500 {
		t.Errorf("branches = %d", res.Raw.Get(counters.BranchRetired))
	}
	if res.Raw.Get(counters.BranchMiss) > 5 {
		t.Errorf("biased branch misses = %d", res.Raw.Get(counters.BranchMiss))
	}
}

func TestThreadMetadata(t *testing.T) {
	e := newEngine(t, 2)
	_, err := e.Run(func(t *Thread) {
		if t.ID() < 0 || t.ID() >= t.Threads() {
			panic("bad ID")
		}
		if t.Threads() != 2 {
			panic("bad team size")
		}
		if t.Node() != e.cfg.Machine.NodeOfCore(t.Core()) {
			panic("node/core mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocFailurePropagates(t *testing.T) {
	e := newEngine(t, 1)
	_, err := e.Run(func(t *Thread) {
		t.Alloc(1 << 62) // exceeds simulated DRAM
	})
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("err = %v, want out-of-memory panic", err)
	}
}

func TestSoftwareEvents(t *testing.T) {
	e := newEngine(t, 2)
	res, err := e.Run(func(t *Thread) {
		if t.ID() == 0 {
			buf := t.Alloc(16 * 4096)
			for off := uint64(0); off < buf.Size; off += 4096 {
				t.Store(buf.Addr(off)) // one fault per page
			}
		}
		t.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 16 data pages + the engine's sync page.
	if got := res.Raw.Get(counters.SWPageFaults); got != 17 {
		t.Errorf("page faults = %d, want 17", got)
	}
	if got := res.Raw.Get(counters.SWAllocCalls); got != 1 {
		t.Errorf("alloc calls = %d, want 1", got)
	}
	if got := res.Raw.Get(counters.SWBarrierWaits); got != 2 {
		t.Errorf("barrier waits = %d, want 2 (one per thread)", got)
	}
}

// Invariant: the raw total equals the sum of per-core and uncore
// vectors — counters are conserved in aggregation.
func TestRawAggregationInvariant(t *testing.T) {
	e := newEngine(t, 3)
	res, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 16)
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
		t.Branch(1, t.ID()%2 == 0)
		t.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := counters.NewCounts()
	for _, pc := range res.PerCore {
		sum.Add(pc)
	}
	for _, u := range res.Uncore {
		sum.Add(u)
	}
	for id := range res.Raw {
		if sum[id] != res.Raw[id] {
			t.Errorf("event %s: per-core+uncore sum %d != raw total %d",
				counters.Def(counters.EventID(id)).Name, sum[id], res.Raw[id])
		}
	}
}

func TestOpBudgetAbortsRun(t *testing.T) {
	e := newEngine(t, 1)
	e.SetOpBudget(100)
	_, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 16)
		for off := uint64(0); off < buf.Size; off += 4 {
			t.Load(buf.Addr(off))
		}
	})
	if !errors.Is(err, ErrOpBudget) {
		t.Fatalf("err = %v, want ErrOpBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Budget != 100 || be.Ops <= be.Budget {
		t.Errorf("budget error = %+v", err)
	}

	// Clearing the budget restores the engine to full service.
	e.SetOpBudget(0)
	res, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 12)
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
	})
	if err != nil || res == nil {
		t.Fatalf("engine unusable after budget abort: %v", err)
	}
}

// TestOpBudgetDrainsParkedThreads aborts a run while sibling threads
// wait at a barrier and while the over-budget thread keeps allocating;
// Run must return the typed error promptly instead of deadlocking.
func TestOpBudgetDrainsParkedThreads(t *testing.T) {
	e := newEngine(t, 4)
	e.SetOpBudget(5000)
	_, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 16)
		for pass := 0; pass < 4; pass++ {
			for off := uint64(0); off < buf.Size; off += 4 {
				t.Load(buf.Addr(off))
			}
			t.Barrier()
			// Post-abort allocations are refused with the budget error,
			// which surfaces in the body as a panic the drain absorbs.
			t.Alloc(1 << 10)
		}
	})
	if !errors.Is(err, ErrOpBudget) {
		t.Fatalf("err = %v, want ErrOpBudget", err)
	}
}

// TestAbandonedRunThenReuse runs again on an engine whose last run its
// op budget stopped. The stopped body keeps emitting, drained in the
// background, until the second run has returned, so the two runs must
// not share op buffers: under -race a shared buffer is a reported race,
// and without it a chunk overwritten mid-simulation shows in the counts.
func TestAbandonedRunThenReuse(t *testing.T) {
	e := newEngine(t, 1)
	e.SetOpBudget(100)
	var stop atomic.Bool
	defer stop.Store(true)
	stopped := make(chan struct{})
	_, err := e.Run(func(t *Thread) {
		defer close(stopped)
		buf := t.Alloc(1 << 16)
		for off := uint64(0); !stop.Load(); off = (off + 64) % buf.Size {
			t.Store(buf.Addr(off))
		}
	})
	if !errors.Is(err, ErrOpBudget) {
		t.Fatalf("err = %v, want ErrOpBudget", err)
	}
	e.SetOpBudget(0)
	got, err := e.Run(scanBody)
	stop.Store(true)
	<-stopped
	if err != nil {
		t.Fatalf("run after the budget abort: %v", err)
	}
	want, err := newEngine(t, 1).Run(scanBody)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Raw, want.Raw) || got.Cycles != want.Cycles {
		t.Errorf("run after the budget abort counted %d loads, %d stores in %d cycles; a fresh engine %d, %d in %d",
			got.Raw[counters.AllLoads], got.Raw[counters.AllStores], got.Cycles,
			want.Raw[counters.AllLoads], want.Raw[counters.AllStores], want.Cycles)
	}
}

// TestAbandonedRegionsThenReuse is TestAbandonedRunThenReuse for the
// rest of a run's state that its body reads: the stopped body keeps
// opening regions and meeting barriers until the second run has
// returned, so it must intern its names in its own run's table and read
// its own run's barrier address. Under -race a shared table or address
// is a reported race; the second run's regions must be a fresh
// engine's.
func TestAbandonedRegionsThenReuse(t *testing.T) {
	e := newEngine(t, 1)
	e.SetOpBudget(100)
	var stop atomic.Bool
	defer stop.Store(true)
	stopped := make(chan struct{})
	_, err := e.Run(func(t *Thread) {
		defer close(stopped)
		for !stop.Load() {
			t.Begin("stale")
			t.Instr(1)
			t.End()
			t.Barrier()
		}
	})
	if !errors.Is(err, ErrOpBudget) {
		t.Fatalf("err = %v, want ErrOpBudget", err)
	}
	body := func(t *Thread) {
		buf := t.Alloc(16 << 10)
		t.Begin("scan")
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
		t.End()
		t.Barrier()
	}
	e.SetOpBudget(0)
	got, err := e.Run(body)
	stop.Store(true)
	<-stopped
	if err != nil {
		t.Fatalf("run after the budget abort: %v", err)
	}
	want, err := newEngine(t, 1).Run(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Regions, want.Regions) {
		t.Errorf("run after the budget abort has regions %v, a fresh engine %v", regionNames(got), regionNames(want))
	}
}

func regionNames(r *Result) []string {
	var out []string
	for name := range r.Regions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func TestOpBudgetZeroMeansUnlimited(t *testing.T) {
	e := newEngine(t, 1)
	e.SetOpBudget(0)
	if _, err := e.Run(func(t *Thread) {
		buf := t.Alloc(1 << 16)
		for off := uint64(0); off < buf.Size; off += 4 {
			t.Load(buf.Addr(off))
		}
	}); err != nil {
		t.Fatalf("unlimited run failed: %v", err)
	}
}
