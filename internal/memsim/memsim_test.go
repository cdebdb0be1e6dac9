package memsim

import (
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/topology"
)

func newSim(t *testing.T) *Sim {
	t.Helper()
	s, err := New(topology.TwoSocket())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsInvalidMachine(t *testing.T) {
	m := topology.TwoSocket()
	m.Sockets = 0
	if _, err := New(m); err == nil {
		t.Fatal("invalid machine must be rejected")
	}
}

func TestSequentialScanHitsL1AndPrefetches(t *testing.T) {
	s := newSim(t)
	const n = 64 * 1024 // 64 KiB sequential floats
	for addr := uint64(0); addr < n; addr += 4 {
		s.Load(0, addr, 0, false)
	}
	s.Finalize()
	c := s.CoreCounts(0)
	loads := c.Get(counters.AllLoads)
	l1hit := c.Get(counters.L1Hit)
	if loads != n/4 {
		t.Fatalf("loads = %d, want %d", loads, n/4)
	}
	// 16 floats per 64-byte line: at most 1/16 of loads miss L1.
	if float64(l1hit)/float64(loads) < 0.9 {
		t.Errorf("sequential L1 hit rate = %.2f, want > 0.9", float64(l1hit)/float64(loads))
	}
	if c.Get(counters.L2PFRequests) == 0 {
		t.Error("sequential scan must trigger the stream prefetcher")
	}
	if c.Get(counters.LoadHitPre) == 0 {
		t.Error("some demand loads must hit prefetched lines")
	}
	if c.Get(counters.CPUCycles) == 0 {
		t.Error("Finalize must materialise cycle counts")
	}
}

func TestStridedScanDefeatsPrefetcherAndL1(t *testing.T) {
	s := newSim(t)
	// 4 KiB stride (one page): the streamer must stay silent and every
	// access must miss L1 (all lines alias to the same L1 set).
	const rows = 512
	for r := 0; r < 4; r++ {
		for i := uint64(0); i < rows; i++ {
			s.Load(0, i*4096, 0, false)
		}
	}
	s.Finalize()
	c := s.CoreCounts(0)
	if c.Get(counters.L2PFRequests) != 0 {
		t.Errorf("page-strided scan must not prefetch, got %d requests", c.Get(counters.L2PFRequests))
	}
	missRate := float64(c.Get(counters.L1Miss)) / float64(c.Get(counters.AllLoads))
	if missRate < 0.9 {
		t.Errorf("strided L1 miss rate = %.2f, want ≈ 1", missRate)
	}
	if c.Get(counters.FBFull) == 0 {
		t.Error("strided misses must saturate the fill buffers")
	}
	if c.Get(counters.DTLBLoadMissWalk) == 0 {
		t.Error("page-strided scan must cause TLB walks")
	}
}

func TestSequentialVsStridedCycles(t *testing.T) {
	seq := newSim(t)
	for addr := uint64(0); addr < 1<<18; addr += 4 {
		seq.Load(0, addr, 0, false)
	}
	strided := newSim(t)
	// Same number of loads, page-strided.
	n := (1 << 18) / 4
	for i := 0; i < n; i++ {
		strided.Load(0, uint64(i%512)*4096+uint64(i/512)*4, 0, false)
	}
	if strided.Cycles(0) <= 2*seq.Cycles(0) {
		t.Errorf("strided run (%d cyc) must cost far more than sequential (%d cyc)",
			strided.Cycles(0), seq.Cycles(0))
	}
}

func TestLocalVsRemoteDRAM(t *testing.T) {
	s := newSim(t)
	// Page-strided loads so each access misses all caches on first
	// touch; home node 1 is remote for core 0.
	var latLocal, latRemote uint64
	for i := uint64(0); i < 256; i++ {
		latLocal += s.Load(0, i*4096, 0, false)
	}
	for i := uint64(0); i < 256; i++ {
		latRemote += s.Load(0, (1<<30)+i*4096, 1, false)
	}
	s.Finalize()
	c := s.CoreCounts(0)
	if c.Get(counters.LocalDRAM) == 0 || c.Get(counters.RemoteDRAM) == 0 {
		t.Fatalf("local=%d remote=%d, want both > 0",
			c.Get(counters.LocalDRAM), c.Get(counters.RemoteDRAM))
	}
	if latRemote <= latLocal {
		t.Errorf("remote aggregate latency %d must exceed local %d", latRemote, latLocal)
	}
	// Remote accesses must generate QPI traffic on both sockets and
	// remote-read accounting at the home IMC.
	if s.UncoreCounts(0).Get(counters.UncQPITx) == 0 ||
		s.UncoreCounts(1).Get(counters.UncQPIRx) == 0 {
		t.Error("remote access must produce QPI flits")
	}
	if s.UncoreCounts(1).Get(counters.UncIMCRemoteRd) == 0 {
		t.Error("home IMC must count remote reads")
	}
	if s.UncoreCounts(0).Get(counters.UncIMCRemoteRd) != 0 {
		t.Error("local socket must not count remote reads for its own cores")
	}
}

func TestDependentChaseSeesFullLatency(t *testing.T) {
	s := newSim(t)
	m := s.Machine()
	// Cold page-strided dependent loads: latency must be at least the
	// local DRAM latency, every time.
	for i := uint64(0); i < 64; i++ {
		lat := s.Load(0, i*4096, 0, true)
		if lat < m.MemLatency {
			t.Fatalf("dependent cold load latency %d below DRAM latency %d", lat, m.MemLatency)
		}
	}
	// Independent loads overlap: cycles advance slower than the sum of
	// latencies.
	s2 := newSim(t)
	var total uint64
	for i := uint64(0); i < 64; i++ {
		total += s2.Load(0, i*4096, 0, false)
	}
	if s2.Cycles(0) >= total {
		t.Errorf("independent misses must overlap: cycles=%d latencies=%d", s2.Cycles(0), total)
	}
}

func TestHitLFB(t *testing.T) {
	s := newSim(t)
	// Warm the TLB so the misses below issue back to back.
	for i := uint64(0); i < 9; i++ {
		s.Load(0, i*4096+64, 0, false)
	}
	s.Instr(0, 10000) // drain the warm-up fills
	// Fill one L1 set (8 ways) and keep misses outstanding, then
	// re-touch the first line: it has been evicted from L1 but its fill
	// is still pending, so the load must hit the fill buffer.
	for i := uint64(0); i < 9; i++ {
		s.Load(0, i*4096, 0, false) // all alias to L1 set 0
	}
	before := s.CoreCounts(0).Get(counters.HitLFB)
	s.Load(0, 0, 0, false)
	if got := s.CoreCounts(0).Get(counters.HitLFB); got <= before {
		t.Errorf("HIT_LFB = %d, want > %d", got, before)
	}
}

func TestL2HitAfterEviction(t *testing.T) {
	s := newSim(t)
	// Touch 16 lines aliasing to one L1 set; first 8 are evicted from
	// L1 but stay in L2 (different L2 sets). Wait out the fills, then
	// reload line 0: L2 hit.
	for i := uint64(0); i < 16; i++ {
		s.Load(0, i*4096, 0, false)
	}
	s.Instr(0, 100000) // drain pending fills
	s.Load(0, 0, 0, false)
	c := s.CoreCounts(0)
	if c.Get(counters.L2Hit) == 0 {
		t.Error("reload after L1 eviction must hit L2")
	}
}

func TestBranchPrediction(t *testing.T) {
	s := newSim(t)
	// A heavily biased branch is learned quickly.
	for i := 0; i < 1000; i++ {
		s.Branch(0, 1, true)
	}
	c := s.CoreCounts(0)
	if miss := c.Get(counters.BranchMiss); miss > 5 {
		t.Errorf("biased branch misses = %d, want ≤ 5", miss)
	}
	if c.Get(counters.BranchRetired) != 1000 {
		t.Errorf("retired = %d", c.Get(counters.BranchRetired))
	}
	// Speculative taken jumps ≈ 2 per correctly predicted taken branch.
	if spec := c.Get(counters.SpecTakenJumps); spec < 1900 {
		t.Errorf("spec taken jumps = %d, want ≈ 2000", spec)
	}

	// A pseudo-random branch mispredicts often and speculates less.
	s2 := newSim(t)
	lcg := uint32(1)
	for i := 0; i < 1000; i++ {
		lcg = lcg*1103515245 + 12345
		s2.Branch(0, 2, lcg&0x10000 != 0)
	}
	c2 := s2.CoreCounts(0)
	if miss := c2.Get(counters.BranchMiss); miss < 200 {
		t.Errorf("random branch misses = %d, want ≥ 200", miss)
	}
	if c2.Get(counters.SpecTakenJumps) >= c.Get(counters.SpecTakenJumps) {
		t.Error("unpredictable branches must speculate fewer jumps")
	}
}

func TestAtomicsLockL1D(t *testing.T) {
	s := newSim(t)
	for i := 0; i < 100; i++ {
		s.Atomic(0, 64, 0)
	}
	c := s.CoreCounts(0)
	if c.Get(counters.LockLoads) != 100 {
		t.Errorf("lock loads = %d", c.Get(counters.LockLoads))
	}
	if c.Get(counters.CacheLockCycle) < 100*AtomicLockCycles {
		t.Errorf("lock cycles = %d", c.Get(counters.CacheLockCycle))
	}
}

func TestContendedAtomicsCauseMachineClears(t *testing.T) {
	s := newSim(t)
	// Cores 0 and 1 are on the same socket and ping-pong one line.
	for i := 0; i < 64; i++ {
		s.Atomic(0, 128, 0)
		s.Atomic(1, 128, 0)
	}
	total := s.CoreCounts(0).Get(counters.MachineClearsMO) +
		s.CoreCounts(1).Get(counters.MachineClearsMO)
	if total == 0 {
		t.Error("contended atomics must trigger memory-ordering clears")
	}
	// Uncontended atomics on a private line must not.
	s2 := newSim(t)
	for i := 0; i < 64; i++ {
		s2.Atomic(0, 128, 0)
	}
	if s2.CoreCounts(0).Get(counters.MachineClearsMO) != 0 {
		t.Error("private atomics must not clear")
	}
}

func TestCrossCoreSharingPenalty(t *testing.T) {
	s := newSim(t)
	// Core 0 writes a line; core 1 (same socket) reads it from L3 with
	// the cache-to-cache penalty on top of the L3 latency.
	s.Store(0, 4096, 0)
	s.Instr(0, 100000)
	lat := s.Load(1, 4096, 0, true)
	l3, _ := s.Machine().Cache(3)
	if lat < l3.LatencyCycles+CacheToCachePenalty {
		t.Errorf("shared-line load latency %d, want ≥ %d", lat, l3.LatencyCycles+CacheToCachePenalty)
	}
}

func TestInstrAdvancesClockSuperscalar(t *testing.T) {
	s := newSim(t)
	s.Instr(0, 1000)
	if c := s.Cycles(0); c != 500 {
		t.Errorf("1000 instructions took %d cycles, want 500", c)
	}
	s.Finalize()
	if got := s.CoreCounts(0).Get(counters.InstRetired); got != 1000 {
		t.Errorf("instructions = %d", got)
	}
}

func TestAdvanceTo(t *testing.T) {
	s := newSim(t)
	s.AdvanceTo(0, 1000)
	if s.Cycles(0) != 1000 {
		t.Errorf("cycle = %d", s.Cycles(0))
	}
	s.AdvanceTo(0, 500) // must not move backwards
	if s.Cycles(0) != 1000 {
		t.Errorf("clock moved backwards to %d", s.Cycles(0))
	}
}

func TestStoresCountAndDirty(t *testing.T) {
	s := newSim(t)
	for i := uint64(0); i < 1024; i++ {
		s.Store(0, i*64, 0)
	}
	s.Finalize()
	c := s.CoreCounts(0)
	if c.Get(counters.AllStores) != 1024 {
		t.Errorf("stores = %d", c.Get(counters.AllStores))
	}
	if s.UncoreCounts(0).Get(counters.UncIMCWrite) == 0 {
		t.Error("allocating stores must produce IMC writes")
	}
}

func TestResetClearsEverything(t *testing.T) {
	s := newSim(t)
	// Each cache's first reset clears all of it. Later resets clear the
	// sets its log names: all of them again once a log overflows (the
	// 4096-line rounds do in the L1, L2 and TLBs), only the filled ones
	// otherwise (the L3 throughout, every cache in the 8-line round).
	for round, lines := range []uint64{4096, 4096, 8} {
		for i := uint64(0); i < lines; i++ {
			s.Load(0, i*64, 0, false)
		}
		s.Branch(0, 3, true)
		s.Finalize()
		if s.TotalCounts().Get(counters.AllLoads) == 0 {
			t.Fatal("precondition: counts populated")
		}
		s.Reset()
		total := s.TotalCounts()
		for id, v := range total {
			if v != 0 {
				t.Errorf("round %d: event %s = %d after Reset", round, counters.Def(counters.EventID(id)).Name, v)
			}
		}
		if s.Cycles(0) != 0 || s.MaxCycles() != 0 {
			t.Errorf("round %d: cycles must reset", round)
		}
		cs := s.cores[0]
		for name, c := range map[string]*cache{"L1": cs.l1, "L2": cs.l2, "DTLB": cs.dtlb, "STLB": cs.stlb, "L3": s.l3[0]} {
			if n := c.occupancy(); n != 0 {
				t.Errorf("round %d: %s holds %d lines after Reset", round, name, n)
			}
		}
		// After reset, previously cached lines must be gone (cold again).
		lat := s.Load(0, 0, 0, true)
		if lat < s.Machine().MemLatency {
			t.Errorf("round %d: post-reset load latency %d, want cold DRAM access", round, lat)
		}
	}
}

// TestCachesBuiltOnFirstMemoryAccess checks that a simulator allocates
// the caches of the cores that load, store or lock, and the L3s of
// their sockets, and no others.
func TestCachesBuiltOnFirstMemoryAccess(t *testing.T) {
	m := topology.DL580Gen9()
	s, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	mid, far := m.Cores()/2, m.Cores()-1
	s.Load(0, 0, 0, false)
	s.Instr(1, 100)
	s.Branch(2, 1, true)
	s.AddEvent(3, counters.SWPageFaults, 1)
	s.Reset()
	s.Store(mid, 64, 0)
	s.Atomic(far, 128, 0)
	s.Finalize()

	built := map[int]bool{0: true, mid: true, far: true}
	for i, cs := range s.cores {
		for name, c := range map[string]*cache{"L1": cs.l1, "L2": cs.l2, "DTLB": cs.dtlb, "STLB": cs.stlb} {
			if (c != nil) != built[i] {
				t.Errorf("core %d: %s built = %v, want %v", i, name, c != nil, built[i])
			}
		}
	}
	sockets := map[int]bool{m.NodeOfCore(0): true, m.NodeOfCore(mid): true, m.NodeOfCore(far): true}
	if len(sockets) == m.Sockets {
		t.Fatalf("precondition: cores 0, %d and %d cover all %d sockets", mid, far, m.Sockets)
	}
	for n, c := range s.l3 {
		if (c != nil) != sockets[n] {
			t.Errorf("socket %d: L3 built = %v, want %v", n, c != nil, sockets[n])
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() counters.Counts {
		s := newSim(t)
		for i := uint64(0); i < 8192; i++ {
			s.Load(0, (i*97)%65536*64, 0, false)
			if i%7 == 0 {
				s.Branch(0, uint16(i%13), i%3 == 0)
			}
		}
		s.Finalize()
		return s.TotalCounts()
	}
	a, b := run(), run()
	for id := range a {
		if a[id] != b[id] {
			t.Fatalf("nondeterministic counter %s: %d vs %d",
				counters.Def(counters.EventID(id)).Name, a[id], b[id])
		}
	}
}

func TestLoadObserver(t *testing.T) {
	s := newSim(t)
	var got []uint64
	s.SetLoadObserver(func(core int, vaddr uint64, lat uint64) {
		got = append(got, lat)
	})
	s.Load(0, 0, 0, false)
	s.Load(0, 0, 0, false)
	if len(got) != 2 {
		t.Fatalf("observer saw %d loads", len(got))
	}
	if got[0] < got[1] {
		t.Errorf("first (cold) load %d must be slower than second (hot) %d", got[0], got[1])
	}
	s.SetLoadObserver(nil)
	s.Load(0, 0, 0, false)
	if len(got) != 2 {
		t.Error("cleared observer must not fire")
	}
}

func TestEnergyCounter(t *testing.T) {
	s := newSim(t)
	for i := uint64(0); i < 4096; i++ {
		s.Load(0, i*4096, 0, false)
	}
	s.Finalize()
	if s.UncoreCounts(0).Get(counters.UncPkgEnergy) == 0 {
		t.Error("package energy must be non-zero after work")
	}
}

func TestSTLBHit(t *testing.T) {
	s := newSim(t)
	// Touch 128 pages (exceeds the 64-entry DTLB, fits the STLB), then
	// touch them again: second pass misses DTLB but hits STLB.
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 128; i++ {
			s.Load(0, i*4096, 0, false)
		}
	}
	c := s.CoreCounts(0)
	if c.Get(counters.DTLBLoadMissSTLBHit) == 0 {
		t.Error("second pass must produce STLB hits")
	}
	if c.Get(counters.DTLBLoadMissWalk) < 128 {
		t.Errorf("first pass must walk for every page, got %d", c.Get(counters.DTLBLoadMissWalk))
	}
}

// insert brings a line in the way a demand miss does: probe, then fill
// the slot the probe returned. It reports whether a valid line was
// evicted.
func insert(c *cache, line uint64) (evicted bool) {
	slot, hit := c.probe(line)
	if hit {
		return false
	}
	return c.fill(slot, line, 0)
}

func TestCacheUnitBehaviour(t *testing.T) {
	c := newCache(4, 2, false)
	if _, hit := c.probe(100); hit {
		t.Error("empty cache must miss")
	}
	insert(c, 100)
	if _, hit := c.probe(100); !hit {
		t.Error("inserted line must hit")
	}
	// Fill set 0 (addresses ≡ 0 mod 4) beyond capacity: LRU evicts.
	insert(c, 104) // set 0
	c.probe(104)   // make 104 most recent
	if !insert(c, 108) {
		t.Error("third line in a 2-way set must evict")
	}
	if _, hit := c.probe(100); hit {
		t.Error("LRU line 100 must have been evicted")
	}
	if _, hit := c.probe(104); !hit {
		t.Error("MRU line 104 must survive")
	}
	c.invalidate(104)
	if _, hit := c.probe(104); hit {
		t.Error("invalidated line must miss")
	}
	if c.occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", c.occupancy())
	}
}

func TestPrefetcherUnit(t *testing.T) {
	p := newStreamPrefetcher(64, 4096, 2)
	if got := p.observeMiss(10); got != nil {
		t.Errorf("first miss must not prefetch: %v", got)
	}
	if got := p.observeMiss(11); got != nil {
		t.Errorf("second miss must not prefetch yet: %v", got)
	}
	got := p.observeMiss(12)
	if len(got) != 2 || got[0] != 13 || got[1] != 14 {
		t.Errorf("confirmed ascending stream: %v, want [13 14]", got)
	}
	// Descending stream.
	p.reset()
	p.observeMiss(100)
	p.observeMiss(99)
	down := p.observeMiss(98)
	if len(down) != 2 || down[0] != 97 {
		t.Errorf("descending stream: %v", down)
	}
	// Page boundary: lines 62,63 of page 0 → next page must stop it.
	p.reset()
	p.observeMiss(61)
	p.observeMiss(62)
	edge := p.observeMiss(63)
	if len(edge) != 0 {
		t.Errorf("prefetch across page boundary: %v", edge)
	}
	// Random misses break the streak.
	p.reset()
	p.observeMiss(5)
	p.observeMiss(6)
	p.observeMiss(1000)
	if got := p.observeMiss(2000); got != nil {
		t.Errorf("broken stream must not prefetch: %v", got)
	}
}

func TestBranchPredictorUnit(t *testing.T) {
	var bp branchPredictor
	bp.reset()
	// Initial state is weakly not-taken.
	if bp.predictAndUpdate(0, true) {
		t.Error("first prediction must be not-taken")
	}
	// After training taken twice, prediction flips to taken.
	bp.predictAndUpdate(0, true)
	if !bp.predictAndUpdate(0, true) {
		t.Error("trained predictor must predict taken")
	}
	// Hysteresis: one not-taken does not flip a saturated counter.
	bp.predictAndUpdate(0, false)
	if !bp.predictAndUpdate(0, true) {
		t.Error("single contrary outcome must not flip a strong counter")
	}
}
