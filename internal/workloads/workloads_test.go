package workloads

import (
	"fmt"
	"strings"
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/topology"
)

func run(t *testing.T, w Workload, threads int) *exec.Result {
	t.Helper()
	return runOn(t, topology.TwoSocket(), 3, w, threads)
}

func runOn(t *testing.T, m *topology.Machine, seed int64, w Workload, threads int) *exec.Result {
	t.Helper()
	e, err := exec.NewEngine(exec.Config{
		Machine: m,
		Threads: threads,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(w.Body())
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return res
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Errorf("registry has %d workloads", len(names))
	}
	for _, n := range names {
		w, ok := ByName(n)
		if !ok || w == nil {
			t.Fatalf("ByName(%q) failed", n)
		}
		if w.Name() == "" {
			t.Errorf("%q has empty Name()", n)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("unknown workload resolved")
	}
	// Names must be sorted.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("names not sorted")
		}
	}
}

func TestCacheMissVariantsDiffer(t *testing.T) {
	// 512×512 floats: the column stride of 2 KiB aliases L1 sets,
	// overruns the L2 and stops the page-bounded prefetcher, like the
	// paper's 1024×1024 case but fast enough for a unit test. The
	// signature must hold on every machine and for every seed, so no
	// change to the cache model can keep it on one machine only.
	for _, name := range topology.MachineNames() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				m, _ := topology.ByName(name)
				a := runOn(t, m, seed, CacheMissA(512), 1)
				b := runOn(t, m, seed, CacheMissB(512), 1)
				checkCacheMissSignature(t, a, b)
			})
		}
	}
}

func checkCacheMissSignature(t *testing.T, a, b *exec.Result) {
	t.Helper()
	// Same instruction work (fill + traversal), very different caches.
	ia, ib := a.Raw.Get(counters.InstRetired), b.Raw.Get(counters.InstRetired)
	relInstr := float64(ib-ia) / float64(ia)
	if relInstr < -0.05 || relInstr > 0.05 {
		t.Errorf("instruction counts differ by %.1f%%, want ≈ 0", relInstr*100)
	}

	l1a, l1b := a.Raw.Get(counters.L1Miss), b.Raw.Get(counters.L1Miss)
	if float64(l1b) < 5*float64(l1a) {
		t.Errorf("L1 misses: A=%d B=%d, want B ≫ A (paper: +1000%%)", l1a, l1b)
	}
	pfa, pfb := a.Raw.Get(counters.L2PFRequests), b.Raw.Get(counters.L2PFRequests)
	if pfa == 0 {
		t.Fatal("variant A must prefetch")
	}
	if float64(pfb) > 0.5*float64(pfa) {
		t.Errorf("prefetch requests: A=%d B=%d, want B ≪ A (paper: −90%%)", pfa, pfb)
	}
	fba, fbb := a.Raw.Get(counters.FBFull), b.Raw.Get(counters.FBFull)
	if fbb < 100*max64(fba, 1) {
		t.Errorf("fill-buffer rejects: A=%d B=%d, want B ≫ A (paper: 26 → 3M)", fba, fbb)
	}
	// B costs far more cycles, and the difference is "fully explained
	// with execution stalls" (paper §V-A).
	if b.Cycles < a.Cycles*3/2 {
		t.Errorf("cycles: A=%d B=%d, want B ≫ A", a.Cycles, b.Cycles)
	}
	cycleDelta := float64(b.Cycles - a.Cycles)
	stallDelta := float64(b.Raw.Get(counters.StallsTotal) - a.Raw.Get(counters.StallsTotal))
	if stallDelta < 0.5*cycleDelta || stallDelta > 1.5*cycleDelta {
		t.Errorf("stall delta %.0f does not explain cycle delta %.0f", stallDelta, cycleDelta)
	}
	// Branch misses barely change (the paper's negative control).
	bma, bmb := float64(a.Raw.Get(counters.BranchMiss)), float64(b.Raw.Get(counters.BranchMiss))
	if bma == 0 || bmb/bma > 1.5 || bmb/bma < 0.6 {
		t.Errorf("branch misses: A=%g B=%g, want similar", bma, bmb)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestCacheMissNames(t *testing.T) {
	if !strings.Contains(CacheMissA(0).Name(), "rowmajor") || !strings.Contains(CacheMissB(0).Name(), "colmajor") {
		t.Error("variant names")
	}
	if !strings.Contains(CacheMissA(0).Name(), "1024") {
		t.Error("default size must be 1024")
	}
}

func TestParallelSortScalesLocksAndSpeculation(t *testing.T) {
	sortWL := ParallelSort{Elements: 1 << 14}
	r1 := run(t, sortWL, 1)
	r4 := run(t, sortWL, 4)
	r8 := run(t, sortWL, 8)

	locks1 := r1.Raw.Get(counters.CacheLockCycle)
	locks4 := r4.Raw.Get(counters.CacheLockCycle)
	locks8 := r8.Raw.Get(counters.CacheLockCycle)
	if !(locks1 < locks4 && locks4 < locks8) {
		t.Errorf("L1D lock cycles must rise with threads: %d, %d, %d", locks1, locks4, locks8)
	}

	spec1 := r1.Raw.Get(counters.SpecTakenJumps)
	spec4 := r4.Raw.Get(counters.SpecTakenJumps)
	spec8 := r8.Raw.Get(counters.SpecTakenJumps)
	if !(spec1 > spec4 && spec4 > spec8) {
		t.Errorf("speculative jumps must fall with threads: %d, %d, %d", spec1, spec4, spec8)
	}
}

func TestParallelSortDefaults(t *testing.T) {
	p := ParallelSort{}
	if p.elements() != 1<<20 || p.bias() != 200 {
		t.Error("defaults")
	}
	if !strings.Contains(p.Name(), "parallelsort") {
		t.Error("name")
	}
}

func TestSIFTIsNUMALocal(t *testing.T) {
	res := run(t, SIFT{Width: 256, Height: 256, Octaves: 2}, 2)
	local := res.Raw.Get(counters.LocalDRAM)
	remote := res.Raw.Get(counters.RemoteDRAM)
	if local == 0 {
		t.Fatal("SIFT must touch local DRAM")
	}
	if float64(remote) > 0.02*float64(local) {
		t.Errorf("NUMA-optimised SIFT: remote=%d local=%d, want remote ≈ 0", remote, local)
	}
	// The pyramid is cache friendly: most loads hit L1/L2.
	hits := res.Raw.Get(counters.L1Hit) + res.Raw.Get(counters.L2Hit)
	if float64(hits) < 0.8*float64(res.Raw.Get(counters.AllLoads)) {
		t.Error("SIFT loads must be cache friendly")
	}
}

func TestMLCLocalVsRemote(t *testing.T) {
	localWL := MLC{BufferBytes: 1 << 20, Chases: 20_000}
	remoteWL := MLC{BufferBytes: 1 << 20, Chases: 20_000, Remote: true}
	rl := run(t, localWL, 1)
	rr := run(t, remoteWL, 1)
	if rr.Raw.Get(counters.RemoteDRAM) == 0 {
		t.Fatal("remote mlc must load from remote DRAM")
	}
	if rl.Raw.Get(counters.RemoteDRAM) != 0 {
		t.Errorf("local mlc produced %d remote loads", rl.Raw.Get(counters.RemoteDRAM))
	}
	// Remote chase must be slower per hop.
	if rr.Cycles <= rl.Cycles {
		t.Errorf("remote chase %d cycles vs local %d, want slower", rr.Cycles, rl.Cycles)
	}
	if !strings.Contains(localWL.Name(), "local") || !strings.Contains(remoteWL.Name(), "remote") {
		t.Error("names")
	}
}

func TestPhasedAppFootprintShape(t *testing.T) {
	res := run(t, PhasedApp{RampChunks: 16, ChunkBytes: 64 << 10, ComputePasses: 3}, 2)
	fp := res.Footprint
	if len(fp) < 17 {
		t.Fatalf("footprint history too short: %d", len(fp))
	}
	// Footprint grows during ramp-up and stays flat afterwards.
	peak := fp[len(fp)-1].Bytes
	if peak < 16*64<<10 {
		t.Errorf("peak footprint %d below expected", peak)
	}
	// The last allocation must happen in the first part of the run.
	lastAlloc := fp[len(fp)-1].Cycle
	if lastAlloc > res.Cycles/2 {
		t.Errorf("ramp-up ends at cycle %d of %d; compute phase too short", lastAlloc, res.Cycles)
	}
}

func TestBSPAppStaircase(t *testing.T) {
	res := run(t, BSPApp{Supersteps: 3, StepBytes: 128 << 10, Passes: 2}, 2)
	fp := res.Footprint
	// 3 allocations → 4 footprint levels (incl. the engine's sync
	// page).
	var rises int
	for i := 1; i < len(fp); i++ {
		if fp[i].Bytes > fp[i-1].Bytes {
			rises++
		}
	}
	if rises < 3 {
		t.Errorf("staircase has %d rises, want ≥ 3", rises)
	}
}

func TestTriadScalesLinearly(t *testing.T) {
	small := run(t, Triad{Elements: 1 << 12}, 1)
	big := run(t, Triad{Elements: 1 << 14}, 1)
	ratio := float64(big.Raw.Get(counters.AllLoads)) / float64(small.Raw.Get(counters.AllLoads))
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4× elements produced %.2f× loads, want ≈ 4×", ratio)
	}
}

func TestPointerChaseLatencyDominated(t *testing.T) {
	res := run(t, PointerChase{Lines: 1 << 14, Hops: 20_000}, 1) // 1 MiB set
	// Dependent misses cannot overlap: cycles per hop must be large.
	cph := float64(res.Cycles) / 20_000
	if cph < 20 {
		t.Errorf("cycles per hop = %.1f, want latency dominated", cph)
	}
}

func TestLCGDeterminism(t *testing.T) {
	a, b := newLCG(42), newLCG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("LCG must be deterministic")
		}
	}
	// Matches the BSD constants from Listing 3.
	l := newLCG(1337)
	var seed, mulA, addC uint32 = 1337, 1103515245, 12345
	if l.next() != seed*mulA+addC {
		t.Error("LCG constants differ from Listing 3")
	}
	// chance(128) is roughly fair.
	c := newLCG(1)
	heads := 0
	for i := 0; i < 1000; i++ {
		if c.chance(128) {
			heads++
		}
	}
	if heads < 400 || heads > 600 {
		t.Errorf("chance(128) hit %d/1000", heads)
	}
}

func TestWorkloadsRunOnDL580(t *testing.T) {
	// Smoke test: every registered workload (downsized) must run on the
	// paper's machine without error.
	small := []Workload{
		CacheMissA(64), CacheMissB(64),
		ParallelSort{Elements: 4096},
		SIFT{Width: 64, Height: 64, Octaves: 2},
		MLC{BufferBytes: 1 << 18, Chases: 2000},
		MLC{BufferBytes: 1 << 18, Chases: 2000, Remote: true},
		PhasedApp{RampChunks: 4, ChunkBytes: 1 << 14, ComputePasses: 2},
		BSPApp{Supersteps: 2, StepBytes: 1 << 14, Passes: 2},
		Triad{Elements: 4096},
		PointerChase{Lines: 256, Hops: 1000},
	}
	e, err := exec.NewEngine(exec.Config{Machine: topology.DL580Gen9(), Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range small {
		if _, err := e.Run(w.Body()); err != nil {
			t.Errorf("%s on DL580: %v", w.Name(), err)
		}
	}
}

func TestRegistryCountUpdated(t *testing.T) {
	if len(Names()) != 13 {
		t.Errorf("registry has %d workloads, want 13", len(Names()))
	}
}

func TestGUPSIsTLBAndDRAMBound(t *testing.T) {
	gups := run(t, GUPS{TableBytes: 8 << 20, Updates: 30_000}, 2)
	tri := run(t, Triad{Elements: 1 << 13}, 2)
	// Per-load TLB walk rate must be far higher than for streaming.
	walkRate := func(r *exec.Result) float64 {
		return float64(r.Raw.Get(counters.DTLBLoadMissWalk)+r.Raw.Get(counters.DTLBLoadMissSTLBHit)) /
			float64(r.Raw.Get(counters.AllLoads))
	}
	if walkRate(gups) < 10*walkRate(tri) {
		t.Errorf("GUPS TLB pressure %.4f not ≫ triad %.4f", walkRate(gups), walkRate(tri))
	}
	// Prefetcher must be useless.
	if pf := gups.Raw.Get(counters.L2PFRequests); pf > gups.Raw.Get(counters.AllLoads)/100 {
		t.Errorf("GUPS prefetch requests = %d, want ≈ 0", pf)
	}
}

func TestFalseSharingPingPong(t *testing.T) {
	// Fine scheduling chunks: real false sharing interleaves at
	// instruction granularity, and the engine's default 4096-op quantum
	// would hide most of the ping-pong.
	runFine := func(w Workload) *exec.Result {
		e, err := exec.NewEngine(exec.Config{
			Machine: topology.TwoSocket(), Threads: 4, Seed: 3, Chunk: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(w.Body())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shared := runFine(FalseSharing{Updates: 20_000})
	padded := runFine(FalseSharing{Updates: 20_000, Padded: true})
	// The shared line causes memory-ordering machine clears; padding
	// removes them almost entirely.
	sc := shared.Raw.Get(counters.MachineClearsMO)
	pc := padded.Raw.Get(counters.MachineClearsMO)
	if sc < 10*(pc+1) {
		t.Errorf("machine clears: shared=%d padded=%d, want shared ≫ padded", sc, pc)
	}
	// And it costs cycles.
	if shared.Cycles <= padded.Cycles {
		t.Errorf("shared-line run (%d cyc) must be slower than padded (%d cyc)",
			shared.Cycles, padded.Cycles)
	}
}
