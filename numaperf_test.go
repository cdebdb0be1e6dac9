package numaperf

import (
	"strings"
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/workloads"
)

func session(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := NewSession(append([]Option{WithMachineName("2s"), WithSeed(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionDefaults(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine().Sockets != 4 {
		t.Errorf("default machine is not the DL580: %d sockets", s.Machine().Sockets)
	}
}

func TestSessionOptionErrors(t *testing.T) {
	if _, err := NewSession(WithMachineName("nope")); err == nil {
		t.Error("unknown machine must fail")
	}
	if _, err := NewSession(WithMachine(nil)); err == nil {
		t.Error("nil machine must fail")
	}
}

func TestSessionRun(t *testing.T) {
	s := session(t)
	res, err := s.Run(workloads.Triad{Elements: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("no cycles")
	}
}

func TestSessionMeasureAndLookup(t *testing.T) {
	s := session(t)
	id, ok := LookupEvent("MEM_UOPS_RETIRED.ALL_LOADS")
	if !ok {
		t.Fatal("lookup failed")
	}
	m, err := s.Measure(workloads.Triad{Elements: 2048}, []EventID{id}, 2, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean(id) == 0 {
		t.Error("no loads measured")
	}
	if len(EventNames()) != len(AllEvents()) {
		t.Error("event name/ID mismatch")
	}
	if len(WorkloadNames()) == 0 {
		t.Error("no workloads")
	}
	if _, ok := WorkloadByName(WorkloadNames()[0]); !ok {
		t.Error("registry lookup")
	}
}

func TestSessionCompare(t *testing.T) {
	s := session(t)
	events := []EventID{counters.L1Miss, counters.L2PFRequests, counters.InstRetired}
	cmp, err := s.CompareEvents(CacheMissA(256), CacheMissB(256), events, 2, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 3 {
		t.Errorf("%d rows", len(cmp.Rows))
	}
	if !strings.Contains(cmp.Render(), "EVENT") {
		t.Error("render")
	}
}

func TestSessionSweepThreads(t *testing.T) {
	s := session(t)
	sw, err := s.SweepThreads(func(threads int) Workload {
		return workloads.ParallelSort{Elements: 4096}
	}, []int{1, 2, 4}, []EventID{counters.CacheLockCycle, counters.InstRetired}, 1, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 3 {
		t.Errorf("%d points", len(sw.Points))
	}
	if len(sw.Correlate()) == 0 {
		t.Error("no correlations")
	}
}

func TestSessionHistograms(t *testing.T) {
	s := session(t)
	wl := workloads.MLC{BufferBytes: 1 << 20, Chases: 5000}
	h, err := s.ExactLatencyHistogram(wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() == 0 || !strings.Contains(h.Source, "mlc") {
		t.Errorf("exact histogram: total=%g source=%q", h.Total(), h.Source)
	}
	hc, err := s.LatencyHistogram(wl, HistogramOptions{SliceCycles: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if hc.Total() == 0 {
		t.Error("cycled histogram empty")
	}
}

func TestSessionPhases(t *testing.T) {
	s := session(t, WithThreads(2))
	rep, err := s.Phases(workloads.PhasedApp{RampChunks: 12, ChunkBytes: 64 << 10, ComputePasses: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Split.Segments) != 2 {
		t.Errorf("%d phases", len(rep.Split.Segments))
	}
}

func TestSessionTwoStep(t *testing.T) {
	s := session(t, WithoutNoise())
	st, err := s.TrainTwoStep(func(p float64) Workload {
		return workloads.Triad{Elements: int(p)}
	}, []float64{8192, 16384, 24576, 32768}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cost.R2 < 0.8 {
		t.Errorf("cost R² = %.3f", st.Cost.R2)
	}
	if st.PredictCycles(65536) <= 0 {
		t.Error("prediction must be positive")
	}
}

func TestSessionPoliciesAndMapping(t *testing.T) {
	for _, opt := range []Option{WithInterleave(), WithBindNode(1), WithScatter(), WithoutNoise()} {
		s := session(t, opt, WithThreads(2))
		if _, err := s.Run(workloads.Triad{Elements: 2048}); err != nil {
			t.Errorf("run failed: %v", err)
		}
	}
}

func TestBaselinesExposed(t *testing.T) {
	s := session(t)
	res, err := s.Run(workloads.Triad{Elements: 4096})
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(res)
	for _, b := range Baselines() {
		if p := b.PredictCycles(c, s.Machine()); p <= 0 {
			t.Errorf("%s predicted %g", b.Name(), p)
		}
	}
}

func TestSessionRegions(t *testing.T) {
	s := session(t)
	res, err := s.Run(workloads.CacheMissB(128))
	if err != nil {
		t.Fatal(err)
	}
	out, err := RenderRegions(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "traverse") {
		t.Errorf("region render missing traverse:\n%s", out)
	}
	resA, err := s.Run(workloads.CacheMissA(128))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CompareRegions(resA, res, []EventID{counters.L1Miss}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || RenderRegionDeltas(rows) == "" {
		t.Error("region comparison empty")
	}
}

func TestSessionCompareMany(t *testing.T) {
	s := session(t)
	mc, err := s.CompareMany(workloads.ParallelSort{Elements: 4096},
		[]int{1, 2, 4}, []EventID{counters.CacheLockCycle, counters.InstRetired}, 2, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Labels) != 3 || len(mc.Rows) != 2 {
		t.Errorf("labels=%v rows=%d", mc.Labels, len(mc.Rows))
	}
	if !strings.Contains(mc.Render(), "T=4") {
		t.Error("render labels")
	}
}

func TestComparePlacements(t *testing.T) {
	s := session(t, WithThreads(4))
	// A SIFT stripe workload is locality sensitive: first-touch should
	// beat bind-0 under scatter pinning.
	rows, err := s.ComparePlacements(workloads.SIFT{Width: 128, Height: 128, Octaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 (3 policies × 2 mappings)", len(rows))
	}
	// Fastest first, speedups ≥ 1 and monotone.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Cycles > rows[i].Cycles {
			t.Error("rows not sorted by cycles")
		}
		if rows[i-1].Speedup < rows[i].Speedup {
			t.Error("speedups not monotone")
		}
	}
	if rows[len(rows)-1].Speedup != 1 {
		t.Errorf("slowest speedup = %g, want 1", rows[len(rows)-1].Speedup)
	}
	out := RenderPlacements(rows)
	if !strings.Contains(out, "POLICY") || !strings.Contains(out, "first-touch") {
		t.Errorf("render:\n%s", out)
	}
	// Locality: some configuration must differ from another (bind-0
	// under scatter cannot be 100% local with 2 sockets in play).
	minLocal, maxLocal := 101.0, -1.0
	for _, r := range rows {
		if r.LocalDRAMPct < minLocal {
			minLocal = r.LocalDRAMPct
		}
		if r.LocalDRAMPct > maxLocal {
			maxLocal = r.LocalDRAMPct
		}
	}
	if maxLocal-minLocal < 10 {
		t.Errorf("placement sweep showed no locality spread: %.1f..%.1f", minLocal, maxLocal)
	}
}

func TestComparePlacementsGUPS(t *testing.T) {
	s := session(t, WithThreads(4))
	// GUPS with a table larger than the L3 is DRAM-bound and locality
	// sensitive: compact pinning with locally-touched pages must win,
	// and placement must matter measurably.
	rows, err := s.ComparePlacements(workloads.GUPS{TableBytes: 64 << 20, Updates: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Mapping != "compact" {
		t.Errorf("fastest config = %s/%s, want a compact one", rows[0].Policy, rows[0].Mapping)
	}
	if rows[0].LocalDRAMPct < 90 {
		t.Errorf("winner locality = %.1f%%, want ≈ 100%%", rows[0].LocalDRAMPct)
	}
	if rows[0].Speedup < 1.05 {
		t.Errorf("placement spread only %.2fx, want measurable", rows[0].Speedup)
	}
}
