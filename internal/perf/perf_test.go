package perf

import (
	"strings"
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/topology"
)

func testEngine(t *testing.T) *exec.Engine {
	t.Helper()
	e, err := exec.NewEngine(exec.Config{
		Machine: topology.TwoSocket(),
		Threads: 1,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scanBody streams over 256 KiB, producing a mix of hits and misses.
func scanBody(t *exec.Thread) {
	buf := t.Alloc(256 << 10)
	for off := uint64(0); off < buf.Size; off += 4 {
		t.Load(buf.Addr(off))
	}
}

func TestMeasureUnlimited(t *testing.T) {
	e := testEngine(t)
	m, err := Measure(e, scanBody, []counters.EventID{counters.AllLoads, counters.L1Hit}, 3, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 3 {
		t.Errorf("runs = %d, want 3", m.Runs)
	}
	if len(m.Samples[counters.AllLoads]) != 3 {
		t.Errorf("samples = %d", len(m.Samples[counters.AllLoads]))
	}
	want := float64(256 << 10 / 4)
	if mean := m.Mean(counters.AllLoads); mean < want*0.95 || mean > want*1.05 {
		t.Errorf("mean loads = %g, want ≈ %g", mean, want)
	}
	if m.Mean(counters.L3Miss) != 0 {
		t.Error("unsampled event must report 0 mean")
	}
	evs := m.Events()
	if len(evs) != 2 || evs[0] != counters.AllLoads {
		t.Errorf("Events() = %v", evs)
	}
}

func TestMeasureBatchedRespectsRegisterBudget(t *testing.T) {
	e := testEngine(t)
	// 9 core events with 4 programmable registers → 3 batches.
	events := []counters.EventID{
		counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.L2Hit,
		counters.L2Miss, counters.L3Hit, counters.L3Miss, counters.BranchRetired,
		counters.BranchMiss,
		counters.InstRetired, // fixed, measured every run
	}
	m, err := Measure(e, scanBody, events, 2, Batched)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != 3 {
		t.Errorf("batches = %d, want 3", m.Batches)
	}
	if m.Runs != 6 {
		t.Errorf("runs = %d, want reps×batches = 6", m.Runs)
	}
	for _, id := range events {
		if got := len(m.Samples[id]); got != 2 {
			t.Errorf("%s: %d samples, want 2", counters.Def(id).Name, got)
		}
	}
}

func TestBatchedMatchesUnlimited(t *testing.T) {
	e := testEngine(t)
	events := []counters.EventID{counters.AllLoads, counters.L1Miss, counters.L2PFRequests}
	b, err := Measure(e, scanBody, events, 2, Batched)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Measure(e, scanBody, events, 2, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range events {
		bm, um := b.Mean(id), u.Mean(id)
		if um == 0 {
			continue
		}
		rel := (bm - um) / um
		if rel < -0.05 || rel > 0.05 {
			t.Errorf("%s: batched %g vs unlimited %g", counters.Def(id).Name, bm, um)
		}
	}
}

func TestMeasureErrors(t *testing.T) {
	e := testEngine(t)
	if _, err := Measure(e, scanBody, nil, 1, Batched); err == nil {
		t.Error("no events must fail")
	}
	if _, err := Measure(e, scanBody, []counters.EventID{counters.AllLoads}, 0, Batched); err == nil {
		t.Error("zero reps must fail")
	}
	if _, err := Measure(e, scanBody, []counters.EventID{counters.AllLoads}, 1, Mode(99)); err == nil {
		t.Error("unknown mode must fail")
	}
	bad := func(t *exec.Thread) { panic("bad workload") }
	if _, err := Measure(e, bad, []counters.EventID{counters.AllLoads}, 1, Batched); err == nil || !strings.Contains(err.Error(), "bad workload") {
		t.Errorf("workload error not propagated: %v", err)
	}
	if _, err := Measure(e, bad, []counters.EventID{counters.AllLoads}, 1, Unlimited); err == nil {
		t.Error("unlimited must propagate errors too")
	}
	if _, err := Measure(e, bad, []counters.EventID{counters.AllLoads}, 1, Multiplexed); err == nil {
		t.Error("multiplexed must propagate errors too")
	}
}

func TestModeString(t *testing.T) {
	if Batched.String() != "batched" || Multiplexed.String() != "multiplexed" || Unlimited.String() != "unlimited" {
		t.Error("mode names")
	}
	if !strings.HasPrefix(Mode(9).String(), "Mode(") {
		t.Error("unknown mode name")
	}
}

func TestMeasureAllCoversDatabase(t *testing.T) {
	e := testEngine(t)
	m, err := MeasureAll(e, func(t *exec.Thread) {
		buf := t.Alloc(64 << 10)
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
	}, 1, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) != int(counters.NumEvents) {
		t.Errorf("MeasureAll sampled %d events, want %d", len(m.Samples), counters.NumEvents)
	}
}

func TestMultiplexedApproximatesTruth(t *testing.T) {
	e := testEngine(t)
	// A long, stationary workload: multiplexing should land in the
	// right ballpark.
	body := func(t *exec.Thread) {
		buf := t.Alloc(1 << 20)
		for pass := 0; pass < 4; pass++ {
			for off := uint64(0); off < buf.Size; off += 4 {
				t.Load(buf.Addr(off))
			}
		}
	}
	events := []counters.EventID{
		counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.L2Hit,
		counters.L2Miss, counters.L3Hit, counters.L3Miss, counters.L2PFRequests,
	}
	mux, err := Measure(e, body, events, 1, Multiplexed)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := Measure(e, body, events, 1, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if mux.Mode != Multiplexed || mux.Batches < 2 {
		t.Fatalf("expected ≥2 multiplex groups, got %d", mux.Batches)
	}
	got := mux.Mean(counters.AllLoads)
	want := truth.Mean(counters.AllLoads)
	if got < want*0.5 || got > want*1.5 {
		t.Errorf("multiplexed ALL_LOADS = %g, truth = %g (outside ±50%%)", got, want)
	}
}

func TestCaptureLatencies(t *testing.T) {
	e := testEngine(t)
	recs, res, err := CaptureLatencies(e, scanBody, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no result")
	}
	wantLoads := int(res.Raw.Get(counters.AllLoads))
	if len(recs) < wantLoads-100 || len(recs) > wantLoads+100 {
		t.Errorf("captured %d records for %d loads", len(recs), wantLoads)
	}
	// Sampling with a period reduces volume proportionally.
	recs10, _, err := CaptureLatencies(e, scanBody, 10)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(recs)) / float64(len(recs10))
	if ratio < 8 || ratio > 12 {
		t.Errorf("period-10 sampling ratio = %.1f, want ≈ 10", ratio)
	}
	// Latencies must span cache hits (small) and DRAM (large).
	var min, max uint64 = 1 << 60, 0
	for _, r := range recs {
		if r.Latency < min {
			min = r.Latency
		}
		if r.Latency > max {
			max = r.Latency
		}
	}
	if min > 8 {
		t.Errorf("min latency %d, want L1-ish", min)
	}
	if max < 200 {
		t.Errorf("max latency %d, want DRAM-ish", max)
	}
}

func TestCountAboveThresholds(t *testing.T) {
	e := testEngine(t)
	th := []uint64{4, 16, 64, 256}
	tc, err := CountAboveThresholds(e, scanBody, th, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if tc.TotalCycles == 0 {
		t.Fatal("no cycles recorded")
	}
	// Estimates must be non-increasing in the threshold, modulo the
	// time-cycling error; enforce a loose monotonicity (2x slack).
	for k := 1; k < len(th); k++ {
		if tc.Estimated[k] > tc.Estimated[k-1]*2+1000 {
			t.Errorf("estimate[%d]=%g wildly above estimate[%d]=%g",
				k, tc.Estimated[k], k-1, tc.Estimated[k-1])
		}
	}
	// The lowest threshold must see a large share of all loads.
	if tc.Estimated[0] < float64(256<<10/4)/4 {
		t.Errorf("estimate at threshold 4 = %g, too small", tc.Estimated[0])
	}
	var active uint64
	for _, a := range tc.ActiveCycles {
		active += a
	}
	if active != tc.TotalCycles {
		t.Errorf("active cycles %d != total %d", active, tc.TotalCycles)
	}
}

func TestCountAboveThresholdsErrors(t *testing.T) {
	e := testEngine(t)
	if _, err := CountAboveThresholds(e, scanBody, nil, 1000); err == nil {
		t.Error("no thresholds must fail")
	}
	if _, err := CountAboveThresholds(e, scanBody, []uint64{5, 5}, 1000); err == nil {
		t.Error("non-ascending thresholds must fail")
	}
	if _, err := CountAboveThresholds(e, scanBody, []uint64{5}, 0); err == nil {
		t.Error("zero slice must fail")
	}
	bad := func(t *exec.Thread) { panic("x") }
	if _, err := CountAboveThresholds(e, bad, []uint64{5}, 1000); err == nil {
		t.Error("workload failure must propagate")
	}
}

func TestTimeSeries(t *testing.T) {
	e := testEngine(t)
	slices, res, err := TimeSeries(e, scanBody, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) < 3 {
		t.Fatalf("only %d slices", len(slices))
	}
	// Slice boundaries are strictly increasing and deltas sum to the
	// run totals for monotone events.
	var sum uint64
	for i, s := range slices {
		if i > 0 && s.EndCycle <= slices[i-1].EndCycle {
			t.Error("slice boundaries must increase")
		}
		sum += s.Deltas.Get(counters.AllLoads)
	}
	if sum != res.Raw.Get(counters.AllLoads) {
		t.Errorf("slice deltas sum to %d, run total %d", sum, res.Raw.Get(counters.AllLoads))
	}
	if _, _, err := TimeSeries(e, scanBody, 0); err == nil {
		t.Error("zero slice must fail")
	}
	bad := func(t *exec.Thread) { panic("x") }
	if _, _, err := TimeSeries(e, bad, 1000); err == nil {
		t.Error("workload failure must propagate")
	}
}

func TestSoftwareEventsVisibleEveryRun(t *testing.T) {
	e := testEngine(t)
	events := []counters.EventID{
		counters.SWPageFaults, counters.SWAllocCalls,
		counters.AllLoads, counters.L1Hit, counters.L1Miss,
		counters.L2Hit, counters.L2Miss, // 5 core events → 2 batches
	}
	m, err := Measure(e, scanBody, events, 3, Batched)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != 2 {
		t.Fatalf("batches = %d, want 2", m.Batches)
	}
	// Software events behave like fixed counters: exactly one sample
	// per repetition despite the batching.
	for _, id := range []counters.EventID{counters.SWPageFaults, counters.SWAllocCalls} {
		if got := len(m.Samples[id]); got != 3 {
			t.Errorf("%s: %d samples, want 3", counters.Def(id).Name, got)
		}
		if m.Mean(id) == 0 {
			t.Errorf("%s never fired", counters.Def(id).Name)
		}
	}
}

func TestUncoreBatching(t *testing.T) {
	e := testEngine(t)
	// All 8 uncore events over 4 uncore registers → 2 batches, and no
	// core batches at all.
	events := []counters.EventID{
		counters.UncLLCLookup, counters.UncQPITx, counters.UncQPIRx,
		counters.UncIMCRead, counters.UncIMCWrite, counters.UncIMCRemoteRd,
		counters.UncPkgEnergy, counters.UncTLBLockWalks,
	}
	m, err := Measure(e, scanBody, events, 2, Batched)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != 2 {
		t.Errorf("uncore batches = %d, want 2", m.Batches)
	}
	for _, id := range events {
		if got := len(m.Samples[id]); got != 2 {
			t.Errorf("%s: %d samples, want 2", counters.Def(id).Name, got)
		}
	}
	if m.Mean(counters.UncIMCRead) == 0 {
		t.Error("IMC reads must fire for a DRAM-touching scan")
	}
}

func TestPlanBatchesDecomposition(t *testing.T) {
	e := testEngine(t)
	// 9 core + 1 fixed on a 4-register PMU → 3 batches of ≤4.
	events := []counters.EventID{
		counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.L2Hit,
		counters.L2Miss, counters.L3Hit, counters.L3Miss, counters.BranchRetired,
		counters.BranchMiss,
		counters.InstRetired,
	}
	p := PlanBatches(e, events)
	if p.Batches() != 3 {
		t.Fatalf("batches = %d, want 3", p.Batches())
	}
	if len(p.Fixed) != 1 || p.Fixed[0] != counters.InstRetired {
		t.Errorf("fixed = %v", p.Fixed)
	}
	// Fixed events appear in batch 0 only; every core event appears in
	// exactly one batch; no batch exceeds the register budget.
	seen := map[counters.EventID]int{}
	for b := 0; b < p.Batches(); b++ {
		vis := p.Visible(b)
		core := 0
		for _, id := range vis {
			seen[id]++
			if counters.Def(id).Domain != counters.DomainFixed {
				core++
			}
		}
		if core > e.Config().Machine.PMU.ProgrammableCounters {
			t.Errorf("batch %d exceeds the register budget: %v", b, vis)
		}
	}
	for _, id := range events {
		if seen[id] != 1 {
			t.Errorf("%s visible in %d batches, want 1", counters.Def(id).Name, seen[id])
		}
	}
}

func TestPlanBatchesEmptyAndUncore(t *testing.T) {
	e := testEngine(t)
	if got := PlanBatches(e, nil).Batches(); got != 1 {
		t.Errorf("empty plan batches = %d, want 1", got)
	}
	p := PlanBatches(e, []counters.EventID{counters.InstRetired})
	if p.Batches() != 1 || len(p.Visible(0)) != 1 {
		t.Errorf("fixed-only plan: batches=%d visible=%v", p.Batches(), p.Visible(0))
	}
}

// TestRunVisibleMatchesMeasureBatched: driving the exported plan cell
// by cell, one simulated run per batch as a campaign once did with the
// reference RunVisible (refmeasure_test.go), reproduces what Measure's
// batched loop assembles from one simulated run.
func TestRunVisibleMatchesMeasureBatched(t *testing.T) {
	events := []counters.EventID{
		counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.L2Hit,
		counters.L2Miss, counters.InstRetired,
	}
	whole, err := Measure(testEngine(t), scanBody, events, 1, Batched)
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t)
	p := PlanBatches(e, events)
	got := map[counters.EventID][]float64{}
	for b := 0; b < p.Batches(); b++ {
		vals, err := RunVisible(e, scanBody, p.Visible(b))
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range vals {
			got[id] = append(got[id], v)
		}
	}
	for _, id := range events {
		if len(got[id]) != len(whole.Samples[id]) {
			t.Errorf("%s: %d cell samples vs %d batched", counters.Def(id).Name,
				len(got[id]), len(whole.Samples[id]))
			continue
		}
		for i := range got[id] {
			if got[id][i] != whole.Samples[id][i] {
				t.Errorf("%s sample %d: cell %g vs batched %g",
					counters.Def(id).Name, i, got[id][i], whole.Samples[id][i])
			}
		}
	}
}

func TestCoverage(t *testing.T) {
	m := &Measurement{
		Samples: map[counters.EventID][]float64{
			counters.AllLoads: {1, 2},
			counters.L1Hit:    {1},
		},
		Reps: 2,
	}
	if got := m.Coverage(counters.AllLoads); got != 1 {
		t.Errorf("full coverage = %g", got)
	}
	if got := m.Coverage(counters.L1Hit); got != 0.5 {
		t.Errorf("half coverage = %g", got)
	}
	if got := m.Coverage(counters.L3Miss); got != 0 {
		t.Errorf("absent coverage = %g", got)
	}
	m.Reps = 0
	if got := m.Coverage(counters.L1Hit); got != 1 {
		t.Errorf("legacy (reps unknown) coverage = %g", got)
	}
}

// TestMultiplexedUnscheduledGroupHasNoSample: a 16 KiB scan on 2s is
// shorter than one multiplexing quantum, so of 9 core events on 4
// registers only the first group is ever counted. The other groups'
// events keep their keys but get no sample, where they used to read 0,
// so Coverage reports the gap, and the measurement is partial.
// Unlimited mode shows what a 0 would have hidden.
func TestMultiplexedUnscheduledGroupHasNoSample(t *testing.T) {
	body := func(t *exec.Thread) {
		buf := t.Alloc(16 << 10)
		for off := uint64(0); off < buf.Size; off += 4 {
			t.Load(buf.Addr(off))
		}
	}
	events := []counters.EventID{
		counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.L2Hit, // the only group counted
		counters.L2Miss, counters.L3Hit, counters.L3Miss, counters.BranchRetired,
		counters.L2PFRequests,
	}
	const reps = 3
	m, err := Measure(testEngine(t), body, events, reps, Multiplexed)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := Measure(testEngine(t), body, events, reps, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != 3 || m.Runs != reps {
		t.Fatalf("%d groups in %d runs, want 3 in %d", m.Batches, m.Runs, reps)
	}
	for i, id := range events {
		name := counters.Def(id).Name
		s, ok := m.Samples[id]
		switch {
		case !ok:
			t.Errorf("%s: no key in Samples", name)
		case i < 4 && (len(s) != reps || m.Coverage(id) != 1):
			t.Errorf("%s: counted group has %d samples, coverage %g; want %d, 1", name, len(s), m.Coverage(id), reps)
		case i >= 4 && (len(s) != 0 || m.Coverage(id) != 0):
			t.Errorf("%s: group without a quantum has samples %v, coverage %g; want none, 0", name, s, m.Coverage(id))
		}
	}
	if !m.Partial {
		t.Error("a measurement with uncounted groups is not marked partial")
	}
	for _, id := range []counters.EventID{counters.L2Miss, counters.L3Miss, counters.BranchRetired, counters.L2PFRequests} {
		t.Logf("%s: unlimited mean %g", counters.Def(id).Name, truth.Mean(id))
		if truth.Mean(id) == 0 {
			t.Errorf("%s: unlimited mode counts 0, so a 0 sample would not be wrong here", counters.Def(id).Name)
		}
	}
}
