package evsel

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/stats"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

func engine(t *testing.T, threads int) *exec.Engine {
	t.Helper()
	e, err := exec.NewEngine(exec.Config{
		Machine: topology.TwoSocket(),
		Threads: threads,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fig8Events is the counter set the paper's Fig. 8 discusses.
var fig8Events = []counters.EventID{
	counters.InstRetired, counters.CPUCycles,
	counters.L1Miss, counters.L2Miss, counters.L3Miss,
	counters.L2PFRequests, counters.L3Reference,
	counters.FBFull, counters.BranchMiss, counters.StallsTotal,
}

func TestCompareCacheMissVariants(t *testing.T) {
	ea, eb := engine(t, 1), engine(t, 1)
	cmp, err := CompareWorkloads(ea, workloads.CacheMissA(512).Body(),
		eb, workloads.CacheMissB(512).Body(), fig8Events, 3, perf.Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	row := func(id counters.EventID) Row {
		r, ok := cmp.Row(id)
		if !ok {
			t.Fatalf("missing row for %s", counters.Def(id).Name)
		}
		return r
	}

	// The Fig. 8 signature: large significant increases in cache
	// misses, large significant drop in prefetch requests, huge rise in
	// fill-buffer rejects, tiny change in instructions.
	l1 := row(counters.L1Miss)
	if !l1.Significant || l1.Test.Relative < 2 {
		t.Errorf("L1 misses: %+v, want significant large increase", l1.Test)
	}
	pf := row(counters.L2PFRequests)
	if !pf.Significant || pf.Test.Relative > -0.5 {
		t.Errorf("prefetch requests: rel=%+.2f, want ≤ −50%%", pf.Test.Relative)
	}
	fb := row(counters.FBFull)
	if fb.B.Mean < 100*(fb.A.Mean+1) {
		t.Errorf("fill buffer rejects: A=%g B=%g, want B ≫ A", fb.A.Mean, fb.B.Mean)
	}
	instr := row(counters.InstRetired)
	if instr.Test.Relative < -0.05 || instr.Test.Relative > 0.05 {
		t.Errorf("instructions changed by %+.1f%%, want ≈ 0", 100*instr.Test.Relative)
	}
	// Confidences of the big movers exceed 99.9% as in the paper.
	if l1.Test.Confidence < 0.999 {
		t.Errorf("L1 miss confidence %.4f, want > 0.999", l1.Test.Confidence)
	}
	// Bonferroni correction is in force.
	if cmp.Alpha >= DefaultAlpha {
		t.Errorf("alpha %g not corrected for %d comparisons", cmp.Alpha, cmp.Comparisons)
	}
}

func TestCompareIdenticalConfigurations(t *testing.T) {
	ea, eb := engine(t, 1), engine(t, 1)
	body := workloads.Triad{Elements: 1 << 12}.Body()
	cmp, err := CompareWorkloads(ea, body, eb, body, fig8Events, 4, perf.Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	// Identical configurations: nothing should be significant.
	sig := cmp.Where(SignificantOnly())
	if len(sig.Rows) > 1 {
		t.Errorf("%d events significant between identical configs", len(sig.Rows))
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(nil, nil); err == nil {
		t.Error("nil measurements must fail")
	}
	m := &perf.Measurement{Samples: map[counters.EventID][]float64{}}
	if _, err := Compare(m, m); err == nil {
		t.Error("empty measurement must fail")
	}
	ea := engine(t, 1)
	bad := func(t *exec.Thread) { panic("x") }
	if _, err := CompareWorkloads(ea, bad, ea, bad, fig8Events, 1, perf.Unlimited); err == nil {
		t.Error("workload failure must propagate")
	}
	good := workloads.Triad{Elements: 1 << 10}.Body()
	if _, err := CompareWorkloads(ea, good, ea, bad, fig8Events, 1, perf.Unlimited); err == nil {
		t.Error("workload B failure must propagate")
	}
}

func TestFiltersAndSorting(t *testing.T) {
	ea, eb := engine(t, 1), engine(t, 1)
	cmp, err := CompareWorkloads(ea, workloads.CacheMissA(256).Body(),
		eb, workloads.CacheMissB(256).Body(), fig8Events, 2, perf.Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	nz := cmp.Where(NonZero())
	if len(nz.Rows) == 0 || len(nz.Rows) > len(cmp.Rows) {
		t.Errorf("NonZero kept %d of %d", len(nz.Rows), len(cmp.Rows))
	}
	named := cmp.Where(NameContains("L1"))
	for _, r := range named.Rows {
		if !strings.Contains(r.Name, "L1") {
			t.Errorf("NameContains leaked %s", r.Name)
		}
	}
	dom := cmp.Where(InDomain(counters.DomainFixed))
	for _, r := range dom.Rows {
		if counters.Def(r.Event).Domain != counters.DomainFixed {
			t.Errorf("InDomain leaked %s", r.Name)
		}
	}
	big := cmp.Where(MinRelativeChange(0.5))
	for _, r := range big.Rows {
		if r.Test.Relative < 0.5 && r.Test.Relative > -0.5 {
			t.Errorf("MinRelativeChange leaked %s (%+.2f)", r.Name, r.Test.Relative)
		}
	}
	sorted := cmp.SortByImpact()
	for i := 1; i < len(sorted.Rows); i++ {
		a := sorted.Rows[i-1].Test.Relative
		b := sorted.Rows[i].Test.Relative
		if abs(a) < abs(b) && !isInf(b) {
			t.Errorf("rows %d/%d out of order: %g then %g", i-1, i, a, b)
		}
	}
	if _, ok := cmp.Row(counters.EventID(999)); ok {
		t.Error("bogus event row lookup")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func isInf(x float64) bool { return x > 1e300 || x < -1e300 }

func TestRenderOutput(t *testing.T) {
	ea, eb := engine(t, 1), engine(t, 1)
	body := workloads.Triad{Elements: 1 << 10}.Body()
	cmp, err := CompareWorkloads(ea, body, eb, body, fig8Events, 2, perf.Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	out := cmp.Render()
	for _, want := range []string{"EVENT", "MEAN A", "CONF", "Bonferroni"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
	// Icons cover the cases.
	r := Row{Zero: true}
	if r.Icon() != " " {
		t.Error("zero icon")
	}
	r = Row{Significant: true}
	r.Test.Relative = 1
	if r.Icon() != "▲" {
		t.Error("up icon")
	}
	r.Test.Relative = -1
	if r.Icon() != "▼" {
		t.Error("down icon")
	}
	r.Test.Relative = 0
	if r.Icon() != "≠" {
		t.Error("neq icon")
	}
	if (Row{}).Icon() != "·" {
		t.Error("insignificant icon")
	}
}

func TestSweepParallelSortCorrelations(t *testing.T) {
	// The Fig. 9 experiment in miniature: vary the thread count of the
	// parallel sort, correlate counters.
	sortWL := workloads.ParallelSort{Elements: 1 << 13}
	events := []counters.EventID{
		counters.CacheLockCycle, counters.SpecTakenJumps,
		counters.InstRetired, counters.LockLoads,
	}
	sweep, err := RunSweep("threads", []float64{1, 2, 4, 6, 8},
		func(p float64) (*exec.Engine, func(*exec.Thread), error) {
			e, err := exec.NewEngine(exec.Config{
				Machine: topology.TwoSocket(),
				Threads: int(p),
				Seed:    5,
			})
			return e, sortWL.Body(), err
		}, events, 2, perf.Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	locks, ok := sweep.CorrelationFor(counters.CacheLockCycle)
	if !ok {
		t.Fatal("no correlation for cache locks")
	}
	if locks.R < 0.95 {
		t.Errorf("L1D lock correlation R = %.3f, want > 0.95 (paper Fig. 9)", locks.R)
	}
	spec, ok := sweep.CorrelationFor(counters.SpecTakenJumps)
	if !ok {
		t.Fatal("no correlation for speculative jumps")
	}
	if spec.R > -0.9 {
		t.Errorf("speculative jumps R = %.3f, want strongly negative (paper: R > 0.99 negative)", spec.R)
	}
	// Rendering includes regression formulas.
	out := sweep.Render(0.5)
	if !strings.Contains(out, "threads") || !strings.Contains(out, "y =") {
		t.Errorf("sweep render:\n%s", out)
	}
	// Top correlations respect the cutoff.
	for _, c := range sweep.TopCorrelations(0.9) {
		if abs(c.R) < 0.9 {
			t.Errorf("TopCorrelations leaked %s with R=%.2f", c.Name, c.R)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	mk := func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		e, err := exec.NewEngine(exec.Config{Machine: topology.TwoSocket(), Threads: 1})
		return e, workloads.Triad{Elements: 256}.Body(), err
	}
	events := []counters.EventID{counters.AllLoads}
	if _, err := RunSweep("p", []float64{1, 2}, mk, events, 1, perf.Unlimited); err == nil {
		t.Error("short sweep must fail")
	}
	bad := func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		e, err := exec.NewEngine(exec.Config{Machine: topology.TwoSocket(), Threads: 1})
		return e, func(t *exec.Thread) { panic("x") }, err
	}
	if _, err := RunSweep("p", []float64{1, 2, 3}, bad, events, 1, perf.Unlimited); err == nil {
		t.Error("failing workload must propagate")
	}
}

func TestSweepAnnotatesConstantIndicators(t *testing.T) {
	// An event that never fires (RemoteDRAM on a single-node run with
	// no noise) must not vanish silently from correlation output: it
	// appears with a Degenerate diagnostic, no fitted form, and zero R,
	// so it stays out of any |R|-filtered table while remaining visible
	// to callers who look.
	tri := workloads.Triad{Elements: 1 << 10}
	sweep, err := RunSweep("n", []float64{1, 2, 3},
		func(p float64) (*exec.Engine, func(*exec.Thread), error) {
			e, err := exec.NewEngine(exec.Config{
				Machine: topology.UMA(), Threads: 1, Noise: -1,
			})
			return e, tri.Body(), err
		}, []counters.EventID{counters.RemoteDRAM, counters.AllLoads}, 1, perf.Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range sweep.Correlate() {
		if c.Event == counters.RemoteDRAM {
			found = true
			if !c.Diags.Has(stats.Degenerate) {
				t.Errorf("constant series lacks Degenerate diagnostic: %v", c.Diags)
			}
			if c.R != 0 || len(c.Best.Coeffs) != 0 {
				t.Errorf("constant series got a fit: R=%g best=%v", c.R, c.Best)
			}
			if c.Diags.HasHard() {
				t.Errorf("constant series must stay advisory, got %v", c.Diags)
			}
		}
	}
	if !found {
		t.Error("constant indicator skipped silently")
	}
	// The rendered table keeps it below the cutoff but counts it in the
	// diagnostics footer.
	out := sweep.Render(0.5)
	if strings.Contains(out, "RemoteDRAM") {
		t.Errorf("constant series rendered as a correlation row:\n%s", out)
	}
	if !strings.Contains(out, "carry diagnostics") {
		t.Errorf("render lacks the degraded-events footer:\n%s", out)
	}
}

func TestMeasurementPersistence(t *testing.T) {
	e := engine(t, 1)
	m, err := perf.Measure(e, workloads.Triad{Elements: 2048}.Body(), fig8Events, 2, perf.Batched)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveMeasurement(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMeasurement(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Runs != m.Runs || loaded.Batches != m.Batches || loaded.Mode != m.Mode {
		t.Errorf("metadata lost: %+v vs %+v", loaded, m)
	}
	for id, want := range m.Samples {
		got := loaded.Samples[id]
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples vs %d", counters.Def(id).Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s sample %d: %g vs %g", counters.Def(id).Name, i, got[i], want[i])
			}
		}
	}
	// A saved measurement can be compared against a fresh one.
	cmp, err := Compare(loaded, m)
	if err != nil {
		t.Fatal(err)
	}
	if sig := cmp.Where(SignificantOnly()); len(sig.Rows) != 0 {
		t.Errorf("identical measurements show %d significant rows", len(sig.Rows))
	}
	// Error paths.
	if _, err := LoadMeasurement(strings.NewReader("garbage")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadMeasurement(strings.NewReader(`{"events":{"NOPE":[1]}}`)); err == nil {
		t.Error("unknown event must fail")
	}
	if _, err := LoadMeasurement(strings.NewReader(`{"mode":"weird"}`)); err == nil {
		t.Error("unknown mode must fail")
	}
}

func TestMeasurementFileRoundTrip(t *testing.T) {
	e := engine(t, 1)
	m, err := perf.Measure(e, workloads.Triad{Elements: 1024}.Body(),
		[]counters.EventID{counters.AllLoads}, 1, perf.Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/m.json"
	if err := SaveMeasurementFile(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMeasurementFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Mean(counters.AllLoads) != m.Mean(counters.AllLoads) {
		t.Error("file round trip lost data")
	}
	if _, err := LoadMeasurementFile(path + ".missing"); err == nil {
		t.Error("missing file must fail")
	}
	if err := SaveMeasurementFile("/nonexistent-dir/x.json", m); err == nil {
		t.Error("unwritable path must fail")
	}
}

func TestCompareManyDetectsScaling(t *testing.T) {
	// Three thread counts of the parallel sort: the lock counter must
	// differ across configurations (significant ANOVA) while the
	// instruction count stays put.
	sortWL := workloads.ParallelSort{Elements: 1 << 13}
	events := []counters.EventID{counters.CacheLockCycle, counters.InstRetired}
	var ms []*perf.Measurement
	var labels []string
	for _, threads := range []int{1, 4, 8} {
		e, err := exec.NewEngine(exec.Config{Machine: topology.TwoSocket(), Threads: threads, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		m, err := perf.Measure(e, sortWL.Body(), events, 3, perf.Unlimited)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		labels = append(labels, "T="+string(rune('0'+threads)))
	}
	mc, err := CompareMany(labels, ms...)
	if err != nil {
		t.Fatal(err)
	}
	var lockRow, instrRow MultiRow
	for _, r := range mc.Rows {
		switch r.Event {
		case counters.CacheLockCycle:
			lockRow = r
		case counters.InstRetired:
			instrRow = r
		}
	}
	if !lockRow.Significant {
		t.Errorf("lock cycles across thread counts not significant: %v", lockRow.Test)
	}
	if lockRow.Spread() <= 0 {
		t.Error("spread must be positive")
	}
	if instrRow.Significant {
		t.Errorf("instruction count flagged significant: %v", instrRow.Test)
	}
	out := mc.SortByF().Render()
	if !strings.Contains(out, "F") || !strings.Contains(out, "Bonferroni") {
		t.Errorf("render:\n%s", out)
	}
	if mc.Rows[0].Event != counters.CacheLockCycle {
		t.Error("SortByF must put the scaling counter first")
	}
}

func TestCompareManyErrors(t *testing.T) {
	if _, err := CompareMany(nil); err == nil {
		t.Error("no measurements must fail")
	}
	m := &perf.Measurement{Samples: map[counters.EventID][]float64{}}
	if _, err := CompareMany([]string{"a"}, m, m); err == nil {
		t.Error("label mismatch must fail")
	}
	if _, err := CompareMany([]string{"a", "b"}, m, nil); err == nil {
		t.Error("nil measurement must fail")
	}
	if _, err := CompareMany([]string{"a", "b"}, m, m); err == nil {
		t.Error("empty measurement must fail")
	}
}

func TestSweepMkErrorMidSweep(t *testing.T) {
	calls := 0
	mk := func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		calls++
		if p == 2 {
			return nil, nil, errors.New("constructor refused")
		}
		e, err := exec.NewEngine(exec.Config{Machine: topology.TwoSocket(), Threads: 1})
		return e, workloads.Triad{Elements: 256}.Body(), err
	}
	_, err := RunSweep("p", []float64{1, 2, 3}, mk, []counters.EventID{counters.AllLoads}, 1, perf.Unlimited)
	if err == nil || !strings.Contains(err.Error(), "p=2") || !strings.Contains(err.Error(), "constructor refused") {
		t.Errorf("mid-sweep constructor error not propagated: %v", err)
	}
	if calls != 2 {
		t.Errorf("sweep continued past the failed point: %d calls", calls)
	}
}

func TestCompareMismatchedEventSets(t *testing.T) {
	a := &perf.Measurement{
		Samples: map[counters.EventID][]float64{
			counters.AllLoads: {100, 101},
			counters.L1Hit:    {80, 82},
		},
		Runs: 2, Reps: 2,
	}
	b := &perf.Measurement{
		Samples: map[counters.EventID][]float64{
			counters.AllLoads: {100, 99},
			counters.L2Miss:   {5, 6},
		},
		Runs: 2, Reps: 2,
	}
	cmp, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 3 {
		t.Fatalf("rows = %d, want the union of both event sets (3)", len(cmp.Rows))
	}
	if len(cmp.OnlyA) != 1 || cmp.OnlyA[0] != counters.L1Hit {
		t.Errorf("OnlyA = %v, want [L1Hit]", cmp.OnlyA)
	}
	if len(cmp.OnlyB) != 1 || cmp.OnlyB[0] != counters.L2Miss {
		t.Errorf("OnlyB = %v, want [L2Miss]", cmp.OnlyB)
	}
	if !cmp.Partial {
		t.Error("mismatched sets must mark the comparison partial")
	}
	row, ok := cmp.Row(counters.L1Hit)
	if !ok || row.CoverA != 1 || row.CoverB != 0 || !row.PartialData() {
		t.Errorf("L1Hit row coverage = %g/%g", row.CoverA, row.CoverB)
	}
	out := cmp.Render()
	for _, want := range []string{"COVER", "event sets differ: 1 events only in A, 1 only in B", "partial data"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Filtering keeps the mismatch annotations.
	filtered := cmp.Where(NonZero())
	if len(filtered.OnlyA) != 1 || len(filtered.OnlyB) != 1 {
		t.Error("Where dropped the OnlyA/OnlyB annotations")
	}
	// A filter that keeps only complete rows still describes partial data.
	if full := cmp.Where(NameContains(counters.Def(counters.AllLoads).Name)); len(full.Rows) != 1 || !full.Partial {
		t.Errorf("filtered to %d complete row(s), Partial = %v; want 1 row of a partial comparison", len(full.Rows), full.Partial)
	}
	// An event without samples on either side reads zero, yet NonZero
	// keeps its row: it is a gap, not a quiet counter.
	a.Samples[counters.L3Miss] = nil
	b.Samples[counters.L3Miss] = nil
	gapped, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	filtered = gapped.Where(NonZero())
	if row, ok := filtered.Row(counters.L3Miss); !ok || !row.Zero || !row.PartialData() {
		t.Errorf("NonZero dropped the gap row (kept %v: %+v)", ok, row)
	}
	if !filtered.Partial || !strings.Contains(filtered.Render(), "COVER") {
		t.Error("NonZero lost the comparison's partial marker")
	}
}

func TestCompareCompleteDataHasNoCoverColumn(t *testing.T) {
	mk := func() *perf.Measurement {
		return &perf.Measurement{
			Samples: map[counters.EventID][]float64{
				counters.AllLoads: {100, 101},
			},
			Runs: 2, Reps: 2,
		}
	}
	cmp, err := Compare(mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Partial {
		t.Error("complete comparison marked partial")
	}
	out := cmp.Render()
	if strings.Contains(out, "COVER") || strings.Contains(out, "partial data") {
		t.Errorf("complete data grew partiality annotations:\n%s", out)
	}
}

func TestComparePartialCoverage(t *testing.T) {
	a := &perf.Measurement{
		Samples: map[counters.EventID][]float64{counters.AllLoads: {100, 101, 99, 100}},
		Runs:    4, Reps: 4, Partial: true,
	}
	b := &perf.Measurement{
		Samples: map[counters.EventID][]float64{counters.AllLoads: {100, 102}},
		Runs:    4, Reps: 4, Partial: true,
	}
	cmp, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	row := cmp.Rows[0]
	if row.CoverA != 1 || row.CoverB != 0.5 {
		t.Errorf("coverage = %g/%g, want 1/0.5", row.CoverA, row.CoverB)
	}
	if !strings.Contains(cmp.Render(), "100/ 50%") {
		t.Errorf("render lacks the coverage cell:\n%s", cmp.Render())
	}
}

func TestSweepRenderCoverage(t *testing.T) {
	pt := func(p float64, samples ...float64) SweepPoint {
		return SweepPoint{Param: p, M: &perf.Measurement{
			Samples: map[counters.EventID][]float64{counters.AllLoads: samples},
			Runs:    len(samples), Reps: 2,
		}}
	}
	s := &Sweep{ParamName: "p", Points: []SweepPoint{
		pt(1, 10, 11), pt(2, 20, 21), pt(3, 30), // point 3 lost a sample
	}}
	cors := s.Correlate()
	if len(cors) != 1 {
		t.Fatalf("correlations = %d", len(cors))
	}
	if want := 5.0 / 6.0; cors[0].Coverage != want {
		t.Errorf("coverage = %g, want %g", cors[0].Coverage, want)
	}
	out := s.Render(0)
	if !strings.Contains(out, "COVER") || !strings.Contains(out, "83%") {
		t.Errorf("render missing coverage annotations:\n%s", out)
	}

	// A complete sweep renders without the column.
	full := &Sweep{ParamName: "p", Points: []SweepPoint{
		pt(1, 10, 11), pt(2, 20, 21), pt(3, 30, 31),
	}}
	if out := full.Render(0); strings.Contains(out, "COVER") {
		t.Errorf("complete sweep grew a COVER column:\n%s", out)
	}
}

func TestLoadMeasurementValidation(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"negative sample", `{"events":{"MEM_UOPS_RETIRED.ALL_LOADS":[1,-2]},"runs":2}`, "finite and non-negative"},
		{"negative runs", `{"events":{},"runs":-1}`, "-1 runs"},
		{"negative batches", `{"events":{},"runs":0,"batches":-2}`, "-2 batches"},
		{"negative reps", `{"events":{},"runs":0,"reps":-3}`, "-3 reps"},
		{"inconsistent lengths", `{"events":{"MEM_UOPS_RETIRED.ALL_LOADS":[1,2],"INST_RETIRED.ANY":[1]},"runs":2}`, "inconsistent sample counts"},
		{"more samples than reps", `{"events":{"MEM_UOPS_RETIRED.ALL_LOADS":[1,2,3]},"runs":3,"reps":2}`, "3 samples for 2 repetitions"},
	}
	for _, tc := range cases {
		_, err := LoadMeasurement(strings.NewReader(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	// JSON itself cannot carry NaN or ±Inf — an out-of-range literal
	// fails at the parse layer before the typed check can run.
	if _, err := LoadMeasurement(strings.NewReader(
		`{"events":{"MEM_UOPS_RETIRED.ALL_LOADS":[1,1e999]},"runs":2}`)); err == nil {
		t.Error("out-of-range literal must fail to parse")
	}
	// A repeated event key would silently drop one series without the
	// duplicate scan — encoding/json keeps only the last value.
	dup := `{"events":{"MEM_UOPS_RETIRED.ALL_LOADS":[1,2],"INST_RETIRED.ANY":[3,4],"MEM_UOPS_RETIRED.ALL_LOADS":[5,6]},"runs":2}`
	if _, err := LoadMeasurement(strings.NewReader(dup)); !errors.Is(err, ErrDuplicateEvent) {
		t.Errorf("duplicate event: err = %v, want ErrDuplicateEvent", err)
	}
	// Saving a measurement with non-finite samples fails before any
	// byte is written, with the same typed error.
	var buf bytes.Buffer
	nan := &perf.Measurement{
		Samples: map[counters.EventID][]float64{counters.AllLoads: {1, math.NaN()}},
		Runs:    2,
	}
	if err := SaveMeasurement(&buf, nan); !errors.Is(err, ErrNonFiniteSample) {
		t.Errorf("NaN save: err = %v, want ErrNonFiniteSample", err)
	}
	if buf.Len() != 0 {
		t.Error("failed save must not emit partial JSON")
	}
	// Ragged sample counts are legal when the measurement says it is
	// partial — that is exactly what campaign gaps produce.
	m, err := LoadMeasurement(strings.NewReader(
		`{"events":{"MEM_UOPS_RETIRED.ALL_LOADS":[1,2],"INST_RETIRED.ANY":[1]},"runs":2,"reps":2,"partial":true}`))
	if err != nil {
		t.Fatalf("partial measurement rejected: %v", err)
	}
	if !m.Partial || m.Coverage(counters.InstRetired) != 0.5 {
		t.Errorf("partial flags lost: partial=%v coverage=%g", m.Partial, m.Coverage(counters.InstRetired))
	}
}

func TestSaveMeasurementFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	good := &perf.Measurement{
		Samples: map[counters.EventID][]float64{counters.AllLoads: {1, 2}},
		Runs:    2, Reps: 2,
	}
	if err := SaveMeasurementFile(path, good); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// An encode failure (NaN is not representable in JSON) must leave
	// the original file untouched and no temp file behind.
	bad := &perf.Measurement{
		Samples: map[counters.EventID][]float64{counters.AllLoads: {math.NaN()}},
		Runs:    1,
	}
	if err := SaveMeasurementFile(path, bad); err == nil {
		t.Fatal("NaN measurement must fail to encode")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save clobbered the previous file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "m.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("temp files left behind: %v", names)
	}

	// A successful overwrite replaces the content in one rename.
	good2 := &perf.Measurement{
		Samples: map[counters.EventID][]float64{counters.AllLoads: {7}},
		Runs:    1, Reps: 1,
	}
	if err := SaveMeasurementFile(path, good2); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMeasurementFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Mean(counters.AllLoads) != 7 {
		t.Error("overwrite lost the new content")
	}
}
