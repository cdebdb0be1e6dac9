package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// triadTraining collects training points for the Triad family over
// element counts.
func triadTraining(t *testing.T, params []float64, reps int, mach *topology.Machine) []TrainingPoint {
	t.Helper()
	pts, err := CollectTraining(params, reps, func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: 1, Seed: 17})
		if err != nil {
			return nil, nil, err
		}
		return e, workloads.Triad{Elements: int(p)}.Body(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestCollectTraining(t *testing.T) {
	pts := triadTraining(t, []float64{1024, 2048, 4096}, 2, topology.TwoSocket())
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Cycles <= 0 || p.Counts.Get(counters.AllLoads) == 0 {
			t.Errorf("bad point: %+v", p.Param)
		}
	}
	if _, err := CollectTraining(nil, 1, nil); err == nil {
		t.Error("empty params must fail")
	}
	if _, err := CollectTraining([]float64{1}, 0, nil); err == nil {
		t.Error("zero reps must fail")
	}
	bad := func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		e, err := exec.NewEngine(exec.Config{Machine: topology.UMA(), Threads: 1})
		return e, func(t *exec.Thread) { panic("x") }, err
	}
	if _, err := CollectTraining([]float64{1}, 1, bad); err == nil {
		t.Error("failing workload must propagate")
	}
}

func TestCollectTrainingParallelEquivalence(t *testing.T) {
	// The pooled collector must produce exactly the points of a serial
	// walk over the parameters — same order, same counts, same cycles —
	// at any worker count, because every parameter runs on its own
	// deterministically seeded engine.
	params := []float64{1024, 2048, 4096, 8192}
	mk := func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		e, err := exec.NewEngine(exec.Config{Machine: topology.TwoSocket(), Threads: 1, Seed: 17})
		if err != nil {
			return nil, nil, err
		}
		return e, workloads.Triad{Elements: int(p)}.Body(), nil
	}
	var ref []TrainingPoint
	for _, p := range params {
		pts, err := collectParam(p, 2, mk)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, pts...)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := CollectTrainingParallel(params, 2, workers, mk)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Param != ref[i].Param || got[i].Cycles != ref[i].Cycles {
				t.Fatalf("workers=%d point %d: %+v != %+v", workers, i, got[i], ref[i])
			}
			for id, v := range ref[i].Counts {
				if got[i].Counts[id] != v {
					t.Fatalf("workers=%d point %d: counter %v = %d, want %d",
						workers, i, id, got[i].Counts[id], v)
				}
			}
		}
	}
	// A failing parameter reports the error the serial walk would hit
	// first, regardless of worker scheduling, and a panic in mk is its
	// parameter's error at every worker count, not a crash.
	bad := func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		if p == 8192 {
			panic("mk boom")
		}
		e, err := exec.NewEngine(exec.Config{Machine: topology.UMA(), Threads: 1})
		if err != nil {
			return nil, nil, err
		}
		body := workloads.Triad{Elements: int(p)}.Body()
		if p == 2048 {
			body = func(t *exec.Thread) { panic("boom") }
		}
		return e, body, nil
	}
	for _, workers := range []int{1, 2, 3, 8} {
		if _, err := CollectTrainingParallel([]float64{1024, 2048, 4096, 8192}, 1, workers, bad); err == nil ||
			!strings.Contains(err.Error(), "param 2048") {
			t.Fatalf("workers=%d: want the first failing param's error, got %v", workers, err)
		}
		var pe *campaign.PanicError
		if _, err := CollectTrainingParallel([]float64{1024, 8192}, 1, workers, bad); !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want the panicking param's *campaign.PanicError, got %v", workers, err)
		}
	}
}

func TestSelectIndicators(t *testing.T) {
	pts := triadTraining(t, []float64{1024, 2048, 4096, 8192}, 2, topology.TwoSocket())
	ids := SelectIndicators(pts, 5)
	if len(ids) == 0 || len(ids) > 5 {
		t.Fatalf("selected %d indicators", len(ids))
	}
	// Remote DRAM never fires single threaded on local data: must not
	// be selected.
	for _, id := range ids {
		if id == counters.RemoteDRAM {
			t.Error("constant zero counter selected")
		}
	}
	// Degenerate inputs.
	if SelectIndicators(pts[:2], 5) != nil {
		t.Error("too few points must select nothing")
	}
	if SelectIndicators(pts, 0) != nil {
		t.Error("max=0 must select nothing")
	}
}

func TestCostModelFitsAndPredicts(t *testing.T) {
	pts := triadTraining(t, []float64{1024, 2048, 4096, 8192, 16384}, 2, topology.TwoSocket())
	events := SelectIndicators(pts, 4)
	cm, err := TrainCostModel(pts, events)
	if err != nil {
		t.Fatal(err)
	}
	if cm.R2 < 0.95 {
		t.Errorf("training R² = %.3f, want ≥ 0.95", cm.R2)
	}
	// In-sample predictions within 20%.
	for _, p := range pts {
		pred := cm.Predict(p.Counts)
		rel := math.Abs(pred-p.Cycles) / p.Cycles
		if rel > 0.2 {
			t.Errorf("param %g: predicted %.0f vs %.0f (%.0f%% off)",
				p.Param, pred, p.Cycles, rel*100)
		}
	}
}

func TestCostModelErrors(t *testing.T) {
	pts := triadTraining(t, []float64{1024, 2048}, 1, topology.UMA())
	if _, err := TrainCostModel(pts, nil); err == nil {
		t.Error("no events must fail")
	}
	events := []counters.EventID{counters.AllLoads, counters.InstRetired, counters.CPUCycles}
	if _, err := TrainCostModel(pts, events); err == nil {
		t.Error("underdetermined training must fail")
	}
}

func TestTwoStepExtrapolation(t *testing.T) {
	// Train on small workloads, predict a 4× larger one — the paper's
	// central use case ("measuring small yet typical workloads ...
	// extrapolate performance indicators by continuously increasing the
	// workload sizes").
	// Training sizes sit in a stable regime (working sets beyond the
	// L2) so the indicator trends extrapolate; crossing a cache-capacity
	// boundary between training and target would require measuring
	// "continuously increasing workload sizes" across it, as the paper
	// prescribes.
	mach := topology.TwoSocket()
	train := triadTraining(t, []float64{24576, 32768, 49152, 65536, 98304}, 2, mach)
	st, err := Build(train, "elements", 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cost.R2 < 0.9 {
		t.Errorf("cost R² = %.3f", st.Cost.R2)
	}

	const target = 262144
	truth := triadTraining(t, []float64{target}, 3, mach)
	var actual float64
	for _, p := range truth {
		actual += p.Cycles
	}
	actual /= float64(len(truth))
	pred := st.PredictCycles(target)
	rel := math.Abs(pred-actual) / actual
	if rel > 0.35 {
		t.Errorf("extrapolated %0.f vs actual %.0f cycles (%.0f%% off)", pred, actual, rel*100)
	}

	// The indicator values themselves extrapolate sensibly.
	vals := st.PredictIndicators(target)
	if len(vals) != len(st.Indicators) {
		t.Fatal("indicator count mismatch")
	}
	// Hold well-fitted, material indicators (R² ≥ 0.95 and within two
	// orders of magnitude of the largest one) to a 50% extrapolation
	// bound; tiny capacity-boundary counters (e.g. STLB hits) and
	// poorly fitted ones carry little cost-model weight anyway.
	var largest float64
	for _, im := range st.Indicators {
		if v := float64(truth[0].Counts.Get(im.Event)); v > largest {
			largest = v
		}
	}
	for i, im := range st.Indicators {
		measured := float64(truth[0].Counts.Get(im.Event))
		if measured < largest/100 || im.Fit.R2 < 0.95 {
			continue
		}
		if r := math.Abs(vals[i]-measured) / measured; r > 0.5 {
			t.Errorf("indicator %s (fit R²=%.3f) extrapolated %.0f vs measured %.0f",
				counters.Def(im.Event).Name, im.Fit.R2, vals[i], measured)
		}
	}
	if !strings.Contains(st.String(), "two-step") {
		t.Error("String")
	}
}

func TestPredictFromCounts(t *testing.T) {
	mach := topology.TwoSocket()
	train := triadTraining(t, []float64{1024, 2048, 4096, 8192}, 2, mach)
	st, err := Build(train, "elements", 3)
	if err != nil {
		t.Fatal(err)
	}
	p := train[len(train)-1]
	pred := st.PredictFromCounts(p.Counts)
	if rel := math.Abs(pred-p.Cycles) / p.Cycles; rel > 0.25 {
		t.Errorf("counts→cost prediction off by %.0f%%", rel*100)
	}
}

func TestTransferToOtherMachine(t *testing.T) {
	// Train on the 2-socket machine, transfer the cost model to the
	// UMA workstation with a few calibration runs; indicator models
	// stay.
	train := triadTraining(t, []float64{1024, 2048, 4096, 8192}, 2, topology.TwoSocket())
	st, err := Build(train, "elements", 3)
	if err != nil {
		t.Fatal(err)
	}
	calib := triadTraining(t, []float64{1024, 2048, 4096, 8192}, 1, topology.UMA())
	moved, err := st.Transfer(calib)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved.Indicators) != len(st.Indicators) {
		t.Error("transfer must keep indicator models")
	}
	// Predictions on the target machine track target truth.
	truth := triadTraining(t, []float64{16384}, 2, topology.UMA())
	actual := (truth[0].Cycles + truth[1].Cycles) / 2
	pred := moved.PredictCycles(16384)
	if rel := math.Abs(pred-actual) / actual; rel > 0.5 {
		t.Errorf("transferred prediction %.0f vs actual %.0f (%.0f%% off)", pred, actual, rel*100)
	}
	// Transfer with insufficient calibration fails loudly.
	if _, err := st.Transfer(calib[:1]); err == nil {
		t.Error("tiny calibration must fail")
	}
}

// TestTransferRealignsDroppedIndicators pins the alignment contract
// between Indicators and Cost.Events when retraining on calibration
// data forces the cost model to drop columns: two of the three source
// indicators are constant on the target machine, so only one survives
// and the indicator models must be filtered to match.
func TestTransferRealignsDroppedIndicators(t *testing.T) {
	mk := func(shape func(p float64) (a, l3, rd uint64)) []TrainingPoint {
		var pts []TrainingPoint
		for i := 1; i <= 10; i++ {
			p := float64(i)
			a, l3, rd := shape(p)
			c := counters.NewCounts()
			c[counters.AllLoads] = a
			c[counters.L3Miss] = l3
			c[counters.RemoteDRAM] = rd
			pts = append(pts, TrainingPoint{Param: p, Counts: c,
				Cycles: 4*float64(a) + 11*float64(l3) + 3*float64(rd) + 500})
		}
		return pts
	}
	train := mk(func(p float64) (uint64, uint64, uint64) {
		return uint64(1000 * p), uint64(300 * p * p), uint64(10 * p * p * p)
	})
	st, err := Build(train, "n", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Indicators) != 3 {
		t.Fatalf("synthetic build selected %d indicators, want 3", len(st.Indicators))
	}
	// On the target machine two of the three counters never vary.
	calib := mk(func(p float64) (uint64, uint64, uint64) {
		return uint64(1000 * p), 5000, 777
	})
	moved, err := st.Transfer(calib)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved.Cost.Events) != 1 {
		t.Fatalf("retrained cost model kept %d columns, want 1", len(moved.Cost.Events))
	}
	if len(moved.Indicators) != len(moved.Cost.Events) {
		t.Fatalf("%d indicator models for %d cost columns", len(moved.Indicators), len(moved.Cost.Events))
	}
	for i, im := range moved.Indicators {
		if im.Event != moved.Cost.Events[i] {
			t.Errorf("indicator %d is %s, cost column is %s", i,
				counters.Def(im.Event).Name, counters.Def(moved.Cost.Events[i]).Name)
		}
	}
	// String must not index Beta past its length, and the dropped
	// columns must surface as a caveat.
	if out := moved.String(); !strings.Contains(out, "caveat") {
		t.Errorf("transfer onto degenerate calibration lacks a caveat:\n%s", out)
	}
	// The surviving column is a perfect linear predictor on the
	// calibration data, so the two-step prediction is near exact.
	want := 4*1000*12.0 + 11*5000 + 3*777 + 500
	if got := moved.PredictCycles(12); math.Abs(got-want)/want > 0.05 {
		t.Errorf("PredictCycles(12) = %.0f, want ≈ %.0f", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, "x", 3); err == nil {
		t.Error("no points must fail")
	}
	// Constant points: no indicator varies.
	pts := make([]TrainingPoint, 5)
	for i := range pts {
		pts[i] = TrainingPoint{Param: float64(i), Counts: counters.NewCounts(), Cycles: 100}
	}
	if _, err := Build(pts, "x", 3); err == nil {
		t.Error("constant counters must fail")
	}
}

func TestSelectIndicatorsPrunesCollinear(t *testing.T) {
	// Construct training points where two events are perfectly
	// collinear: only one may be selected.
	pts := make([]TrainingPoint, 8)
	for i := range pts {
		c := counters.NewCounts()
		c[counters.AllLoads] = uint64(1000 * (i + 1))
		c[counters.L1Hit] = uint64(2000 * (i + 1))     // 2× AllLoads, collinear
		c[counters.L3Miss] = uint64((i + 1) * (i + 1)) // distinct shape
		pts[i] = TrainingPoint{Param: float64(i + 1), Counts: c, Cycles: float64(5000 * (i + 1))}
	}
	ids := SelectIndicators(pts, 3)
	hasLoads, hasL1 := false, false
	for _, id := range ids {
		if id == counters.AllLoads {
			hasLoads = true
		}
		if id == counters.L1Hit {
			hasL1 = true
		}
	}
	if hasLoads && hasL1 {
		t.Errorf("collinear pair both selected: %v", ids)
	}
	if !hasLoads && !hasL1 {
		t.Errorf("neither of the collinear pair selected: %v", ids)
	}
}
