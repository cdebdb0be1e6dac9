package experiments

import (
	"math"
	"sort"

	"numaperf/internal/core"
	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/memhist"
	"numaperf/internal/models"
	"numaperf/internal/perf"
	"numaperf/internal/phase"
	"numaperf/internal/stats"
	"numaperf/internal/workloads"
)

// TwoStep evaluates the paper's central proposal: predict the cost of a
// larger workload from counters measured on small workloads
// (code→indicator extrapolation plus indicator→cost model), and compare
// the prediction error against the monolithic baselines of Section II.
func TwoStep(cfg Config) (*Report, error) {
	m := cfg.machine()
	mk := func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		e, err := exec.NewEngine(exec.Config{Machine: m, Threads: 1, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		return e, workloads.Triad{Elements: int(p)}.Body(), nil
	}
	trainSizes := pick(cfg,
		[]float64{24576, 32768, 49152, 65536},
		[]float64{65536, 98304, 131072, 196608, 262144})
	target := pick(cfg, 196608.0, 1048576.0)
	reps := pick(cfg, 2, 3)

	train, err := core.CollectTraining(trainSizes, reps, mk)
	if err != nil {
		return nil, err
	}
	st, err := core.Build(train, "elements", 4)
	if err != nil {
		return nil, err
	}
	// Ground truth at the target size.
	truth, err := core.CollectTraining([]float64{target}, reps, mk)
	if err != nil {
		return nil, err
	}
	var actual float64
	for _, p := range truth {
		actual += p.Cycles
	}
	actual /= float64(len(truth))

	rep := newReport("twostep", "Two-step strategy vs monolithic cost models (Sec. III)")
	rep.printf("triad family, trained on sizes %v, predicting %d elements\n\n", trainSizes, int(target))
	rep.printf("%s\n", st.String())

	pred := st.PredictCycles(target)
	twoStepErr := math.Abs(pred-actual) / actual
	rep.printf("%-14s predicted %14.4g cycles  actual %14.4g  error %6.1f%%\n",
		"two-step", pred, actual, 100*twoStepErr)
	rep.Metrics["twostep_error"] = twoStepErr
	rep.Metrics["cost_r2"] = st.Cost.R2

	// Baselines see only the abstract characterisation of the target
	// run (what one could state without hardware counters).
	e, err := exec.NewEngine(exec.Config{Machine: m, Threads: 1, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(workloads.Triad{Elements: int(target)}.Body())
	if err != nil {
		return nil, err
	}
	char := models.Characterize(res)
	worstBaseline := 0.0
	bestBaseline := math.Inf(1)
	for _, b := range models.All() {
		p := b.PredictCycles(char, m)
		errRel := math.Abs(p-actual) / actual
		rep.printf("%-14s predicted %14.4g cycles  actual %14.4g  error %6.1f%%\n",
			b.Name(), p, actual, 100*errRel)
		rep.Metrics["baseline_"+b.Name()+"_error"] = errRel
		if errRel > worstBaseline {
			worstBaseline = errRel
		}
		if errRel < bestBaseline {
			bestBaseline = errRel
		}
	}
	rep.Metrics["best_baseline_error"] = bestBaseline
	rep.Metrics["worst_baseline_error"] = worstBaseline
	return rep, nil
}

// AblationBatching quantifies the paper's §IV-A design choice: when
// many counters are measured, collecting them over identically
// configured repeated runs (register batching) yields better values
// than event multiplexing within one run. Error is measured per event
// against the Unlimited ground truth.
func AblationBatching(cfg Config) (*Report, error) {
	m := cfg.machine()
	// A non-stationary workload: multiplexing extrapolates each group
	// from different execution windows, which is where it loses.
	wl := workloads.PhasedApp{
		RampChunks:    pick(cfg, 12, 32),
		ChunkBytes:    pick(cfg, uint64(128<<10), uint64(512<<10)),
		ComputePasses: pick(cfg, 3, 6),
	}
	events := []counters.EventID{
		counters.AllLoads, counters.AllStores, counters.L1Hit, counters.L1Miss,
		counters.L2Hit, counters.L2Miss, counters.L3Hit, counters.L3Miss,
		counters.L2PFRequests, counters.L3Reference, counters.BranchRetired,
		counters.BranchMiss,
	}
	reps := pick(cfg, 2, 4)
	mkEngine := func() (*exec.Engine, error) {
		return exec.NewEngine(exec.Config{Machine: m, Threads: 1, Seed: cfg.Seed})
	}
	meanAbsErr := func(mm *perf.Measurement, truth *perf.Measurement) float64 {
		var sum float64
		var n int
		for _, id := range events {
			tv := truth.Mean(id)
			if tv == 0 {
				continue
			}
			sum += math.Abs(mm.Mean(id)-tv) / tv
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	e1, err := mkEngine()
	if err != nil {
		return nil, err
	}
	truth, err := perf.Measure(e1, wl.Body(), events, reps, perf.Unlimited)
	if err != nil {
		return nil, err
	}
	e2, err := mkEngine()
	if err != nil {
		return nil, err
	}
	batched, err := perf.Measure(e2, wl.Body(), events, reps, perf.Batched)
	if err != nil {
		return nil, err
	}
	e3, err := mkEngine()
	if err != nil {
		return nil, err
	}
	muxed, err := perf.Measure(e3, wl.Body(), events, reps, perf.Multiplexed)
	if err != nil {
		return nil, err
	}
	rep := newReport("ablation-batching", "Ablation A1 — register batching vs event multiplexing")
	be := meanAbsErr(batched, truth)
	me := meanAbsErr(muxed, truth)
	rep.printf("workload: %s, %d events over %d registers\n\n", wl.Name(), len(events), m.PMU.ProgrammableCounters)
	rep.printf("%-22s %8s %14s\n", "STRATEGY", "RUNS", "MEAN |REL ERR|")
	rep.printf("%-22s %8d %13.2f%%\n", "batched (EvSel)", batched.Runs, 100*be)
	rep.printf("%-22s %8d %13.2f%%\n", "multiplexed (perf)", muxed.Runs, 100*me)
	rep.Metrics["batched_error"] = be
	rep.Metrics["multiplexed_error"] = me
	rep.Metrics["batched_runs"] = float64(batched.Runs)
	rep.Metrics["multiplexed_runs"] = float64(muxed.Runs)
	return rep, nil
}

// AblationCycling quantifies Memhist's threshold-cycling error (§IV-B)
// in two parts. On a stationary workload, duty-cycle scaling is
// unbiased and the error depends on how many slices each threshold
// receives: fine cycling (the paper's 100 Hz) stays close to the exact
// histogram while coarse cycling leaves thresholds unscheduled. On a
// two-phase workload, cycling additionally produces the negative
// interval estimates the paper describes as unavoidable.
func AblationCycling(cfg Config) (*Report, error) {
	m := cfg.machine()
	// Small chunks: threshold rotation is driven by the post-chunk
	// hook, which must fire more often than the slice length.
	mkEngine := func() (*exec.Engine, error) {
		return exec.NewEngine(exec.Config{Machine: m, Threads: 1, Seed: cfg.Seed, Chunk: 256})
	}
	// Part 1: stationary chase.
	stationary := workloads.MLC{BufferBytes: 2 << 20, Chases: pick(cfg, 40_000, 160_000)}.Body()
	e0, err := mkEngine()
	if err != nil {
		return nil, err
	}
	exact, err := memhist.Exact(e0, stationary, nil, 1)
	if err != nil {
		return nil, err
	}
	// Probe the run length once so slice sizes scale with the workload.
	eProbe, err := mkEngine()
	if err != nil {
		return nil, err
	}
	probe, err := eProbe.Run(stationary)
	if err != nil {
		return nil, err
	}
	nb := uint64(len(memhist.DefaultBounds))
	rep := newReport("ablation-cycling", "Ablation A2 — Memhist threshold-cycling error")
	rep.printf("stationary workload (%d cycles), exact total %.4g\n\n", probe.Cycles, exact.Total())
	rep.printf("%-22s %14s %14s %10s\n", "CYCLING", "TOTAL", "SHAPE ERR", "NEG BINS")
	// shapeErr is the per-interval L1 distance to the exact histogram,
	// normalised by the exact total mass — it punishes thresholds that
	// never got a slice, which total-mass error hides.
	shapeErr := func(h *memhist.Histogram) float64 {
		var sum float64
		for i := range h.Counts {
			sum += math.Abs(h.Counts[i] - exact.Counts[i])
		}
		return sum / exact.Total()
	}
	type rowT struct {
		name  string
		slice uint64
		key   string
	}
	rows := []rowT{
		{"fine (8 slices/thr)", probe.Cycles / (8 * nb), "fine"},
		{"coarse (<1 slice/thr)", probe.Cycles / (nb / 2), "coarse"},
	}
	for _, r := range rows {
		if r.slice == 0 {
			r.slice = 1
		}
		e, err := mkEngine()
		if err != nil {
			return nil, err
		}
		h, err := memhist.Collect(e, stationary, memhist.Options{SliceCycles: r.slice})
		if err != nil {
			return nil, err
		}
		errRel := shapeErr(h)
		rep.printf("%-22s %14.4g %13.1f%% %10d\n", r.name, h.Total(), 100*errRel, h.NegativeArtifacts())
		rep.Metrics[r.key+"_error"] = errRel
		rep.Metrics[r.key+"_negbins"] = float64(h.NegativeArtifacts())
	}
	// Part 2: non-stationary two-phase workload → negative bins.
	small := workloads.MLC{BufferBytes: 128 << 10, Chases: pick(cfg, 40_000, 120_000)}.Body()
	big := workloads.MLC{BufferBytes: 8 << 20, Chases: pick(cfg, 20_000, 60_000)}.Body()
	phased := func(t *exec.Thread) {
		small(t)
		big(t)
	}
	var negTotal int
	for try := 0; try < 4; try++ {
		e, err := mkEngine()
		if err != nil {
			return nil, err
		}
		h, err := memhist.Collect(e, phased, memhist.Options{SliceCycles: 400_000})
		if err != nil {
			return nil, err
		}
		negTotal += h.NegativeArtifacts()
	}
	rep.printf("\ntwo-phase workload, 4 cycled runs: %d negative interval estimates\n", negTotal)
	rep.Metrics["phased_negbins"] = float64(negTotal)
	return rep, nil
}

// AblationKPhase exercises the paper's proposed extension (§IV-C):
// detecting the individual supersteps of a BSP-like program requires
// k > 2 phases; the DP segmentation recovers the staircase and reduces
// the footprint SSE far below the two-phase fit.
func AblationKPhase(cfg Config) (*Report, error) {
	m := cfg.machine()
	steps := pick(cfg, 3, 4)
	wl := workloads.BSPApp{
		Supersteps: steps,
		StepBytes:  pick(cfg, uint64(256<<10), uint64(2<<20)),
		Passes:     pick(cfg, 3, 5),
	}
	e, err := exec.NewEngine(exec.Config{Machine: m, Threads: 2, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(wl.Body())
	if err != nil {
		return nil, err
	}
	interval := res.Cycles / 240
	if interval == 0 {
		interval = 1
	}
	samples := phase.SampleHistory(res.Footprint, res.Cycles, interval)
	rep := newReport("ablation-kphase", "Ablation A3 — k-phase detection on BSP supersteps")
	rep.printf("%s: %d supersteps → %d true phases\n\n", wl.Name(), steps, 2*steps)
	rep.printf("%-8s %16s\n", "k", "TOTAL SSE")
	var sse2 float64
	for _, k := range []int{2, steps, 2 * steps} {
		sp, err := phase.DetectPhases(samples, k)
		if err != nil {
			return nil, err
		}
		rep.printf("%-8d %16.6g\n", k, sp.TotalSSE)
		switch k {
		case 2:
			sse2 = sp.TotalSSE
			rep.Metrics["sse_k2"] = sp.TotalSSE
		case 2 * steps:
			rep.Metrics["sse_k2s"] = sp.TotalSSE
			if sse2 > 0 {
				rep.Metrics["sse_improvement"] = 1 - sp.TotalSSE/sse2
			}
		}
	}
	return rep, nil
}

// AblationGamma revisits EvSel's normality assumption (§IV-A): counter
// populations are bounded below, so the paper suggests a shifted gamma
// distribution. The experiment fits both to repeated cycle counts and
// compares the Kolmogorov–Smirnov distances.
func AblationGamma(cfg Config) (*Report, error) {
	m := cfg.machine()
	runs := pick(cfg, 30, 60)
	e, err := exec.NewEngine(exec.Config{Machine: m, Threads: 1, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	wl := workloads.Triad{Elements: pick(cfg, 8192, 65536)}
	res, err := e.Run(wl.Body())
	if err != nil {
		return nil, err
	}
	var cycles []float64
	for i := 0; i < runs; i++ {
		if i > 0 {
			res = e.Repeat(res)
		}
		cycles = append(cycles, float64(res.Total.Get(counters.CPUCycles)))
	}
	g, err := stats.FitGamma(cycles)
	if err != nil {
		return nil, err
	}
	mean, sd := stats.Mean(cycles), stats.StdDev(cycles)
	ksGamma := ksDistance(cycles, g.CDF)
	ksNormal := ksDistance(cycles, func(x float64) float64 {
		return stats.NormalCDF((x - mean) / sd)
	})
	rep := newReport("ablation-gamma", "Ablation A4 — gamma vs normal counter populations")
	rep.printf("%d runs of %s; CPU cycle population\n\n", runs, wl.Name())
	rep.printf("sample: mean %.6g sd %.4g min %.6g\n", mean, sd, minSlice(cycles))
	rep.printf("shifted gamma: shape %.3g scale %.4g shift %.6g\n", g.Shape, g.Scale, g.Shift)
	rep.printf("\n%-18s %10s\n", "MODEL", "KS DIST")
	rep.printf("%-18s %10.4f\n", "normal", ksNormal)
	rep.printf("%-18s %10.4f\n", "shifted gamma", ksGamma)
	rep.Metrics["ks_normal"] = ksNormal
	rep.Metrics["ks_gamma"] = ksGamma
	rep.Metrics["gamma_shift"] = g.Shift
	return rep, nil
}

// ksDistance computes the Kolmogorov–Smirnov statistic between the
// empirical CDF of xs and a model CDF.
func ksDistance(xs []float64, cdf func(float64) float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		lo := float64(i) / n
		hi := float64(i+1) / n
		c := cdf(x)
		if v := math.Abs(c - lo); v > d {
			d = v
		}
		if v := math.Abs(c - hi); v > d {
			d = v
		}
	}
	return d
}

func minSlice(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
