// Command bench is the repository's end-to-end benchmark. It drives
// EvSel (Fig. 8), Memhist (Fig. 10b), an EvSel thread sweep through the
// campaign runner (Fig. 9) and a fleet campaign the way users drive
// them, checks every output, and prints each metric as "name value
// unit", then one JSON line. A traced run (-trace 1) prints per-layer
// metrics instead. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"numaperf/internal/counters"
	"numaperf/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config selects one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed loop
	trace    bool
	workdir  string
	small    bool // test-only downsized inputs
	setups   int  // set-ups whose median enters setup_s
	maxIters int  // cap on timed iterations; 0: none
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome in the benchmark's JSON contract.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	digest            string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	cfg := config{setups: 3}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed loop in seconds")
	traceMode := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for journals and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceMode != 0 && *traceMode != 1) || cfg.seconds <= 0 {
		fs.Usage()
		return 2
	}
	cfg.trace = *traceMode == 1
	res, err := bench(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%s %v %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct {
		return 1
	}
	return 0
}

//go:embed testdata/digests.json
var pinnedJSON []byte

// pinnedDigest returns the digest testdata/digests.json pins for the
// workload at the given seed, if any.
func pinnedDigest(workload string, seed int64) (string, bool, error) {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return "", false, fmt.Errorf("testdata/digests.json: %w", err)
	}
	d, ok := pinned[workload][fmt.Sprint(seed)]
	return d, ok, nil
}

// bench performs one run: set-up, one untimed warm-up iteration, then
// timed iterations in a closed loop with one client for about
// cfg.seconds.
func bench(cfg config, log, stderr io.Writer) (*result, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz := fullSizes
	if cfg.small {
		sz = smallSizes
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fmt.Fprintf(log, "# workload %s, seed %d, trace %v, test-size inputs %v\n", cfg.workload, cfg.seed, cfg.trace, cfg.small)
	fmt.Fprintf(log, "# machine: nproc %d, GOMAXPROCS %d, cpu %q, journal fs %s, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), fsType(dir), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(log, "# the simulated machine model is unvalidated against real hardware; no error figure is given\n")

	scale := 1.0
	if cfg.small {
		scale = 0.1
	}
	cal := newCalibrator(scale)
	cal.sample()

	// Set-up: build everything iterations reuse and make the canonical
	// runs. It is repeated and the median kept, because set-up time is
	// itself a metric; the last instance is the one that iterates.
	var setupT []float64
	var inst *instance
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		h := &harness{seed: cfg.seed, sz: sz, tr: tr, dir: dir, capture: cfg.trace && i == cfg.setups-1}
		t := time.Now()
		if inst, err = w.setup(h); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupT = append(setupT, time.Since(t).Seconds())
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintf(stderr, "bench: closing %s: %v\n", cfg.workload, err)
		}
	}()

	// Warm-up: untimed, but part of setup_s, so work moved out of the
	// iterations into lazy set-up still shows.
	tr.setIter(0)
	t := time.Now()
	err = inst.iterate()
	warm := time.Since(t).Seconds()
	tr.setIter(-1)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ref, err := inst.verify()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res := &result{correct: true, digest: ref.digest}
	fmt.Fprintf(log, "# digest %s\n", ref.digest)
	if !cfg.small {
		want, ok, err := pinnedDigest(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		if ok && want != ref.digest {
			res.correct = false
			fmt.Fprintf(stderr, "bench: digest %s differs from the one pinned for seed %d: %s\n", ref.digest, cfg.seed, want)
		}
	}

	var walls, peaks []float64
	var outs []output
	var alloc uint64
	var ms runtime.MemStats
	loop := time.Now()
	for it := 1; cfg.maxIters == 0 || it <= cfg.maxIters; it++ {
		// Start another iteration only if it should end less than half an
		// iteration past the budget.
		if it > 1 && time.Since(loop).Seconds()+walls[len(walls)-1]/2 > cfg.seconds {
			break
		}
		cal.sample()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		tr.setIter(it)
		id := tr.begin("iteration")
		t := time.Now()
		iterErr := inst.iterate()
		walls = append(walls, time.Since(t).Seconds())
		tr.end(id, 0)
		tr.setIter(-1)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - alloc0
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)

		res.attempted += inst.units
		var out output
		err = iterErr
		if err == nil {
			out, err = inst.verify()
		}
		if err == nil && out.digest != ref.digest {
			err = fmt.Errorf("digest %s differs from the warm-up's %s", out.digest, ref.digest)
		}
		if err != nil {
			res.failed += inst.units
			res.correct = false
			fmt.Fprintf(stderr, "bench: iteration %d: %v\n", it, err)
			continue
		}
		outs = append(outs, out)
	}
	cal.sample()
	speed := cal.factor()
	var timed float64
	for _, w := range walls {
		timed += w
	}
	timed *= speed
	fmt.Fprintf(log, "# calibration: median pass %.3f ms of %d; host times below are scaled by %.4f\n",
		stats.Median(cal.passes)/1e6, len(cal.passes), speed)
	fmt.Fprintf(log, "# unscaled: setup %.4f s, iteration walls %.4f s\n", stats.Median(setupT)+warm, walls)
	fmt.Fprintf(log, "iterations %d count\n", len(walls))
	fmt.Fprintf(log, "failed_frac %v ratio\n", float64(res.failed)/float64(res.attempted))

	if cfg.trace {
		res.metrics = layerMetrics(w.name, tr.snapshot(), len(walls), inst, outs, stats.Median(walls)*speed)
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path, map[string]any{"workload": cfg.workload, "seed": cfg.seed}); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# spans written to %s\n", path)
		return res, nil
	}
	done := float64(len(outs))
	res.metrics = []metric{
		{"setup_s", (stats.Median(setupT) + warm) * speed, "s"},
		{"wall_s", stats.Median(walls) * speed, "s"},
		{"sim_mips", done * float64(inst.sim[counters.InstRetired]) / timed / 1e6, "Minstr/s"},
		{"cells_per_s", done * float64(inst.cells) / timed, "1/s"},
		{"peak_rss_mb", stats.Median(peaks), "MiB"},
		{"alloc_mb_per_iter", float64(alloc) / float64(len(walls)) / (1 << 20), "MiB"},
	}
	return res, nil
}

// runSpanName names the spans that time one engine run on each
// workload: memhist.Collect and a fleet cell are one run each.
var runSpanName = map[string]string{
	"evsel-cachemiss":    "exec.run",
	"campaign-sortsweep": "exec.run",
	"memhist-remote":     "memhist.collect",
	"fleet-smallcells":   "fleet.handle",
}

// spanNames are the spans whose self times a traced run reports.
var spanNames = []string{
	"iteration", "exec.new_engine", "exec.run", "perf.measure", "evsel.compare", "evsel.sweep",
	"memhist.collect", "campaign.run", "campaign.cell", "fleet.campaign", "fleet.handle",
	"probenet.write", "journal.write", "journal.sync", "journal.syncdir",
}

// layerMetrics derives the per-layer metrics of a traced run from the
// spans of its timed iterations, the per-iteration counts the outputs
// carried, the canonical simulated counts and the load replay. Only
// trace.wall_s, the median scaled wall time, is comparable to wall_s.
func layerMetrics(workload string, spans []span, iters int, inst *instance, outs []output, wall float64) []metric {
	self := selfTimes(spans)
	durMs := map[string][]float64{}
	selfMs := map[string]float64{}
	bytes := map[string]float64{}
	var chainSelf, rootDur float64
	for i, s := range spans {
		if s.Iter < 1 {
			continue
		}
		d := float64(s.End - s.Start)
		durMs[s.Name] = append(durMs[s.Name], d/1e6)
		selfMs[s.Name] += float64(self[i]) / 1e6
		bytes[s.Name] += float64(s.Bytes)
		if s.Chain {
			chainSelf += float64(self[i])
		}
		if s.Name == "iteration" {
			rootDur += d
		}
	}
	n := float64(max(iters, 1))
	count := func(name string) float64 { return float64(len(durMs[name])) / n }
	pct := func(name string, p float64) float64 { return stats.Percentile(durMs[name], p) }
	total := func(name string) float64 {
		var sum float64
		for _, d := range durMs[name] {
			sum += d
		}
		return sum
	}
	layer := map[string]float64{}
	for _, o := range outs {
		for k, v := range o.layer {
			layer[k] += v / float64(len(outs))
		}
	}
	sim := func(ids ...counters.EventID) float64 {
		var v uint64
		for _, id := range ids {
			v += inst.sim[id]
		}
		return float64(v)
	}
	perLoad := func(ns float64) float64 {
		if inst.replay.loads == 0 {
			return 0
		}
		return ns / float64(inst.replay.loads)
	}
	var frac float64
	if rootDur > 0 {
		frac = chainSelf / rootDur
	}
	runs := runSpanName[workload]
	ms := []metric{
		{"exec.runs", count(runs), "count"},
		{"exec.run_ms_p50", pct(runs, 50), "ms"},
		{"exec.run_ms_p95", pct(runs, 95), "ms"},
		{"exec.chunks_per_run", layer["exec.chunks_per_run"], "count"},
		{"memsim.load_ns", perLoad(inst.replay.loadNs), "ns"},
		{"oslite.home_ns", perLoad(inst.replay.homeNs), "ns"},
		{"sim.instructions", sim(counters.InstRetired), "count"},
		{"sim.cycles", sim(counters.CPUCycles), "count"},
		{"sim.loads", sim(counters.AllLoads), "count"},
		{"sim.stores", sim(counters.AllStores), "count"},
		{"memsim.l1_miss", sim(counters.L1Miss), "count"},
		{"memsim.l2_miss", sim(counters.L2Miss), "count"},
		{"memsim.l3_miss", sim(counters.L3Miss), "count"},
		{"memsim.remote_dram", sim(counters.RemoteDRAM), "count"},
		{"memsim.dtlb_walks", sim(counters.DTLBLoadMissWalk, counters.DTLBStoreMissWalk), "count"},
		{"memsim.fb_full", sim(counters.FBFull), "count"},
		{"memsim.l2_pf_requests", sim(counters.L2PFRequests), "count"},
		{"perf.batches", layer["perf.batches"], "count"},
		{"perf.records_seen", layer["perf.records_seen"], "count"},
		{"perf.records_kept", layer["perf.records_kept"], "count"},
		{"perf.kept_frac", layer["perf.kept_frac"], "ratio"},
		{"perf.coverage", layer["perf.coverage"], "ratio"},
		{"evsel.compare_ms", pct("evsel.compare", 50), "ms"},
		{"memhist.collect_ms", pct("memhist.collect", 50), "ms"},
		{"campaign.cell_ms_p50", pct("campaign.cell", 50), "ms"},
		{"campaign.cell_ms_p95", pct("campaign.cell", 95), "ms"},
		{"campaign.worker_busy_frac", busyFrac(total("campaign.cell"), total("campaign.run"), campaignWorkers), "ratio"},
		{"campaign.retries", layer["campaign.retries"], "count"},
		{"journal.appends", count("journal.write"), "count"},
		{"journal.bytes", bytes["journal.write"] / n, "bytes"},
		{"journal.syncs", count("journal.sync"), "count"},
		{"journal.sync_ms_p50", pct("journal.sync", 50), "ms"},
		{"journal.sync_ms_total", total("journal.sync") / n, "ms"},
		{"journal.write_ms_total", total("journal.write") / n, "ms"},
		{"fleet.cells", layer["fleet.cells"], "count"},
		{"fleet.gaps", layer["fleet.gaps"], "count"},
		{"fleet.backpressure", layer["fleet.backpressure"], "count"},
		{"fleet.handle_ms_p50", pct("fleet.handle", 50), "ms"},
		{"fleet.handle_ms_p95", pct("fleet.handle", 95), "ms"},
		{"fleet.probe_busy_frac", busyFrac(total("fleet.handle"), total("fleet.campaign"), fleetProbes), "ratio"},
		{"probenet.bytes_in_per_cell", layer["probenet.bytes_in_per_cell"], "bytes"},
		{"probenet.bytes_out_per_cell", bytes["probenet.write"] / n / float64(inst.cells), "bytes"},
		{"probenet.writes", count("probenet.write"), "count"},
		{"probenet.write_ms_total", total("probenet.write") / n, "ms"},
		{"trace.wall_s", wall, "s"},
		{"trace.chain_sum_frac", frac, "ratio"},
	}
	for _, name := range spanNames {
		ms = append(ms, metric{name + ".self_ms", selfMs[name] / n, "ms"})
	}
	return ms
}
