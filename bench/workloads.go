package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/fleet"
	"numaperf/internal/journal"
	"numaperf/internal/memhist"
	"numaperf/internal/memsim"
	"numaperf/internal/oslite"
	"numaperf/internal/perf"
	"numaperf/internal/stats"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// sizes are the workloads' inputs. fullSizes are the benchmark's;
// smallSizes exist so the tests finish in seconds.
type sizes struct {
	fig8Size, fig8Reps int
	mlcBytes           uint64
	mlcChases          int
	mlcSlice           uint64 // threshold-cycling slice in cycles
	sortElements       int
	sortThreads        []int
	sortReps           int
	fleetCells         int
}

var (
	// The full-size slice is the paper's 100 Hz on the 2.4 GHz DL580;
	// the short test-size chase cycles faster to visit every threshold.
	fullSizes  = sizes{1024, 5, 64 << 20, 2_000_000, 24_000_000, 1 << 16, []int{1, 2, 4, 8}, 3, 512}
	smallSizes = sizes{512, 2, 4 << 20, 30_000, 200_000, 1 << 12, []int{1, 8}, 1, 8}
)

// Concurrency never exceeds the 2 vCPUs the benchmark was sized on:
// two campaign workers, two fleet probes on two loopback connections.
const (
	campaignWorkers = 2
	fleetProbes     = 2
)

// maxReplayLoads caps the load stream a traced run captures per
// canonical configuration (one Fig. 8 run at 1024² has exactly this
// many loads).
const maxReplayLoads = 1 << 20

// fig8Events are the counters the paper's Fig. 8 reports on.
var fig8Events = []counters.EventID{
	counters.InstRetired, counters.CPUCycles, counters.StallsTotal,
	counters.L1Miss, counters.L2Miss, counters.L3Miss,
	counters.L2PFRequests, counters.L3Reference, counters.LoadHitPre,
	counters.FBFull, counters.BranchMiss, counters.BranchRetired,
}

// fig9Events are the counters of the paper's Fig. 9 thread sweep.
var fig9Events = []counters.EventID{
	counters.CacheLockCycle, counters.SpecTakenJumps, counters.LockLoads,
	counters.BranchMiss, counters.InstRetired, counters.DTLBLoadMissWalk,
	counters.MachineClearsMO, counters.L3Reference,
}

// harness is what every workload's set-up and iterations share.
type harness struct {
	seed    int64
	sz      sizes
	tr      *tracer // nil in untraced runs
	dir     string  // scratch directory for journals, removed at exit
	capture bool    // capture and replay canonical load streams (traced runs)
}

// instance is a workload after set-up, ready to iterate.
type instance struct {
	// iterate runs one complete user-level analysis; it is timed.
	iterate func() error
	// verify checks the last iteration's outputs; it is not timed.
	verify func() (output, error)
	close  func() error
	units  int             // attempted units per iteration: cells for campaign and fleet, else 1
	cells  int             // engine runs per iteration
	sim    counters.Counts // exact simulated counts of one iteration
	replay replay
}

// output is what verify read off one iteration.
type output struct {
	digest string             // SHA-256 of the simulated outputs
	layer  map[string]float64 // per-layer counts the outputs carry
}

// workload is one benchmark input set, driven the way users drive it.
type workload struct {
	name  string
	setup func(h *harness) (*instance, error)
}

var allWorkloads = []workload{
	{"evsel-cachemiss", setupEvsel},
	{"memhist-remote", setupMemhist},
	{"campaign-sortsweep", setupCampaign},
	{"fleet-smallcells", setupFleet},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest hashes the JSON encoding of the given values.
func digest(vs ...any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// newEngine builds an engine inside a chain span.
func (h *harness) newEngine(cfg exec.Config) (*exec.Engine, error) {
	id := h.tr.begin("exec.new_engine")
	defer h.tr.end(id, 0)
	return exec.NewEngine(cfg)
}

// canonical runs body once on a fresh engine and adds weight times its
// exact (noise-free) counts to inst.sim. Seeds only change counter
// noise, so one run stands for every unit of its configuration. When
// capturing, it also times a replay of the run's load stream.
func (h *harness) canonical(inst *instance, cfg exec.Config, body func(*exec.Thread), weight int) error {
	e, err := exec.NewEngine(cfg)
	if err != nil {
		return err
	}
	var recs []loadRec
	if h.capture {
		e.Sim().SetLoadObserver(func(core int, vaddr, _ uint64) {
			if len(recs) < maxReplayLoads {
				recs = append(recs, loadRec{vaddr: vaddr, core: int32(core)})
			}
		})
	}
	res, err := e.Run(body)
	if err != nil {
		return fmt.Errorf("canonical run: %w", err)
	}
	if inst.sim == nil {
		inst.sim = counters.NewCounts()
	}
	for id, v := range res.Raw {
		inst.sim[id] += uint64(weight) * v
	}
	if h.capture {
		return inst.replay.add(cfg.Machine, e.Proc(), recs)
	}
	return nil
}

// loadRec is one retired load of a canonical run.
type loadRec struct {
	vaddr uint64
	core  int32
}

// replay times the two per-load lookups of the simulator's hot path on
// captured load streams: oslite home resolution through the run's own
// process, and memsim.Sim.Load on a fresh simulator. The loads are
// replayed as independent and without the run's stores, so the numbers
// are per-probe costs, not a re-simulation.
type replay struct {
	loads          int
	homeNs, loadNs float64 // total nanoseconds over all streams
}

// replayPasses is how many times each stream is replayed; the median
// pass is kept.
const replayPasses = 3

func (r *replay) add(m *topology.Machine, p *oslite.Process, recs []loadRec) error {
	if len(recs) == 0 {
		return nil
	}
	sim, err := memsim.New(m)
	if err != nil {
		return err
	}
	homes := make([]int, len(recs))
	var homeT, loadT []float64
	for pass := 0; pass < replayPasses; pass++ {
		t0 := time.Now()
		for i, rec := range recs {
			homes[i] = p.HomeNode(rec.vaddr, m.NodeOfCore(int(rec.core)))
		}
		t1 := time.Now()
		sim.Reset()
		for i, rec := range recs {
			sim.Load(int(rec.core), rec.vaddr, homes[i], false)
		}
		t2 := time.Now()
		homeT = append(homeT, float64(t1.Sub(t0)))
		loadT = append(loadT, float64(t2.Sub(t1)))
	}
	r.loads += len(recs)
	r.homeNs += stats.Median(homeT)
	r.loadNs += stats.Median(loadT)
	return nil
}

// measureRuns cuts a perf.Measure call's chain span into exec.run spans
// at the first chunk of each run (perf.Measure runs them back to back),
// and counts chunks through the engine's post-chunk hook. Each exec.run
// span is therefore its run shifted by one chunk.
type measureRuns struct {
	h      *harness
	e      *exec.Engine
	proc   *oslite.Process
	open   int
	runs   int
	chunks int
}

func (h *harness) watchRuns(e *exec.Engine) *measureRuns {
	m := &measureRuns{h: h, e: e}
	if h.tr != nil {
		e.SetPostChunkHook(m.chunk)
	}
	return m
}

func (m *measureRuns) chunk() {
	m.chunks++
	if p := m.e.Proc(); p != m.proc {
		m.proc = p
		m.runs++
		m.finish()
		m.open = m.h.tr.begin("exec.run")
	}
}

func (m *measureRuns) finish() {
	if m.open != 0 {
		m.h.tr.end(m.open, 0)
		m.open = 0
	}
}

// ---------------------------------------------------------------------
// evsel-cachemiss: Fig. 8, Listing 1 vs Listing 2 on the DL580.

func setupEvsel(h *harness) (*instance, error) {
	mach := topology.DL580Gen9()
	bodies := []func(*exec.Thread){
		workloads.CacheMissA(h.sz.fig8Size).Body(),
		workloads.CacheMissB(h.sz.fig8Size).Body(),
	}
	cfg := exec.Config{Machine: mach, Threads: 1, Seed: h.seed}
	planner, err := exec.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	runsPerSide := h.sz.fig8Reps * perf.PlanBatches(planner, fig8Events).Batches()
	inst := &instance{units: 1, cells: 2 * runsPerSide, close: func() error { return nil }}
	for _, body := range bodies {
		if err := h.canonical(inst, cfg, body, runsPerSide); err != nil {
			return nil, err
		}
	}

	var ms [2]*perf.Measurement
	var cmp *evsel.Comparison
	var text string
	var runs, chunks int
	inst.iterate = func() error {
		runs, chunks = 0, 0
		for i, body := range bodies {
			e, err := h.newEngine(cfg)
			if err != nil {
				return err
			}
			w := h.watchRuns(e)
			id := h.tr.begin("perf.measure")
			ms[i], err = perf.Measure(e, body, fig8Events, h.sz.fig8Reps, perf.Batched)
			w.finish()
			h.tr.end(id, 0)
			if err != nil {
				return fmt.Errorf("measuring listing %d: %w", i+1, err)
			}
			runs, chunks = runs+w.runs, chunks+w.chunks
		}
		id := h.tr.begin("evsel.compare")
		defer h.tr.end(id, 0)
		var err error
		if cmp, err = evsel.Compare(ms[0], ms[1]); err != nil {
			return err
		}
		text = cmp.SortByImpact().Render()
		return nil
	}
	inst.verify = func() (output, error) {
		l1, _ := cmp.Row(counters.L1Miss)
		fb, _ := cmp.Row(counters.FBFull)
		if !(l1.B.Mean > 10*l1.A.Mean) {
			return output{}, fmt.Errorf("Fig. 8 signature lost: L1 misses %.4g -> %.4g, want a rise of more than 10x", l1.A.Mean, l1.B.Mean)
		}
		if !(fb.B.Mean > fb.A.Mean) {
			return output{}, fmt.Errorf("Fig. 8 signature lost: FB_FULL %.4g -> %.4g, want a rise", fb.A.Mean, fb.B.Mean)
		}
		d, err := digest(ms[0].Samples, ms[1].Samples, text)
		layer := map[string]float64{"perf.batches": float64(ms[0].Batches)}
		if runs > 0 {
			layer["exec.chunks_per_run"] = float64(chunks) / float64(runs)
		}
		return output{digest: d, layer: layer}, err
	}
	return inst, nil
}

// ---------------------------------------------------------------------
// memhist-remote: Fig. 10b, an MLC remote chase collected by Memhist.

func setupMemhist(h *harness) (*instance, error) {
	mach := topology.DL580Gen9()
	body := workloads.MLC{BufferBytes: h.sz.mlcBytes, Chases: h.sz.mlcChases, Remote: true}.Body()
	// Small scheduling chunks so threshold rotation (driven by the
	// post-chunk hook) is finer than the 100 Hz slice.
	cfg := exec.Config{Machine: mach, Threads: 1, Seed: h.seed, Chunk: 256}
	inst := &instance{units: 1, cells: 1, close: func() error { return nil }}
	if err := h.canonical(inst, cfg, body, 1); err != nil {
		return nil, err
	}
	var hist *memhist.Histogram
	inst.iterate = func() error {
		e, err := h.newEngine(cfg)
		if err != nil {
			return err
		}
		id := h.tr.begin("memhist.collect")
		defer h.tr.end(id, 0)
		hist, err = memhist.Collect(e, body, memhist.Options{SliceCycles: h.sz.mlcSlice, Adaptive: true})
		return err
	}
	inst.verify = func() (output, error) {
		llc := mach.LLC().LatencyCycles
		local := costNear(hist, llc+mach.MemLatency)
		remote := costNear(hist, llc+mach.MemLatencyCycles(0, 1))
		if !(remote > local) {
			return output{}, fmt.Errorf("Fig. 10b signature lost: cost near remote latency %.4g <= near local %.4g", remote, local)
		}
		d, err := digest(hist)
		return output{digest: d, layer: qualityLayer(hist.Quality)}, err
	}
	return inst, nil
}

// costNear sums the cost of the histogram interval holding lat and of
// its two neighbours.
func costNear(h *memhist.Histogram, lat uint64) float64 {
	for i := range h.Bounds {
		lo, hi := h.Interval(i)
		if lat < lo || (hi != 0 && lat >= hi) {
			continue
		}
		sum := 0.0
		for j := i - 1; j <= i+1; j++ {
			if j >= 0 && j < h.Intervals() && h.Counts[j] > 0 {
				sum += h.Cost(j)
			}
		}
		return sum
	}
	return 0
}

func qualityLayer(q *perf.SampleQuality) map[string]float64 {
	if q == nil {
		return nil
	}
	layer := map[string]float64{
		"perf.records_seen": float64(q.RecordsSeen),
		"perf.records_kept": float64(q.RecordsKept),
		"perf.coverage":     q.Coverage(),
	}
	if q.RecordsSeen > 0 {
		layer["perf.kept_frac"] = float64(q.RecordsKept) / float64(q.RecordsSeen)
	}
	return layer
}

// verifyJournal fails unless journal.Verify finds every file of the
// journal at path clean, then removes the journal so the next
// iteration starts a fresh one.
func verifyJournal(path string) error {
	rep, err := journal.Verify(nil, path)
	if err != nil {
		return err
	}
	if w := rep.Worst(); w != journal.VerdictClean {
		return fmt.Errorf("journal %s: %s", path, w)
	}
	for _, f := range rep.Files {
		if err := os.Remove(f.Path); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// campaign-sortsweep: Fig. 9, a ParallelSort thread sweep through the
// campaign runner with a fsynced journal.

// cellTrace links the spans of one campaign cell: the cell itself
// (Wrap), its engine build and its run (Mk).
type cellTrace struct {
	span, run int
	chunks    int
}

func setupCampaign(h *harness) (*instance, error) {
	mach := topology.TwoSocket()
	// A ParallelSort body shares state between the threads of one run, so
	// every run gets its own.
	sort := workloads.ParallelSort{Elements: h.sz.sortElements}
	spec := campaign.Spec{ParamName: "threads", Events: fig9Events, Reps: h.sz.sortReps, Mode: perf.Batched, Seed: h.seed}
	inst := &instance{close: func() error { return nil }}
	for _, threads := range h.sz.sortThreads {
		cfg := exec.Config{Machine: mach, Threads: threads, Seed: h.seed}
		planner, err := exec.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		cells := h.sz.sortReps * perf.PlanBatches(planner, fig9Events).Batches()
		inst.cells += cells
		if err := h.canonical(inst, cfg, sort.Body(), cells); err != nil {
			return nil, err
		}
	}
	inst.units = inst.cells

	// Traced runs follow each cell: Wrap opens the cell's span, Mk (given
	// the cell's seed, Spec.Seed+index+1) opens the engine build and the
	// run under it, and the post-chunk hook counts the run's chunks. Each
	// cell index is touched only by the worker running it.
	traces := make([]cellTrace, inst.cells)
	var runSpan atomic.Int64
	for _, threads := range h.sz.sortThreads {
		spec.Points = append(spec.Points, campaign.Point{Param: float64(threads),
			Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
				cfg := exec.Config{Machine: mach, Threads: threads, Seed: seed}
				idx := int(seed - spec.Seed - 1)
				if h.tr == nil || idx < 0 || idx >= len(traces) {
					e, err := h.newEngine(cfg) // planning: on the main goroutine
					return e, sort.Body(), err
				}
				ct := &traces[idx]
				id := h.tr.open("exec.new_engine", ct.span)
				e, err := exec.NewEngine(cfg)
				h.tr.end(id, 0)
				if err != nil {
					return nil, nil, err
				}
				e.SetPostChunkHook(func() { ct.chunks++ })
				ct.run = h.tr.open("exec.run", ct.span)
				return e, sort.Body(), nil
			}})
	}
	opts := campaign.Options{Concurrency: campaignWorkers, BackoffSeed: h.seed}
	if h.tr != nil {
		opts.JournalFS = timedFS{journal.OSFS, h.tr}
		opts.Wrap = func(next campaign.RunFunc) campaign.RunFunc {
			return func(c campaign.Cell) (map[counters.EventID]float64, error) {
				ct := &traces[c.Index]
				ct.span = h.tr.open("campaign.cell", int(runSpan.Load()))
				out, err := next(c)
				if ct.run != 0 {
					h.tr.end(ct.run, 0)
					ct.run = 0
				}
				h.tr.end(ct.span, 0)
				return out, err
			}
		}
	}

	var rep *campaign.Report
	var text, path string
	n := 0
	inst.iterate = func() error {
		n++
		for i := range traces {
			traces[i] = cellTrace{}
		}
		path = filepath.Join(h.dir, fmt.Sprintf("campaign-%d.journal", n))
		o := opts
		o.JournalPath = path
		id := h.tr.begin("campaign.run")
		runSpan.Store(int64(id))
		var err error
		rep, err = (&campaign.Runner{Spec: spec, Opts: o}).Run()
		h.tr.end(id, 0)
		if err != nil {
			return err
		}
		id = h.tr.begin("evsel.sweep")
		defer h.tr.end(id, 0)
		sweep := &evsel.Sweep{ParamName: spec.ParamName}
		for _, pr := range rep.Points {
			sweep.Points = append(sweep.Points, evsel.SweepPoint{Param: pr.Param, M: pr.M})
		}
		text = sweep.Render(0.5)
		return nil
	}
	inst.verify = func() (output, error) {
		if !rep.Complete() || rep.Ran != rep.Cells {
			return output{}, fmt.Errorf("campaign incomplete: %s", rep.Summary())
		}
		if err := verifyJournal(path); err != nil {
			return output{}, err
		}
		first, last := rep.Points[0].M, rep.Points[len(rep.Points)-1].M
		if !(last.Mean(counters.CacheLockCycle) > first.Mean(counters.CacheLockCycle)) {
			return output{}, fmt.Errorf("Fig. 9 signature lost: cache-lock cycles %.4g -> %.4g, want a rise",
				first.Mean(counters.CacheLockCycle), last.Mean(counters.CacheLockCycle))
		}
		if !(last.Mean(counters.SpecTakenJumps) < first.Mean(counters.SpecTakenJumps)) {
			return output{}, fmt.Errorf("Fig. 9 signature lost: speculative jumps %.4g -> %.4g, want a fall",
				first.Mean(counters.SpecTakenJumps), last.Mean(counters.SpecTakenJumps))
		}
		d, err := digest(rep.Points, text)
		layer := map[string]float64{
			"campaign.retries": float64(rep.Retried),
			"perf.batches":     float64(rep.Points[0].M.Batches),
		}
		if h.tr != nil {
			chunks := 0
			for _, ct := range traces {
				chunks += ct.chunks
			}
			layer["exec.chunks_per_run"] = float64(chunks) / float64(len(traces))
		}
		return output{digest: d, layer: layer}, err
	}
	return inst, nil
}

// ---------------------------------------------------------------------
// fleet-smallcells: a fleet campaign of small pointer-chase cells on
// two in-process probe agents over loopback, with a fsynced
// coordinator journal.

func setupFleet(h *harness) (*instance, error) {
	spec := fleet.Spec{Workload: "pointer-chase", Machine: "uma", Cells: h.sz.fleetCells, Seed: h.seed}
	wl, _ := workloads.ByName(spec.Workload)
	mach, _ := topology.ByName(spec.Machine)
	inst := &instance{units: spec.Cells, cells: spec.Cells}
	// memhist.HandleRequest runs each cell on a default engine.
	if err := h.canonical(inst, exec.Config{Machine: mach, Threads: 1, Seed: h.seed}, wl.Body(), spec.Cells); err != nil {
		return nil, err
	}

	path := filepath.Join(h.dir, "fleet.journal")
	opts := fleet.Options{JournalPath: path}
	if h.tr != nil {
		opts.JournalFS = timedFS{journal.OSFS, h.tr}
	}
	coord := fleet.NewCoordinator(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(ln) }()

	// The Handle wrapper keeps every cell's histogram so verify can
	// re-merge them; cell i carries seed Spec.Seed+i+1.
	var mu sync.Mutex
	seen := make([]*memhist.Histogram, spec.Cells)
	var campaignSpan, bytesIn atomic.Int64
	handle := func(req memhist.ProbeRequest) (*memhist.Histogram, error) {
		id := h.tr.open("fleet.handle", int(campaignSpan.Load()))
		hist, err := memhist.HandleRequest(req)
		h.tr.end(id, 0)
		if i := int(req.Seed - spec.Seed - 1); err == nil && i >= 0 && i < len(seen) {
			mu.Lock()
			seen[i] = hist
			mu.Unlock()
		}
		return hist, err
	}
	var dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	if h.tr != nil {
		dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout(network, addr, timeout)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, tr: h.tr, parent: &campaignSpan, in: &bytesIn}, nil
		}
	}
	ctx, stopAgents := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	for i := 0; i < fleetProbes; i++ {
		agent := &fleet.ProbeAgent{ID: fmt.Sprintf("probe-%d", i+1), Coordinator: ln.Addr().String(), Handle: handle, Dial: dial}
		agents.Add(1)
		go func() {
			defer agents.Done()
			_ = agent.Run(ctx) // returns ctx.Err() once stopped
		}()
	}
	inst.close = func() error {
		stopAgents()
		agents.Wait()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := coord.Shutdown(sctx)
		return errors.Join(err, <-serveErr)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = coord.WaitForProbes(wctx, fleetProbes)
	cancel()
	if err != nil {
		return nil, errors.Join(err, inst.close())
	}

	var rep *fleet.Report
	var in0 int64
	inst.iterate = func() error {
		for i := range seen {
			seen[i] = nil
		}
		in0 = bytesIn.Load()
		id := h.tr.begin("fleet.campaign")
		campaignSpan.Store(int64(id))
		defer func() {
			campaignSpan.Store(0)
			h.tr.end(id, 0)
		}()
		var err error
		rep, err = coord.RunCampaign(context.Background(), spec)
		return err
	}
	inst.verify = func() (output, error) {
		if !rep.Complete() || len(rep.Gaps) > 0 || len(rep.Quarantined) > 0 || rep.Histogram == nil {
			return output{}, fmt.Errorf("fleet campaign incomplete: %s", rep.Summary())
		}
		if err := verifyJournal(path); err != nil {
			return output{}, err
		}
		mu.Lock()
		merged, err := memhist.MergeHistograms(seen)
		mu.Unlock()
		if err != nil {
			return output{}, fmt.Errorf("re-merging the handled cells: %w", err)
		}
		got, err1 := json.Marshal(rep.Histogram)
		want, err2 := json.Marshal(merged)
		if err := errors.Join(err1, err2); err != nil {
			return output{}, err
		}
		if !bytes.Equal(got, want) {
			return output{}, errors.New("fleet histogram differs from the merge of the cells the probes handled")
		}
		d, err := digest(rep.Histogram)
		layer := qualityLayer(rep.Histogram.Quality)
		layer["fleet.cells"] = float64(rep.Completed)
		layer["fleet.gaps"] = float64(len(rep.Gaps))
		layer["fleet.backpressure"] = float64(rep.Backpressure)
		layer["probenet.bytes_in_per_cell"] = float64(bytesIn.Load()-in0) / float64(rep.Cells)
		return output{digest: d, layer: layer}, err
	}
	return inst, nil
}
