package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sort"
	"time"

	"numaperf/internal/campaign"
	"numaperf/internal/clockx"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/faultdata"
	"numaperf/internal/faultdisk"
	"numaperf/internal/faultfleet"
	"numaperf/internal/faultnet"
	"numaperf/internal/faultperf"
	"numaperf/internal/faultrun"
	"numaperf/internal/fleet"
	"numaperf/internal/memhist"
	"numaperf/internal/perf"
	"numaperf/internal/probenet"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// RunOptions tunes a scenario run without changing what the scenario
// means.
type RunOptions struct {
	// Seed overrides the scenario's seed when non-zero (the CLI's
	// -seed flag).
	Seed int64
	// Workers overrides campaign-mode concurrency when positive — the
	// conformance suite runs every scenario at 1 and 4 workers and the
	// report must not move.
	Workers int
	// Dir is the scratch directory for fleet crash journals; empty
	// uses the system temp directory.
	Dir string
	// Logf receives progress diagnostics (never part of the report;
	// free to be nondeterministic). Nil discards them.
	Logf func(format string, args ...any)
}

func (o RunOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// outcome carries everything the assertion checks may inspect after
// the stage ran.
type outcome struct {
	origin     string
	matchesRef bool
	hist       *memhist.Histogram
	camp       *campaign.Report
	cmp        *evsel.Comparison
	perfScript *faultperf.Script
	fleetRep   *fleet.Report
	render     string
	records    []Record

	// journalVerify is the offline fsck verdict of what a fleet
	// campaign with fleet.journal left on disk.
	journalVerify string
}

// rig holds the injector scripts a stage's fault events armed. A stage
// builds one with newRig, which arms every fault through its registry
// entry, then drives the scripts it reads back. The zero value of every
// script injects nothing, so a stage may wire them in unconditionally.
type rig struct {
	mach  *topology.Machine     // converts perf windows to engine cycles
	plans map[string]*probePlan // fleet members by probe ID

	conns       map[int]*faultnet.ConnScript // fetch: faults per accepted connection
	failAccepts int

	run  faultrun.Script
	data []func(*faultdata.Injector, *perf.Measurement) *perf.Measurement

	weather weather // PMU weather on every probe (collect: the one run)

	disk       faultdisk.Script
	kill       faultfleet.CoordinatorScript
	crash      bool // a fault kills the coordinator: drive the kill-resume path
	midScatter bool // the kill lands mid-scatter
	late       int  // probes whose first dials are refused
}

func newRig(mach *topology.Machine, plans []*probePlan, faults []Event) *rig {
	r := &rig{mach: mach, plans: make(map[string]*probePlan), conns: make(map[int]*faultnet.ConnScript)}
	for _, p := range plans {
		r.plans[p.id] = p
	}
	for _, ev := range faults {
		registry[ev.Action].arm(r, ev)
	}
	return r
}

// conn returns the fault script of accepted connection i.
func (r *rig) conn(i int) *faultnet.ConnScript {
	if r.conns[i] == nil {
		r.conns[i] = &faultnet.ConnScript{}
	}
	return r.conns[i]
}

// weather is replayable PMU weather: each serve builds a fresh
// faultperf script from it, so every serve of a cell — first dispatch,
// re-dispatch or the local reference — meets identical weather.
type weather []func(*faultperf.Script)

func (w weather) script() *faultperf.Script {
	s := faultperf.NewScript()
	for _, add := range w {
		add(s)
	}
	return s
}

// handle serves a probe request under this weather.
func (w weather) handle(req memhist.ProbeRequest) (*memhist.Histogram, error) {
	return memhist.HandleRequestWith(req, perf.SamplerOptions{Disruptor: w.script()})
}

// Run executes a validated scenario and returns its deterministic run
// report. The timeline semantics: fault events are armed before the
// stage runs (their `at` orders the report and, for faultperf weather,
// converts to engine cycles); assertion events are evaluated against
// the stage outcome after it finishes. Fetch and campaign retry and
// backoff sleeps advance a clockx fake clock instead of the wall
// clock; fleet scenarios run their control plane on the tight
// real-time supervision windows the faultfleet chaos suite
// established.
func Run(sc *Scenario, opts RunOptions) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	ensureWorkloads()
	seed := sc.Seed
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	if seed == 0 {
		seed = 1
	}
	res := &Result{Scenario: sc, Seed: seed}
	res.Records = append(res.Records, Record{"header", headerRec{"header", ReportVersion, sc.Name, sc.Mode, seed}})

	faults, asserts := splitEvents(sc.Events)
	fake := clockx.NewFake(time.Unix(0, 0))

	var out *outcome
	var err error
	switch sc.Mode {
	case ModeFetch:
		out, err = runFetch(sc, seed, faults, fake, opts)
	case ModeCampaign:
		out, err = runCampaignStage(sc, seed, faults, fake, opts)
	case ModeCollect:
		out, err = runCollect(sc, seed, faults, opts)
	case ModeFleet:
		var probes []FleetProbe
		out, probes, err = runFleetStage(sc, seed, faults, opts)
		if err == nil {
			res.Records = append(res.Records, Record{"fleet", fleetRec{"fleet", probes}})
		}
	default:
		err = &SpecError{Field: "mode", Msg: "unknown mode " + sc.Mode}
	}
	if err != nil {
		return nil, err
	}

	for _, ev := range faults {
		res.Records = append(res.Records, Record{"fault", faultRec{"fault", ev.At.String(), ev}})
	}
	res.Records = append(res.Records, out.records...)
	for _, ev := range asserts {
		ok, detail := registry[ev.Action].check(sc, ev, out)
		if ok {
			res.Passed++
		} else {
			res.Failed++
		}
		res.Records = append(res.Records, Record{"assert", assertRec{"assert", ev.At.String(), ev.Action, ev.Target, ok, detail}})
	}
	res.Records = append(res.Records, Record{"verdict", verdictRec{"verdict", res.Failed == 0, res.Passed, res.Failed}})
	return res, nil
}

// splitEvents separates fault events from assertions, each stably
// ordered by `at` (ties keep file order).
func splitEvents(events []Event) (faults, asserts []Event) {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for _, ev := range sorted {
		if registry[ev.Action].check != nil {
			asserts = append(asserts, ev)
		} else {
			faults = append(faults, ev)
		}
	}
	return faults, asserts
}

func lookupMachine(name string) (*topology.Machine, error) {
	if name == "" {
		name = "dl580"
	}
	m, ok := topology.ByName(name)
	if !ok {
		return nil, &SpecError{Field: "machine", Msg: fmt.Sprintf("unknown machine %q", name)}
	}
	return m, nil
}

func lookupWorkload(name string) (workloads.Workload, error) {
	wl, ok := workloads.ByName(name)
	if !ok {
		return nil, &SpecError{Field: "workload", Msg: fmt.Sprintf("unknown workload %q", name)}
	}
	return wl, nil
}

// --- fetch stage: faultnet between a retrying client and a real probe
// server. ---

// helloFrameLen reproduces the exact on-wire size of the probe
// server's HELLO frame so response-side byte offsets can be expressed
// relative to the response stream, not the raw connection.
func helloFrameLen() (int64, error) {
	var buf bytes.Buffer
	err := probenet.WriteFrame(&buf, probenet.FrameHello, &probenet.Hello{
		Version:   probenet.Version,
		Workloads: workloads.Names(),
		Machines:  topology.MachineNames(),
		MaxFrame:  probenet.MaxFrame,
	})
	if err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

func runFetch(sc *Scenario, seed int64, faults []Event, fake *clockx.Fake, opts RunOptions) (*outcome, error) {
	fs := sc.Fetch
	req := memhist.ProbeRequest{
		Workload: fs.Workload,
		Machine:  fs.Machine,
		Threads:  fs.Threads,
		Bounds:   append([]uint64(nil), fs.Bounds...),
		Reps:     fs.Reps,
		Seed:     seed,
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	hlen, err := helloFrameLen()
	if err != nil {
		return nil, err
	}
	r := newRig(nil, nil, faults)
	script := func(i int) *faultnet.ConnScript {
		cs := r.conns[i]
		if cs == nil {
			return cs
		}
		if cs.CorruptWriteAt != 0 {
			cs.CorruptWriteAt += hlen
		}
		if cs.TruncateWriteAt != 0 {
			cs.TruncateWriteAt += hlen
		}
		return cs
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fl := faultnet.Wrap(ln, faultnet.Options{Seed: seed, FailFirstAccepts: r.failAccepts, Script: script})
	srv := &memhist.ProbeServer{MaxConns: 8}
	done := make(chan struct{})
	go func() { _ = srv.Serve(fl); close(done) }()
	defer func() { ln.Close(); <-done }()

	ref, err := memhist.HandleRequest(req)
	if err != nil {
		return nil, fmt.Errorf("scenario: fetch reference: %w", err)
	}
	timeout := fs.Timeout.D()
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	out := &outcome{}
	opts.logf("fetch: dialing probe with %d retries", fs.Retries)
	h, ferr := memhist.FetchRemoteWith(ln.Addr().String(), req, memhist.FetchOptions{
		Timeout:       timeout,
		Retries:       fs.Retries,
		FallbackLocal: fs.FallbackLocal,
		Sleep:         func(d time.Duration) { fake.Advance(d) },
	})
	if ferr != nil {
		// The error text may carry ephemeral addresses, so the report
		// records only the deterministic verdict.
		opts.logf("fetch failed: %v", ferr)
		out.origin = "error"
		out.render = "fetch failed"
		out.records = append(out.records, Record{"outcome", fetchOutcomeRec{"outcome", "fetch", "error", false, json.RawMessage("null")}})
		return out, nil
	}
	out.hist = h
	out.origin = h.Origin
	out.matchesRef = reflect.DeepEqual(h.Bounds, ref.Bounds) && reflect.DeepEqual(h.Counts, ref.Counts)
	hj, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	out.render = h.Render(memhist.Occurrences, 60)
	out.records = append(out.records, Record{"outcome", fetchOutcomeRec{"outcome", "fetch", h.Origin, out.matchesRef, hj}})
	return out, nil
}

// --- campaign stage: faultrun inside the supervised runner, faultdata
// on the gathered measurement. ---

func runCampaignStage(sc *Scenario, seed int64, faults []Event, fake *clockx.Fake, opts RunOptions) (*outcome, error) {
	cs := sc.Campaign
	wl, err := lookupWorkload(cs.Workload)
	if err != nil {
		return nil, err
	}
	mach, err := lookupMachine(cs.Machine)
	if err != nil {
		return nil, err
	}
	evIDs := make([]counters.EventID, 0, len(cs.Events))
	for _, name := range cs.Events {
		id, ok := counters.Lookup(name)
		if !ok {
			return nil, &SpecError{Field: "campaign.events", Msg: fmt.Sprintf("unknown counter %q", name)}
		}
		evIDs = append(evIDs, id)
	}
	mode := perf.Batched
	switch cs.Mode {
	case "multiplexed":
		mode = perf.Multiplexed
	case "unlimited":
		mode = perf.Unlimited
	}
	r := newRig(nil, nil, faults)
	defer r.run.Release()
	threads := cs.Threads
	if len(threads) == 0 {
		threads = []int{1}
	}
	points := make([]campaign.Point, 0, len(threads))
	for _, th := range threads {
		th := th
		points = append(points, campaign.Point{
			Param: float64(th),
			Mk: func(cellSeed int64) (*exec.Engine, func(*exec.Thread), error) {
				e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: th, Seed: cellSeed, Chunk: 1024})
				if err != nil {
					return nil, nil, err
				}
				return e, wl.Body(), nil
			},
		})
	}
	reps := cs.Reps
	if reps == 0 {
		reps = 3
	}
	workers := cs.Workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	runTimeout := cs.RunTimeout.D()
	if runTimeout == 0 {
		runTimeout = 10 * time.Second
	}
	runner := campaign.Runner{
		Spec: campaign.Spec{ParamName: "threads", Points: points, Events: evIDs, Reps: reps, Mode: mode, Seed: seed},
		Opts: campaign.Options{
			RunTimeout:  runTimeout,
			MaxRetries:  cs.MaxRetries,
			KeepGoing:   cs.KeepGoing,
			Concurrency: workers,
			Sleep:       func(d time.Duration) { fake.Advance(d) },
			Wrap:        r.run.Wrap,
			Logf:        opts.Logf,
		},
	}
	rep, err := runner.Run()
	if err != nil {
		return nil, fmt.Errorf("scenario: campaign stage: %w", err)
	}
	out := &outcome{camp: rep, render: rep.Summary()}

	var gaps []string
	for _, g := range rep.Gaps {
		gaps = append(gaps, g.Cell.Key())
	}
	var quar []string
	for _, q := range rep.Quarantined {
		quar = append(quar, q.Name)
	}
	var pts []pointOutcome
	for _, pr := range rep.Points {
		po := pointOutcome{Param: pr.Param}
		for _, name := range cs.Events {
			id, _ := counters.Lookup(name)
			s := pr.M.Samples[id]
			if len(s) == 0 {
				continue
			}
			mean := pr.M.Mean(id)
			em := eventMean{Event: name, Mean: mean, Samples: len(s)}
			if math.IsNaN(mean) || math.IsInf(mean, 0) {
				em.Mean, em.NonFinite = 0, true
			}
			po.Events = append(po.Events, em)
		}
		pts = append(pts, po)
	}
	out.records = append(out.records, Record{"outcome", campaignOutcomeRec{
		Kind: "outcome", Stage: "campaign",
		Complete: rep.Complete(), Cells: rep.Cells, Retried: rep.Retried,
		Gaps: gaps, Quarantined: quar, Points: pts,
	}})

	if len(r.data) > 0 {
		if len(rep.Points) == 0 || rep.Points[0].M == nil {
			return nil, errors.New("scenario: data stage has no measurement to poison")
		}
		base := rep.Points[0].M
		inj := faultdata.New(seed)
		faulted := base
		for _, poison := range r.data {
			faulted = poison(inj, faulted)
		}
		cmp, err := evsel.Compare(base, faulted)
		if err != nil {
			return nil, fmt.Errorf("scenario: analyze stage: %w", err)
		}
		out.cmp = cmp
		out.render = cmp.Render()
		var diag []string
		for _, row := range cmp.Rows {
			if row.Degraded() {
				diag = append(diag, row.Name)
			}
		}
		out.records = append(out.records, Record{"outcome", analyzeOutcomeRec{
			Kind: "outcome", Stage: "analyze",
			Degraded: cmp.Degraded(), HardDegraded: cmp.HardDegraded(), DiagEvents: diag,
		}})
	}
	return out, nil
}

// --- collect stage: faultperf PMU weather under memhist.Collect.
// Timeline durations convert to engine cycles at the machine's clock
// rate ("at: 40us" on a 2.4 GHz machine is cycle 96000). ---

func cyclesAt(d Duration, mach *topology.Machine) uint64 {
	return uint64(d.D().Seconds() * float64(mach.FreqHz))
}

func runCollect(sc *Scenario, seed int64, faults []Event, opts RunOptions) (*outcome, error) {
	cs := sc.Collect
	wl, err := lookupWorkload(cs.Workload)
	if err != nil {
		return nil, err
	}
	mach, err := lookupMachine(cs.Machine)
	if err != nil {
		return nil, err
	}
	threads := cs.Threads
	if threads == 0 {
		threads = 1
	}
	chunk := cs.Chunk
	if chunk == 0 {
		chunk = 1024
	}
	e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: threads, Seed: seed, Chunk: chunk})
	if err != nil {
		return nil, err
	}
	script := newRig(mach, nil, faults).weather.script()
	opts.logf("collect: measuring %s on %s", cs.Workload, mach.Name)
	h, err := memhist.Collect(e, wl.Body(), memhist.Options{
		Bounds:      cs.Bounds,
		SliceCycles: cs.SliceCycles,
		Reps:        cs.Reps,
		Adaptive:    cs.Adaptive,
		Sampler: perf.SamplerOptions{
			BufferCap:      cs.BufferCap,
			ThrottleLimit:  cs.ThrottleLimit,
			ThrottleWindow: cs.ThrottleWindow,
			Disruptor:      script,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: collect stage: %w", err)
	}
	out := &outcome{hist: h, perfScript: script}
	out.render = h.Render(memhist.Occurrences, 60)
	hj, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	duty := 1.0
	if h.Quality != nil {
		duty = h.Quality.DutyCycle()
	}
	out.records = append(out.records, Record{"outcome", collectOutcomeRec{
		Kind: "outcome", Stage: "collect",
		Coverage:       h.Coverage(),
		DutyCycle:      duty,
		RecordsDropped: script.RecordsDropped(),
		ThrottlesFired: script.ThrottlesFired(),
		SlicesStarved:  script.SlicesStarved(),
		DrainsStalled:  script.DrainsStalled(),
		Histogram:      hj,
	}})
	return out, nil
}
