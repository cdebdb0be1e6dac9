// Command evsel is the CLI counterpart of the paper's EvSel tool: it
// lists all hardware counters of the (simulated) platform, measures a
// workload across all of them via register batching, compares two
// workloads per event with Welch's t-test, and sweeps a parameter to
// find counter correlations.
//
// Usage:
//
//	evsel -list                                   # event database
//	evsel -json > events.json                     # export the database
//	evsel -workload cachemiss-a                   # measure everything
//	evsel -workload cachemiss-a -compare cachemiss-b
//	evsel -workload parallelsort -sweep 1,2,4,8,12,18
//
// With -strict any hard data-quality degradation — non-finite samples
// dropped, series too damaged to test, degenerate statistics — turns
// into a nonzero exit after the annotated table is printed. Advisory
// diagnostics (constant series and the like) are reported in the DIAG
// column but do not affect the exit status.
//
// Every measurement, comparison and sweep runs as a supervised
// campaign: each run cell is bounded by -run-timeout and retried up to
// -max-retries times, -keep-going records typed gaps instead of aborting
// on a bad cell, and counters that repeatedly fail or return impossible
// values are quarantined and reported. With -journal every completed
// cell is appended to a CRC-checked journal, and a killed campaign
// continues with -resume exactly where it stopped. -parallel N measures
// up to N run cells concurrently; because results are committed in
// canonical cell order, the journal, tables and resume behaviour are
// byte-identical to a serial run, with or without a journal — only the
// wall-clock time changes. -journal-segments N rotates the journal into
// checkpointed segments past N bytes, keeping a long campaign's journal
// bounded (-resume and -journal-segments need -journal: without it they
// exit 2 before anything is measured); with -strict a journal disk
// fault (ENOSPC, fsync failure) aborts the campaign, without it the run
// finishes in memory and the report is marked JOURNAL DEGRADED.
// -metrics and -regions print a single engine run, so the campaign
// flags -journal, -resume and -parallel exit 2 there.
//
//	evsel -workload parallelsort -sweep 1,2,4 -journal sweep.jnl
//	evsel -workload parallelsort -sweep 1,2,4 -journal sweep.jnl -resume
//	evsel -workload parallelsort -sweep 1,2,4 -journal sweep.jnl -parallel 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/metrics"
	"numaperf/internal/perf"
	"numaperf/internal/profile"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive every
// exit path: 0 on success, 1 when a measurement fails or -strict finds
// degraded data, 2 for a usage error caught before anything is measured.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evsel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list all events with descriptions")
		jsonOut  = fs.Bool("json", false, "write the event database as JSON to stdout")
		workload = fs.String("workload", "", "workload to measure (see -workloads)")
		compare  = fs.String("compare", "", "second workload for a run comparison")
		sweepArg = fs.String("sweep", "", "comma-separated thread counts for a parameter sweep")
		machine  = fs.String("machine", "dl580", "machine: dl580, 2s, 8s, uma")
		threads  = fs.Int("threads", 1, "thread count")
		reps     = fs.Int("reps", 3, "repetitions per register batch")
		modeArg  = fs.String("mode", "batched", "batched, multiplexed or unlimited")
		events   = fs.String("events", "", "comma-separated event names (default: all)")
		wlList   = fs.Bool("workloads", false, "list available workloads")
		seed     = fs.Int64("seed", 1, "noise seed")
		minR     = fs.Float64("min-r", 0.5, "minimum |R| for sweep output")
		regions  = fs.Bool("regions", false, "print the per-code-region event attribution")
		derived  = fs.Bool("metrics", false, "print derived metrics (IPC, MPKI, bandwidths, ...)")
		saveTo   = fs.String("save", "", "save the measurement as JSON to this file")
		loadA    = fs.String("load-a", "", "load measurement A from a JSON file (with -load-b)")
		loadB    = fs.String("load-b", "", "load measurement B from a JSON file")

		strict = fs.Bool("strict", false, "exit nonzero when results rest on degraded data (non-finite samples dropped, unusable series, degenerate tests)")

		journal     = fs.String("journal", "", "journal completed campaign cells to this file, so -resume can continue a killed run")
		journalSegs = fs.Int("journal-segments", 0, "rotate the journal into checkpointed segments past this many bytes (0 = single file)")
		resume      = fs.Bool("resume", false, "resume a killed campaign from its journal (skips completed cells)")
		runTimeout  = fs.Duration("run-timeout", campaign.DefaultRunTimeout, "wall-clock bound per run attempt")
		maxRetries  = fs.Int("max-retries", campaign.DefaultMaxRetries, "retries per run cell before it becomes a gap")
		keepGoing   = fs.Bool("keep-going", false, "record typed gaps for failed cells instead of aborting the campaign")
		opBudget    = fs.Uint64("op-budget", 0, "abort any run that simulates more than this many operations (0 = unlimited)")
		parallel    = fs.Int("parallel", 1, "run cells measured concurrently; results are byte-identical at any setting")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// -metrics and -regions print one engine run, unless a sweep or a
	// comparison takes precedence. Campaign flags that would be silently
	// ignored are usage errors, caught before anything is measured.
	engineRun := (*derived || *regions) && *sweepArg == "" && *compare == ""
	switch {
	case *resume && *journal == "":
		fmt.Fprintln(stderr, "evsel: -resume requires -journal (nothing to resume from)")
		return 2
	case *journalSegs < 0:
		fmt.Fprintf(stderr, "evsel: -journal-segments must not be negative (got %d)\n", *journalSegs)
		return 2
	case *journalSegs > 0 && *journal == "":
		fmt.Fprintln(stderr, "evsel: -journal-segments requires -journal (nothing to rotate)")
		return 2
	case engineRun && (*journal != "" || *parallel > 1):
		fmt.Fprintln(stderr, "evsel: -metrics and -regions print one engine run, not a campaign: -journal, -resume and -parallel do not apply")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "evsel: %v\n", err)
		return 1
	}
	// strictExit implements -strict: the annotated table has already been
	// printed; hard degradation (non-finite samples dropped, unusable
	// series, degenerate tests) additionally becomes a nonzero exit so
	// scripts can gate on data quality. Advisory diagnostics — constant
	// series, zero-variance ties — never trip it.
	strictExit := func(hard bool, what string) int {
		if !*strict || !hard {
			return 0
		}
		fmt.Fprintf(stderr, "evsel: -strict: %s rests on degraded data (hard diagnostics above)\n", what)
		return 1
	}

	switch {
	case *list:
		for _, d := range counters.All() {
			pebs := ""
			if d.PEBS {
				pebs = " [PEBS]"
			}
			fmt.Fprintf(stdout, "%-45s %02X/%02X %-7s%s\n  %s\n", d.Name, d.Code, d.Umask, d.Domain, pebs, d.Description)
		}
		return 0
	case *jsonOut:
		if err := counters.WriteJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	case *wlList:
		for _, n := range workloads.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	case *loadA != "" && *loadB != "":
		ma, err := evsel.LoadMeasurementFile(*loadA)
		if err != nil {
			return fail(err)
		}
		mb, err := evsel.LoadMeasurementFile(*loadB)
		if err != nil {
			return fail(err)
		}
		cmp, err := evsel.Compare(ma, mb)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "comparing %s (A) with %s (B)\n\n", *loadA, *loadB)
		fmt.Fprint(stdout, cmp.SortByImpact().Where(evsel.NonZero()).Render())
		return strictExit(cmp.HardDegraded(), "comparison")
	case *workload == "":
		fs.Usage()
		return 2
	}

	mach, ok := topology.ByName(*machine)
	if !ok {
		return fail(fmt.Errorf("unknown machine %q (have %v)", *machine, topology.MachineNames()))
	}
	wl, ok := workloads.ByName(*workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (have %v)", *workload, workloads.Names()))
	}
	mode, err := parseMode(*modeArg)
	if err != nil {
		return fail(err)
	}
	ids, err := parseEvents(*events)
	if err != nil {
		return fail(err)
	}

	if engineRun {
		e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: *threads, Seed: *seed})
		if err != nil {
			return fail(err)
		}
		res, err := e.Run(wl.Body())
		if err != nil {
			return fail(err)
		}
		if *derived {
			fmt.Fprintf(stdout, "%s\n", wl.Name())
			fmt.Fprint(stdout, metrics.Render(metrics.Compute(res.Total, mach, res.Seconds)))
			return 0
		}
		out, err := profile.Render(res, 8)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n%s", wl.Name(), out)
		return 0
	}

	// Every measurement, comparison and sweep is a campaign: one point per
	// sweep value or compared workload, each cell on a fresh engine seeded
	// by its ordinal. So -parallel, -journal and -resume change how the
	// cells run, never what they measure.
	point := func(param float64, threadCount int, w workloads.Workload) campaign.Point {
		return campaign.Point{Param: param, Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
			e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: threadCount, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return e, w.Body(), nil
		}}
	}
	spec := campaign.Spec{ParamName: "threads", Events: ids, Reps: *reps, Mode: mode, Seed: *seed}
	var wlB workloads.Workload
	switch {
	case *sweepArg != "":
		for _, s := range strings.Split(*sweepArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fail(fmt.Errorf("bad sweep value %q: %v", s, err))
			}
			spec.Points = append(spec.Points, point(float64(v), v, wl))
		}
		if len(spec.Points) < 3 {
			return fail(fmt.Errorf("a sweep needs at least 3 values (got %d)", len(spec.Points)))
		}
	case *compare != "":
		if wlB, ok = workloads.ByName(*compare); !ok {
			return fail(fmt.Errorf("unknown workload %q", *compare))
		}
		spec.ParamName = "workload"
		spec.Points = []campaign.Point{point(0, *threads, wl), point(1, *threads, wlB)}
	default:
		spec.Points = []campaign.Point{point(float64(*threads), *threads, wl)}
	}
	opts := campaign.Options{
		RunTimeout:          *runTimeout,
		MaxRetries:          *maxRetries,
		OpBudget:            *opBudget,
		KeepGoing:           *keepGoing,
		Concurrency:         *parallel,
		JournalPath:         *journal,
		JournalSegmentBytes: *journalSegs,
		StrictJournal:       *strict,
		Resume:              *resume,
		BackoffSeed:         *seed,
		Logf:                func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
	}
	// The flags speak plainly (0 = off); the Options zero values select
	// package defaults, so translate.
	if *runTimeout == 0 {
		opts.RunTimeout = -1
	}
	if *maxRetries == 0 {
		opts.MaxRetries = -1
	}
	rep, err := (&campaign.Runner{Spec: spec, Opts: opts}).Run()
	if err != nil {
		return fail(err)
	}

	switch {
	case *sweepArg != "":
		sweep := &evsel.Sweep{ParamName: spec.ParamName}
		for _, pr := range rep.Points {
			sweep.Points = append(sweep.Points, evsel.SweepPoint{Param: pr.Param, M: pr.M})
		}
		fmt.Fprint(stdout, sweep.Render(*minR))
		fmt.Fprint(stdout, rep.Summary())
		return strictExit(sweep.HardDegraded(), "sweep")
	case *compare != "":
		cmp, err := evsel.Compare(rep.Points[0].M, rep.Points[1].M)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "comparing %s (A) with %s (B)\n\n", wl.Name(), wlB.Name())
		fmt.Fprint(stdout, cmp.SortByImpact().Where(evsel.NonZero()).Render())
		fmt.Fprint(stdout, rep.Summary())
		return strictExit(cmp.HardDegraded(), "comparison")
	}
	m := rep.Points[0].M
	if *saveTo != "" {
		if err := evsel.SaveMeasurementFile(*saveTo, m); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "saved measurement to %s\n", *saveTo)
	}
	fmt.Fprintf(stdout, "%s: %d runs, %d register batches (%s)\n\n", wl.Name(), m.Runs, m.Batches, m.Mode)
	fmt.Fprintf(stdout, "%-45s %15s %12s\n", "EVENT", "MEAN", "CV")
	for _, id := range m.Events() {
		samples := m.Samples[id]
		mean := m.Mean(id)
		if mean == 0 && m.Coverage(id) >= 1 {
			continue // never fired; an event with gaps stays listed
		}
		cv := coefficientOfVariation(samples, mean)
		cover := ""
		if m.Partial {
			cover = fmt.Sprintf("  %3.0f%% cover", 100*m.Coverage(id))
		}
		fmt.Fprintf(stdout, "%-45s %15.5g %11.2f%%%s\n", counters.Def(id).Name, mean, 100*cv, cover)
	}
	fmt.Fprint(stdout, rep.Summary())
	return strictExit(nonFiniteSamples(m), "measurement")
}

// nonFiniteSamples reports whether any recorded sample is NaN or ±Inf
// — the one data fault a plain measurement table can hide (the mean of
// a poisoned series is itself non-finite or silently wrong).
func nonFiniteSamples(m *perf.Measurement) bool {
	for _, samples := range m.Samples {
		for _, v := range samples {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

func coefficientOfVariation(samples []float64, mean float64) float64 {
	if len(samples) < 2 || mean == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		d := v - mean
		s += d * d
	}
	return math.Sqrt(s/float64(len(samples)-1)) / mean
}

func parseMode(s string) (perf.Mode, error) {
	switch s {
	case "batched":
		return perf.Batched, nil
	case "multiplexed":
		return perf.Multiplexed, nil
	case "unlimited":
		return perf.Unlimited, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func parseEvents(csv string) ([]counters.EventID, error) {
	if csv == "" {
		out := make([]counters.EventID, counters.NumEvents)
		for i := range out {
			out[i] = counters.EventID(i)
		}
		return out, nil
	}
	var out []counters.EventID
	for _, name := range strings.Split(csv, ",") {
		id, ok := counters.Lookup(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown event %q", name)
		}
		out = append(out, id)
	}
	return out, nil
}
