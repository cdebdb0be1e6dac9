// Command memhist is the CLI counterpart of the paper's Memhist tool:
// it measures the latency-cost distribution of memory loads with the
// (simulated) PEBS load-latency facility, either locally or through a
// remote headless probe (see cmd/memhist-probe), and renders the
// histogram with peak annotations.
//
// Usage:
//
//	memhist -workload mlc-local
//	memhist -workload mlc-remote -mode costs
//	memhist -workload sift -threads 8 -machine dl580
//	memhist -workload mlc-remote -remote host:9844
//	memhist -workload sift -remote host:9844 -retries 3 -fallback-local
//	memhist -workload mlc-local -adaptive -strict -min-coverage 0.5
//
// The flags build one probe request, which is measured in process by
// memhist.HandleRequest or sent to the probe, whose server measures it
// the same way; a local fallback does too. So the local, remote and
// fallback routes print the same histogram, and only the "source:" line
// says which one ran.
//
// The histogram carries a sampling-fidelity report (coverage, dropped
// records, throttled cycles); -strict turns fidelity into an exit code:
// the report is always printed, but coverage below -min-coverage or a
// clamped-negative-mass share above -max-clamped-share exits nonzero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"numaperf/internal/memhist"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive every
// exit path: 0 on success, 1 when a measurement fails or a -strict gate
// does, 2 for a usage error caught before anything is measured.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memhist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to profile")
		machine  = fs.String("machine", "dl580", "machine: dl580, 2s, 8s, uma")
		threads  = fs.Int("threads", 1, "thread count")
		modeArg  = fs.String("mode", "occurrences", "occurrences or costs")
		exact    = fs.Bool("exact", false, "full-information sampling instead of threshold cycling")
		remote   = fs.String("remote", "", "fetch from a probe at host:port instead of measuring locally")
		retries  = fs.Int("retries", 0, "extra attempts after transient probe failures")
		fallback = fs.Bool("fallback-local", false, "measure locally if the probe stays unreachable")
		probeTO  = fs.Duration("probe-timeout", 5*time.Minute, "per-attempt probe deadline")
		boundCSV = fs.String("bounds", "", "comma-separated latency thresholds in cycles")
		slice    = fs.Uint64("slice", 0, "threshold-cycling slice in cycles (0 = 100 Hz)")
		reps     = fs.Int("reps", 1, "cycled runs to average")
		width    = fs.Int("width", 60, "histogram bar width")
		seed     = fs.Int64("seed", 1, "noise seed")
		wlList   = fs.Bool("workloads", false, "list available workloads")
		adaptive = fs.Bool("adaptive", false, "repair starved thresholds with adaptive dwell cycling")
		strict   = fs.Bool("strict", false, "exit nonzero when the fidelity gates below fail")
		minCov   = fs.Float64("min-coverage", memhist.DefaultCoverageFloor,
			"-strict gate: minimum sampling coverage")
		maxClamp = fs.Float64("max-clamped-share", 1,
			"-strict gate: maximum share of histogram mass clamped as negative artefacts")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *wlList {
		for _, n := range workloads.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *workload == "" {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		// Errors from internal/memhist already carry the package prefix.
		fmt.Fprintf(stderr, "memhist: %s\n", strings.TrimPrefix(err.Error(), "memhist: "))
		return 1
	}

	mode := memhist.Occurrences
	switch *modeArg {
	case "occurrences":
	case "costs":
		mode = memhist.Costs
	default:
		return fail(fmt.Errorf("unknown mode %q", *modeArg))
	}
	bounds, err := parseBounds(*boundCSV)
	if err != nil {
		return fail(err)
	}
	mach, ok := topology.ByName(*machine)
	if !ok {
		return fail(fmt.Errorf("unknown machine %q (have %v)", *machine, topology.MachineNames()))
	}

	req := memhist.ProbeRequest{
		Workload:    *workload,
		Machine:     *machine,
		Threads:     *threads,
		Bounds:      bounds,
		SliceCycles: *slice,
		Reps:        *reps,
		Exact:       *exact,
		Adaptive:    *adaptive,
		Seed:        *seed,
	}
	var h *memhist.Histogram
	if *remote == "" {
		h, err = memhist.HandleRequest(req)
	} else {
		h, err = memhist.FetchRemoteWith(*remote, req, memhist.FetchOptions{
			Timeout:       *probeTO,
			Retries:       *retries,
			FallbackLocal: *fallback,
		})
	}
	if err != nil {
		return fail(err)
	}
	switch h.Origin {
	case memhist.OriginLocalFallback:
		fmt.Fprintf(stdout, "source: local fallback (probe %s unreachable)\n\n", *remote)
	case memhist.OriginProbe:
		fmt.Fprintf(stdout, "source: remote probe %s\n\n", *remote)
	}

	fmt.Fprint(stdout, h.Render(mode, *width))
	fmt.Fprintln(stdout, "\npeaks:")
	for _, p := range h.Annotate(mach) {
		hi := fmt.Sprint(p.Hi)
		if p.Hi == 0 {
			hi = "∞"
		}
		fmt.Fprintf(stdout, "  [%d, %s) cycles: %-14s (%.4g events)\n", p.Lo, hi, p.Label, p.Count)
	}
	if n := h.NegativeArtifacts(); n > 0 {
		fmt.Fprintf(stdout, "\n%d interval(s) with negative estimates — threshold-cycling artefact, see paper §IV-B\n", n)
	}
	if h.Quality != nil {
		fmt.Fprintf(stdout, "\nsampling fidelity: %s\n", h.Quality)
	}

	// -strict: the report above is always printed; fidelity only decides
	// the exit code, matching the other CLIs' strict mode.
	if *strict {
		failed := false
		if cov := h.Coverage(); cov < *minCov {
			fmt.Fprintf(stderr, "memhist: -strict: sampling coverage %.3f below floor %.3f\n", cov, *minCov)
			failed = true
		}
		if _, share := h.ClampedMass(); share > *maxClamp {
			fmt.Fprintf(stderr, "memhist: -strict: clamped negative mass share %.3f exceeds %.3f\n", share, *maxClamp)
			failed = true
		}
		if failed {
			return 1
		}
	}
	return 0
}

func parseBounds(csv string) ([]uint64, error) {
	if csv == "" {
		return nil, nil
	}
	var out []uint64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad bound %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
