// Command phasenpruefer is the CLI counterpart of the paper's
// Phasenprüfer tool: it runs a workload with time-sliced counter
// recording, splits the run into execution phases from the memory
// footprint via segmented regression, and prints the counters
// attributed to each phase.
//
// Usage:
//
//	phasenpruefer -workload phasedapp
//	phasenpruefer -workload bspapp -k 6      # superstep extension
//
// When the requested segmentation is not statistically justified — the
// footprint is constant, a single line already fits, or the F-test
// cannot tell the segments apart — the report downgrades to one phase
// and prints a verdict line. With -strict that verdict additionally
// becomes a nonzero exit after the report is printed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"numaperf/internal/exec"
	"numaperf/internal/phase"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive every
// exit path: 0 on success, 1 when the machine, the workload or the
// analysis fails, or when -strict meets a verdict, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phasenpruefer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to analyse")
		machine  = fs.String("machine", "dl580", "machine: dl580, 2s, 8s, uma")
		threads  = fs.Int("threads", 2, "thread count")
		k        = fs.Int("k", 2, "number of phases to detect (0 = automatic via BIC)")
		slice    = fs.Uint64("slice", 0, "sampling interval in cycles (0 = auto)")
		seed     = fs.Int64("seed", 1, "noise seed")
		wlList   = fs.Bool("workloads", false, "list available workloads")
		strict   = fs.Bool("strict", false, "exit nonzero when no phase transition is statistically justified")
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
	if *threads < 1 {
		fmt.Fprintf(stderr, "phasenpruefer: -threads must be at least 1, got %d\n", *threads)
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "phasenpruefer: "+format+"\n", args...)
		return 1
	}
	mach, ok := topology.ByName(*machine)
	if !ok {
		return fail("unknown machine %q (have %v)", *machine, topology.MachineNames())
	}
	wl, ok := workloads.ByName(*workload)
	if !ok {
		return fail("unknown workload %q (have %v)", *workload, workloads.Names())
	}
	e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: *threads, Seed: *seed})
	if err != nil {
		return fail("%v", err)
	}
	rep, err := phase.Analyze(e, wl.Body(), *k, *slice)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "%s on %s (%d threads)\n\n", wl.Name(), mach.Name, *threads)
	fmt.Fprint(stdout, rep.Render())
	if *strict && rep.Verdict != nil {
		return fail("-strict: %v", rep.Verdict)
	}
	return 0
}
