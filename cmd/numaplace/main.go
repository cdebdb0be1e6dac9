// Command numaplace answers the practical question behind the paper's
// tooling: where should data and threads go? It runs a workload under
// every combination of page placement policy (first-touch, interleave,
// bind) and thread pinning (compact, scatter), measures the counter
// signature of each, and prints the configurations fastest first with
// NUMA locality and interconnect traffic alongside.
//
// Usage:
//
//	numaplace -workload sift -threads 8
//	numaplace -workload parallelsort -threads 16 -machine dl580
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"numaperf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive every
// exit path: 0 on success, 1 when the workload, the machine or a
// measurement fails, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("numaplace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to place (see -workloads)")
		machine  = fs.String("machine", "dl580", "machine: dl580, 2s, 8s, uma")
		threads  = fs.Int("threads", 8, "thread count")
		seed     = fs.Int64("seed", 1, "noise seed")
		wlList   = fs.Bool("workloads", false, "list available workloads")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *wlList {
		for _, n := range numaperf.WorkloadNames() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *workload == "" {
		fs.Usage()
		return 2
	}
	if *threads < 1 {
		fmt.Fprintf(stderr, "numaplace: -threads must be at least 1, got %d\n", *threads)
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "numaplace: "+format+"\n", args...)
		return 1
	}
	wl, ok := numaperf.WorkloadByName(*workload)
	if !ok {
		return fail("unknown workload %q (have %v)", *workload, numaperf.WorkloadNames())
	}
	s, err := numaperf.NewSession(
		numaperf.WithMachineName(*machine),
		numaperf.WithThreads(*threads),
		numaperf.WithSeed(*seed),
	)
	if err != nil {
		return fail("%v", err)
	}
	rows, err := s.ComparePlacements(wl)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "%s on %s, %d threads\n\n", wl.Name(), s.Machine().Name, *threads)
	fmt.Fprint(stdout, numaperf.RenderPlacements(rows))
	best := rows[0]
	fmt.Fprintf(stdout, "\nrecommendation: %s pages with %s pinning (%.2fx over the worst choice)\n",
		best.Policy, best.Mapping, best.Speedup)
	return 0
}
