// Command memscenario runs a declarative chaos scenario: one YAML (or
// JSON) file naming a measurement stage, a timeline of fault
// injections across the six fault packages, and the assertions the
// outcome must satisfy. The same scenario under the same seed always
// produces a byte-identical machine-readable run report, so a report
// checked in once pins the behaviour forever.
//
// Usage:
//
//	memscenario -scenario scenarios/run-transient-exit.yaml
//	memscenario -scenario s.yaml -seed 7 -report run.jnl
//	memscenario -scenario s.yaml -strict
//	memscenario -list-actions
//
// -strict turns failed assertions into a nonzero exit; without it the
// verdict is printed but the run exits zero, which suits exploratory
// fault dialling. -report writes the CRC-framed JSON-lines report.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"numaperf/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive the
// full lifecycle.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memscenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath = fs.String("scenario", "", "scenario file to run (YAML subset or JSON)")
		seed         = fs.Int64("seed", 0, "override the scenario's seed (0 = use the file's)")
		report       = fs.String("report", "", "write the machine-readable run report to this file")
		strict       = fs.Bool("strict", false, "exit nonzero when any assertion fails")
		listActions  = fs.Bool("list-actions", false, "list every DSL action and exit")
		verbose      = fs.Bool("v", false, "log stage progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "memscenario: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}
	if *listActions {
		printActions(stdout)
		return 0
	}
	if *scenarioPath == "" {
		fmt.Fprintln(stderr, "memscenario: -scenario is required (or -list-actions)")
		fs.Usage()
		return 2
	}
	_ = ctx

	sc, err := scenario.Load(*scenarioPath)
	if err != nil {
		fmt.Fprintf(stderr, "memscenario: %v\n", err)
		return 1
	}
	opts := scenario.RunOptions{Seed: *seed}
	if *verbose {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		}
	}
	res, err := scenario.Run(sc, opts)
	if err != nil {
		fmt.Fprintf(stderr, "memscenario: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, res.Summary())
	if *report != "" {
		if err := res.WriteReport(*report); err != nil {
			fmt.Fprintf(stderr, "memscenario: write report: %v\n", err)
			return 1
		}
	}
	if *strict && !res.OK() {
		return 1
	}
	return 0
}

func printActions(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "ACTION\tMODES\tPARAMS\tSUMMARY")
	for _, a := range scenario.Actions() {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", a.Name, strings.Join(a.Modes, ","), a.Params, a.Summary)
	}
	tw.Flush()
}
