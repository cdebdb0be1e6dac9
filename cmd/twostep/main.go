// Command twostep runs the paper's two-step performance assessment
// strategy end to end: measure a workload family at small sizes,
// select indicators, fit code→indicator extrapolation models and the
// indicator→cost model, then predict the cost of a larger target size
// and compare against the measured truth and the monolithic baselines.
// With -transfer the cost model is re-calibrated on a second machine.
//
// Usage:
//
//	twostep -family triad -train 65536,98304,131072,196608 -target 1048576
//	twostep -family chase -train 4096,8192,16384 -target 65536 -transfer 2s
//	twostep -family sort -train 65536,131072,262144 -target 1048576 -parallel 4
//
// -parallel N measures up to N training sizes of a collection phase
// concurrently, each on its own engine; the fitted models and the
// report are identical to -parallel 1.
//
// With -strict the command exits nonzero after printing the report
// whenever the strategy was built from degraded data — training rows
// dropped for non-finite cycles, collinear indicator columns removed or
// ridge-regularised — or the prediction itself is non-finite. The
// caveats are always printed either way; -strict only changes the exit
// status so scripts can gate on prediction trustworthiness.
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
	"numaperf/internal/core"
	"numaperf/internal/exec"
	"numaperf/internal/models"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// families maps a family name to a parameterised workload constructor.
var families = map[string]func(param float64) workloads.Workload{
	"triad": func(p float64) workloads.Workload { return workloads.Triad{Elements: int(p)} },
	"chase": func(p float64) workloads.Workload {
		return workloads.PointerChase{Lines: uint64(p), Hops: int(4 * p)}
	},
	"sort": func(p float64) workloads.Workload { return workloads.ParallelSort{Elements: int(p)} },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive every
// exit path: 0 on success, 1 when the family or a machine is unknown, a
// training or target size is not a whole number ≥ 1, a collection phase
// or the strategy fails, or -strict meets a hard caveat, 2 for a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twostep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family   = fs.String("family", "triad", "workload family: triad, chase, sort")
		trainCSV = fs.String("train", "65536,98304,131072,196608,262144", "training sizes")
		target   = fs.Float64("target", 1048576, "size to predict")
		reps     = fs.Int("reps", 2, "runs per training size")
		machine  = fs.String("machine", "dl580", "machine: dl580, 2s, 8s, uma")
		transfer = fs.String("transfer", "", "re-calibrate the cost model on this machine")
		maxInd   = fs.Int("indicators", 4, "maximum indicator count")
		threads  = fs.Int("threads", 1, "thread count")
		seed     = fs.Int64("seed", 1, "noise seed")
		runTO    = fs.Duration("run-timeout", campaign.DefaultRunTimeout, "wall-clock budget per collection phase (0 = none)")
		maxRetry = fs.Int("max-retries", campaign.DefaultMaxRetries, "retries per collection phase on transient failure (0 = none)")
		parallel = fs.Int("parallel", 1, "training sizes measured concurrently; results are identical at any setting")
		strict   = fs.Bool("strict", false, "exit nonzero when the strategy carries hard data-quality caveats")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "twostep: "+format+"\n", args...)
		return 1
	}

	mk, ok := families[*family]
	if !ok {
		return fail("unknown family %q", *family)
	}
	mach, ok := topology.ByName(*machine)
	if !ok {
		return fail("unknown machine %q (have %v)", *machine, topology.MachineNames())
	}
	var transferMach *topology.Machine
	if *transfer != "" {
		if transferMach, ok = topology.ByName(*transfer); !ok {
			return fail("unknown transfer machine %q", *transfer)
		}
	}
	var trainSizes []float64
	for _, s := range strings.Split(*trainCSV, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fail("bad training size %q: %v", s, err)
		}
		if !wholeSize(v) {
			return fail("bad training size %q: %s", s, wantSize)
		}
		trainSizes = append(trainSizes, v)
	}
	if !wholeSize(*target) {
		return fail("bad target size %g: %s", *target, wantSize)
	}

	// Each collection phase (training, calibration, truth) runs under
	// the same supervision a campaign cell gets: wall-clock timeout,
	// panic recovery, and deterministic capped-backoff retries.
	// With -parallel N, up to N training sizes of a phase are measured
	// concurrently; every size runs on its own engine and the points are
	// reassembled in size order, so the fitted models and the report are
	// identical at any setting.
	sup := campaign.NewSupervisor(*runTO, *maxRetry, *seed)
	collect := func(phase string, sizes []float64, m *topology.Machine) ([]core.TrainingPoint, error) {
		pts, attempts, err := campaign.Do(sup, func() ([]core.TrainingPoint, error) {
			return core.CollectTrainingParallel(sizes, *reps, *parallel, func(p float64) (*exec.Engine, func(*exec.Thread), error) {
				e, err := exec.NewEngine(exec.Config{Machine: m, Threads: *threads, Seed: *seed})
				if err != nil {
					return nil, nil, err
				}
				return e, mk(p).Body(), nil
			})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", phase, err)
		}
		if attempts > 1 {
			fmt.Fprintf(stderr, "twostep: %s succeeded after %d attempts\n", phase, attempts)
		}
		return pts, nil
	}

	fmt.Fprintf(stdout, "training %s on %s at sizes %v (%d reps)\n", *family, mach.Name, trainSizes, *reps)
	train, err := collect("training", trainSizes, mach)
	if err != nil {
		return fail("%v", err)
	}
	st, err := core.Build(train, "size", *maxInd)
	if err != nil {
		return fail("building strategy: %v", err)
	}
	fmt.Fprintf(stdout, "\n%s\n", st.String())

	evalMach := mach
	if transferMach != nil {
		fmt.Fprintf(stdout, "re-calibrating the cost model on %s\n", transferMach.Name)
		calib, err := collect("calibration", trainSizes, transferMach)
		if err != nil {
			return fail("%v", err)
		}
		if st, err = st.Transfer(calib); err != nil {
			return fail("transfer: %v", err)
		}
		evalMach = transferMach
	}

	truth, err := collect("measuring target", []float64{*target}, evalMach)
	if err != nil {
		return fail("%v", err)
	}
	var actual float64
	for _, p := range truth {
		actual += p.Cycles
	}
	actual /= float64(len(truth))

	pred := st.PredictCycles(*target)
	fmt.Fprintf(stdout, "\npredicting size %.0f on %s:\n", *target, evalMach.Name)
	fmt.Fprintf(stdout, "%-14s %14.4g cycles  error %6.1f%%\n", "two-step", pred, 100*relErr(pred, actual))
	fmt.Fprintf(stdout, "%-14s %14.4g cycles  (measured, %d runs)\n", "actual", actual, len(truth))

	char := models.Characterize(resultOf(truth))
	fmt.Fprintln(stdout, "\nmonolithic baselines (no counter access):")
	for _, b := range models.All() {
		p := b.PredictCycles(char, evalMach)
		fmt.Fprintf(stdout, "%-14s %14.4g cycles  error %6.1f%%\n", b.Name(), p, 100*relErr(p, actual))
	}

	if *strict {
		switch {
		case st.HardDegraded():
			return fail("-strict: strategy carries hard data-quality caveats (see report above)")
		case math.IsNaN(pred) || math.IsInf(pred, 0):
			return fail("-strict: prediction is non-finite (%g)", pred)
		}
	}
	return 0
}

// wantSize states the sizes wholeSize accepts.
const wantSize = "want a whole number from 1 to 2^63-1"

// wholeSize reports whether every family measures size v as given: each
// converts it with int(), and a size below 1 selects the workload's
// default size.
func wholeSize(v float64) bool {
	return v >= 1 && v < math.MaxInt64 && v == math.Trunc(v)
}

// resultOf reconstructs a minimal result view for Characterize from a
// training point (counters plus machine-independent fields).
func resultOf(pts []core.TrainingPoint) *exec.Result {
	p := pts[0]
	return &exec.Result{Raw: p.Counts, Cycles: uint64(p.Cycles), Threads: 1,
		PerCore: nil, Uncore: nil}
}

func relErr(pred, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(pred-actual) / actual
}
