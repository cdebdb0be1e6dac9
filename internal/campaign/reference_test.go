package campaign_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/faultrun"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
)

// refEvents span two core register batches and one uncore batch on
// refMachine, so a Batched repetition takes two cells and a
// multiplexed run rotates two groups.
var refEvents = []counters.EventID{
	counters.InstRetired, counters.CPUCycles,
	counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.L2Hit,
	counters.L2Miss, counters.L3Hit, counters.L3Miss, counters.BranchRetired,
	counters.UncIMCRead, counters.UncQPITx,
}

// refBody scans 8 KiB per thread and accounts 16000 instructions per
// line: about a million cycles in 64-op chunks, four multiplexing
// quanta.
func refBody(t *exec.Thread) {
	buf := t.Alloc(8 << 10)
	for off := uint64(0); off < buf.Size; off += 64 {
		t.Load(buf.Addr(off))
		t.Instr(16000)
	}
}

// refMachine is the UMA machine with a 1152 KiB L3, which a fresh engine
// clears far faster than a 45 MiB one.
func refMachine() *topology.Machine {
	m := topology.UMA()
	m.Caches[len(m.Caches)-1].SizeBytes = 1024 * 18 * 64
	return m
}

// refSpec sweeps refBody over 1, 2 and 3 threads, so every point
// simulates different counts.
func refSpec(mode perf.Mode) campaign.Spec {
	mach := refMachine()
	var points []campaign.Point
	for _, threads := range []int{1, 2, 3} {
		points = append(points, campaign.Point{
			Param: float64(threads),
			Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
				e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: threads, Seed: seed, Chunk: 64})
				return e, refBody, err
			},
		})
	}
	return campaign.Spec{ParamName: "threads", Points: points, Events: refEvents, Reps: 2, Mode: mode, Seed: 17}
}

// refOutcome is everything a campaign leaves behind that a reader sees.
type refOutcome struct {
	Report  *campaign.Report
	Err     string
	Journal string
	Tables  string
}

// faultFunc builds a fresh fault middleware for one campaign.
type faultFunc func(t *testing.T) campaign.Middleware

// script turns a function that makes a faultrun script into a
// faultFunc that releases the script's hung runs when the test ends.
func script(build func() *faultrun.Script) faultFunc {
	return func(t *testing.T) campaign.Middleware {
		s := build()
		t.Cleanup(s.Release)
		return s.Wrap
	}
}

// runRef runs spec under opts, on the runner's own cell function or, if
// ref, on the reference one that simulates every cell. fault, when not
// nil, wraps whichever cell function runs.
func runRef(t *testing.T, spec campaign.Spec, opts campaign.Options, ref bool, fault faultFunc) refOutcome {
	t.Helper()
	wrap := func(next campaign.RunFunc) campaign.RunFunc { return next }
	if fault != nil {
		wrap = fault(t)
	}
	opts.Wrap = wrap
	if ref {
		run, err := campaign.ReferenceRun(&campaign.Runner{Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		opts.Wrap = func(campaign.RunFunc) campaign.RunFunc { return wrap(run) }
	}
	opts.Sleep = func(time.Duration) {}
	rep, err := (&campaign.Runner{Spec: spec, Opts: opts}).Run()
	out := refOutcome{Report: rep}
	if err != nil {
		out.Err = err.Error()
	}
	if opts.JournalPath != "" {
		raw, err := os.ReadFile(opts.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		out.Journal = string(raw)
	}
	if rep != nil && len(rep.Points) > 0 {
		sw := &evsel.Sweep{ParamName: rep.ParamName}
		for _, p := range rep.Points {
			sw.Points = append(sw.Points, evsel.SweepPoint{Param: p.Param, M: p.M})
		}
		out.Tables = sw.Render(0) + rep.Summary()
		cmp, err := evsel.Compare(rep.Points[0].M, rep.Points[len(rep.Points)-1].M)
		if err != nil {
			out.Tables += err.Error()
		} else {
			out.Tables += cmp.Render()
		}
	}
	return out
}

// sameOutcome fails the test where got and want differ.
func sameOutcome(t *testing.T, got, want refOutcome) {
	t.Helper()
	if got.Err != want.Err {
		t.Errorf("error %q, the reference %q", got.Err, want.Err)
	}
	if got.Journal != want.Journal {
		t.Errorf("journal differs from the reference:\ngot:\n%s\nwant:\n%s", got.Journal, want.Journal)
	}
	if got.Tables != want.Tables {
		t.Errorf("tables differ from the reference:\ngot:\n%s\nwant:\n%s", got.Tables, want.Tables)
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("report differs from the reference:\ngot:  %+v\nwant: %+v", got.Report, want.Report)
	}
}

// TestRunnerMatchesReference holds the runner, which simulates each
// sweep point once, to the cell function that simulated every cell
// (refrun_test.go): the same Report, journal bytes and rendered sweep,
// compare and summary, in every mode at 1 and 4 workers, with and
// without a journal, under faultrun scripts, across a kill and resume,
// and with an op budget that stops one point.
func TestRunnerMatchesReference(t *testing.T) {
	faults := script(func() *faultrun.Script {
		return faultrun.NewScript().
			On("p1/r0/b0", faultrun.Fault{Kind: faultrun.Panic, Times: 1}).             // one retry
			On("p2/r1/b0", faultrun.Fault{Kind: faultrun.Exit, Times: 1, ExitCode: 3}). // transient: one retry
			On("p0/r1/b0", faultrun.Fault{Kind: faultrun.Corrupt, Times: 1}).           // a screened value
			On("p1/r1/b0", faultrun.Fault{Kind: faultrun.Exit, ExitCode: 1})            // two retries, then a gap
	})
	for _, mode := range []perf.Mode{perf.Batched, perf.Unlimited, perf.Multiplexed} {
		for _, conc := range []int{1, 4} {
			name := fmt.Sprintf("%s/concurrency=%d", mode, conc)
			check := func(t *testing.T, opts campaign.Options, journal bool, fault faultFunc) refOutcome {
				t.Helper()
				opts.Concurrency = conc
				var outs [2]refOutcome
				for i, ref := range []bool{true, false} {
					if journal {
						opts.JournalPath = filepath.Join(t.TempDir(), "campaign.journal")
					}
					outs[i] = runRef(t, refSpec(mode), opts, ref, fault)
				}
				sameOutcome(t, outs[1], outs[0])
				return outs[0]
			}
			for _, journal := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/journal=%v/clean", name, journal), func(t *testing.T) {
					t.Parallel()
					out := check(t, campaign.Options{}, journal, nil)
					for _, p := range out.Report.Points {
						if p.M.Partial {
							t.Errorf("point %g of the clean reference is partial: a multiplexed group got no quantum", p.Param)
						}
					}
				})
				t.Run(fmt.Sprintf("%s/journal=%v/faults", name, journal), func(t *testing.T) {
					t.Parallel()
					out := check(t, campaign.Options{KeepGoing: true}, journal, faults)
					if rep := out.Report; rep.Retried != 4 || len(rep.Gaps) != 1 || !rep.Points[0].M.Partial {
						t.Errorf("the faults did not all fire: %s", rep.Summary())
					}
				})
			}
			t.Run(name+"/op budget", func(t *testing.T) {
				t.Parallel()
				// refBody emits about 256 operations per thread: the
				// 3-thread point alone crosses the budget.
				out := check(t, campaign.Options{OpBudget: 600, KeepGoing: true}, true, nil)
				for _, g := range out.Report.Gaps {
					if g.Cell.Point != 2 {
						t.Errorf("gap at %s, want only point 2 over budget", g.Cell.Key())
					}
				}
				if len(out.Report.Gaps) == 0 {
					t.Error("the op budget stopped no cell")
				}
			})
			t.Run(name+"/kill and resume", func(t *testing.T) {
				t.Parallel()
				kill := func(*testing.T) campaign.Middleware {
					return func(next campaign.RunFunc) campaign.RunFunc {
						return func(c campaign.Cell) (map[counters.EventID]float64, error) {
							if c.Point == 1 && c.Rep == 1 {
								return nil, errors.New("injected kill")
							}
							return next(c)
						}
					}
				}
				var outs [2][2]refOutcome
				for i, ref := range []bool{true, false} {
					path := filepath.Join(t.TempDir(), "campaign.journal")
					opts := campaign.Options{JournalPath: path, Concurrency: conc, MaxRetries: -1}
					outs[i][0] = runRef(t, refSpec(mode), opts, ref, kill)
					opts.Resume = true
					outs[i][1] = runRef(t, refSpec(mode), opts, ref, nil)
				}
				if outs[0][0].Err == "" || outs[0][1].Report.Replayed == 0 {
					t.Fatalf("the reference was not killed and resumed: %q, %d replayed", outs[0][0].Err, outs[0][1].Report.Replayed)
				}
				sameOutcome(t, outs[1][0], outs[0][0])
				sameOutcome(t, outs[1][1], outs[0][1])
			})
		}
	}
	// A hung attempt times out, and its retry takes the point's run like
	// any other cell. The bound is generous for the other cells under
	// -race.
	for _, conc := range []int{1, 4} {
		t.Run(fmt.Sprintf("hang/concurrency=%d", conc), func(t *testing.T) {
			t.Parallel()
			hang := script(func() *faultrun.Script {
				return faultrun.NewScript().On("p0/r1/b1", faultrun.Fault{Kind: faultrun.Hang, Times: 1})
			})
			var outs [2]refOutcome
			for i, ref := range []bool{true, false} {
				opts := campaign.Options{RunTimeout: 200 * time.Millisecond, Concurrency: conc,
					JournalPath: filepath.Join(t.TempDir(), "campaign.journal")}
				outs[i] = runRef(t, refSpec(perf.Batched), opts, ref, hang)
			}
			if outs[0].Report.Retried != 1 {
				t.Fatalf("the hang was not retried: %s", outs[0].Report.Summary())
			}
			sameOutcome(t, outs[1], outs[0])
		})
	}
}
