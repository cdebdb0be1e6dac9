// The campaign chaos suite: every scripted run-level fault must yield
// a complete measurement, a typed per-event gap, or a typed campaign
// error — never a hang and never silent sample loss. Run under -race.
package faultrun

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
)

var chaosEvents = []counters.EventID{
	counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.InstRetired,
}

func chaosSpec(reps int) campaign.Spec {
	return campaign.Spec{
		ParamName: "threads",
		Points: []campaign.Point{{
			Param: 1,
			Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
				e, err := exec.NewEngine(exec.Config{
					Machine: topology.TwoSocket(), Threads: 1, Seed: seed,
				})
				if err != nil {
					return nil, nil, err
				}
				body := func(t *exec.Thread) {
					buf := t.Alloc(16 << 10)
					for off := uint64(0); off < buf.Size; off += 64 {
						t.Load(buf.Addr(off))
					}
				}
				return e, body, nil
			},
		}},
		Events: chaosEvents,
		Reps:   reps,
		Mode:   perf.Batched,
		Seed:   5,
	}
}

// accountFor checks the no-silent-loss invariant: for every event,
// samples present + samples lost to reported gaps + samples lost to
// reported strikes must add up to the requested repetitions.
func accountFor(t *testing.T, rep *campaign.Report, reps int) {
	t.Helper()
	if got := rep.Ran + rep.Replayed; got != rep.Cells {
		t.Errorf("cell accounting: %d ran + replayed, %d cells", got, rep.Cells)
	}
	m := rep.Points[0].M
	gapped := map[counters.EventID]int{}
	for _, g := range rep.Gaps {
		for _, id := range g.Events {
			gapped[id]++
		}
	}
	for _, id := range chaosEvents {
		if quarantined(rep, id) {
			continue
		}
		have := len(m.Samples[id])
		if have+gapped[id] > reps {
			t.Errorf("%s: %d samples + %d gapped > %d reps",
				counters.Def(id).Name, have, gapped[id], reps)
		}
		if have+gapped[id] < reps && !m.Partial {
			t.Errorf("%s: %d samples, %d gapped of %d reps, yet not marked partial",
				counters.Def(id).Name, have, gapped[id], reps)
		}
	}
}

func quarantined(rep *campaign.Report, id counters.EventID) bool {
	for _, q := range rep.Quarantined {
		if q.Event == id {
			return true
		}
	}
	return false
}

// TestChaosMatrix drives one campaign per fault kind and asserts the
// bounded outcome each must produce.
func TestChaosMatrix(t *testing.T) {
	noSleep := func(time.Duration) {}
	cases := []struct {
		name  string
		fault Fault
		opts  campaign.Options
		check func(t *testing.T, rep *campaign.Report, err error)
	}{
		{
			name:  "hang becomes a timeout gap",
			fault: Fault{Kind: Hang},
			// Generous enough for clean cells even under -race; the hung
			// cell blocks forever either way.
			opts: campaign.Options{RunTimeout: 2 * time.Second, MaxRetries: -1, KeepGoing: true},
			check: func(t *testing.T, rep *campaign.Report, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Gaps) != 1 || !strings.Contains(rep.Gaps[0].Reason, "timed out") {
					t.Errorf("gaps = %+v, want one timeout gap", rep.Gaps)
				}
			},
		},
		{
			name:  "panic becomes a typed gap",
			fault: Fault{Kind: Panic},
			opts:  campaign.Options{MaxRetries: -1, KeepGoing: true},
			check: func(t *testing.T, rep *campaign.Report, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Gaps) != 1 || !strings.Contains(rep.Gaps[0].Reason, "panicked") {
					t.Errorf("gaps = %+v, want one panic gap", rep.Gaps)
				}
			},
		},
		{
			name:  "transient exit heals on retry",
			fault: Fault{Kind: Exit, Times: 1, ExitCode: 7},
			opts:  campaign.Options{},
			check: func(t *testing.T, rep *campaign.Report, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Complete() || rep.Retried != 1 {
					t.Errorf("retried=%d complete=%v, want a healed campaign", rep.Retried, rep.Complete())
				}
			},
		},
		{
			name:  "persistent exit aborts without keep-going",
			fault: Fault{Kind: Exit, ExitCode: 1},
			opts:  campaign.Options{MaxRetries: -1},
			check: func(t *testing.T, rep *campaign.Report, err error) {
				var ce *campaign.CampaignError
				if !errors.As(err, &ce) {
					t.Fatalf("err = %v, want *CampaignError", err)
				}
				if !errors.Is(err, ErrInjected) {
					t.Errorf("injected cause lost: %v", err)
				}
			},
		},
		{
			name:  "negative value is screened, not stored",
			fault: Fault{Kind: Corrupt},
			opts:  campaign.Options{},
			check: func(t *testing.T, rep *campaign.Report, err error) {
				if err != nil {
					t.Fatal(err)
				}
				m := rep.Points[0].M
				for _, id := range chaosEvents {
					for _, v := range m.Samples[id] {
						if v < 0 {
							t.Errorf("%s kept negative sample %g", counters.Def(id).Name, v)
						}
					}
				}
				if !m.Partial {
					t.Error("screened sample must leave the measurement partial")
				}
			},
		},
		{
			name:  "NaN value is screened, not stored",
			fault: Fault{Kind: Corrupt, NaN: true, Event: counters.Def(counters.AllLoads).Name},
			opts:  campaign.Options{},
			check: func(t *testing.T, rep *campaign.Report, err error) {
				if err != nil {
					t.Fatal(err)
				}
				m := rep.Points[0].M
				if got := len(m.Samples[counters.AllLoads]); got != 1 {
					t.Errorf("poisoned event kept %d samples, want 1", got)
				}
			},
		},
		{
			name:  "slow run still completes",
			fault: Fault{Kind: Slow, Delay: 10 * time.Millisecond},
			opts:  campaign.Options{RunTimeout: 5 * time.Second},
			check: func(t *testing.T, rep *campaign.Report, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Complete() {
					t.Errorf("slow campaign incomplete: %s", rep.Summary())
				}
			},
		},
	}
	// Every fault case must produce its bounded outcome on the serial
	// path and on the worker pool alike — faults fire per cell, so the
	// verdicts cannot depend on which worker hit them.
	for _, conc := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("parallel=%d/%s", conc, tc.name), func(t *testing.T) {
				script := NewScript().On("p0/r1/b0", tc.fault)
				t.Cleanup(script.Release)
				opts := tc.opts
				opts.Sleep = noSleep
				opts.Wrap = script.Wrap
				opts.Concurrency = conc
				r := &campaign.Runner{Spec: chaosSpec(2), Opts: opts}
				rep, err := r.Run()
				tc.check(t, rep, err)
				if err == nil {
					accountFor(t, rep, 2)
				}
			})
		}
	}
}

// TestChaosEverythingAtOnce throws a different fault at every
// repetition of a longer campaign and asserts the report stays a
// faithful ledger: no hang, every missing sample traced to a gap or a
// quarantine verdict.
func TestChaosEverythingAtOnce(t *testing.T) {
	for _, conc := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", conc), func(t *testing.T) {
			script := NewScript().
				On("p0/r0/b0", Fault{Kind: Exit, Times: 1, ExitCode: 2}). // heals
				On("p0/r1/b0", Fault{Kind: Panic}).                       // gap
				On("p0/r2/b0", Fault{Kind: Hang}).                        // timeout gap
				On("p0/r3/b0", Fault{Kind: Corrupt, NaN: true}).          // screened value
				On("p0/r4/b0", Fault{Kind: Slow, Delay: 5 * time.Millisecond})
			t.Cleanup(script.Release)
			r := &campaign.Runner{
				Spec: chaosSpec(6),
				Opts: campaign.Options{
					RunTimeout:  2 * time.Second,
					MaxRetries:  1,
					KeepGoing:   true,
					Concurrency: conc,
					Sleep:       func(time.Duration) {},
					Wrap:        script.Wrap,
				},
			}
			done := make(chan struct{})
			var rep *campaign.Report
			var err error
			go func() {
				rep, err = r.Run()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("chaos campaign hung")
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Gaps) != 2 {
				t.Errorf("gaps = %d, want 2 (panic + hang)", len(rep.Gaps))
			}
			// One retry healed the exit; the panic and hang each burned
			// their single retry before becoming gaps.
			if rep.Retried != 3 {
				t.Errorf("retried = %d, want 3", rep.Retried)
			}
			accountFor(t, rep, 6)
		})
	}
}

// TestChaosParallelOverlap proves the pool really overlaps cell
// execution while staying a faithful ledger: with every repetition
// slowed, a Concurrency=4 campaign must have had several runs in
// flight at once (the script's high-water mark), complete cleanly, and
// lose nothing.
func TestChaosParallelOverlap(t *testing.T) {
	script := NewScript()
	for rep := 0; rep < 6; rep++ {
		for b := 0; b < 4; b++ {
			script.On(fmt.Sprintf("p0/r%d/b%d", rep, b), Fault{Kind: Slow, Delay: 20 * time.Millisecond})
		}
	}
	t.Cleanup(script.Release)
	r := &campaign.Runner{
		Spec: chaosSpec(6),
		Opts: campaign.Options{
			RunTimeout:  5 * time.Second,
			Concurrency: 4,
			Sleep:       noSleepFn,
			Wrap:        script.Wrap,
		},
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("slowed parallel campaign incomplete: %s", rep.Summary())
	}
	if got := script.MaxInFlight(); got < 2 {
		t.Errorf("max in-flight runs = %d, want ≥ 2 (no overlap happened)", got)
	}
	accountFor(t, rep, 6)
}

var noSleepFn = func(time.Duration) {}

// TestScreenedValueLeavesSummaryPartial: a corrupt value screened from
// one cell leaves one event a sample short with neither a gap nor a
// quarantine verdict. The campaign is still Complete, since it lost no
// cell, but its summary names the partial point instead of calling the
// campaign complete.
func TestScreenedValueLeavesSummaryPartial(t *testing.T) {
	script := NewScript().On("p0/r0/b0", Fault{Kind: Corrupt, Times: 1})
	rep, err := (&campaign.Runner{Spec: chaosSpec(2), Opts: campaign.Options{
		Sleep: noSleepFn,
		Wrap:  script.Wrap,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || !rep.Points[0].M.Partial {
		t.Fatalf("complete %v, partial %v; want a complete campaign with a partial point", rep.Complete(), rep.Points[0].M.Partial)
	}
	sum := rep.Summary()
	if strings.Contains(sum, "campaign: complete") {
		t.Errorf("a partial measurement is called complete:\n%s", sum)
	}
	if want := "partial: threads=1: 1 of 4 events carry fewer than 2 samples\n"; !strings.HasSuffix(sum, want) {
		t.Errorf("summary does not end with %q:\n%s", want, sum)
	}
}
