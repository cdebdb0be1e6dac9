// Determinism equivalence suite for the concurrent cell executor: the
// same campaign run at Concurrency 1, 2 and 8 must produce
// byte-identical journals, Reports, quarantine verdicts and rendered
// Compare/Correlate tables — including across a kill-and-resume cycle.
// Run under -race; the CI does.
package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"numaperf/internal/counters"
	"numaperf/internal/evsel"
)

// runAt executes spec at the given concurrency with a journal and
// returns the report plus the journal's raw bytes.
func runAt(t *testing.T, spec Spec, conc int, opts Options) (*Report, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.journal")
	opts.JournalPath = path
	opts.Concurrency = conc
	opts.Sleep = noSleep
	rep, err := (&Runner{Spec: spec, Opts: opts}).Run()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep, raw
}

// renderAll concatenates every human-facing view of a report: the
// summary (gaps, quarantine verdicts, accounting), each point's saved
// measurement, the Compare table between the sweep's endpoints, and the
// correlation table over the full sweep.
func renderAll(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(rep.Summary())
	for _, p := range rep.Points {
		buf.Write(saveBytes(t, p.M))
	}
	cmp, err := evsel.Compare(rep.Points[0].M, rep.Points[len(rep.Points)-1].M)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(cmp.Render())
	sw := &evsel.Sweep{ParamName: rep.ParamName}
	for _, p := range rep.Points {
		sw.Points = append(sw.Points, evsel.SweepPoint{Param: p.Param, M: p.M})
	}
	buf.WriteString(sw.Render(0))
	return buf.Bytes()
}

// equivWrap makes the campaign exercise every commit path while staying
// deterministic at any worker count: one cell fails transiently (a
// retry), one cell fails persistently (a gap under KeepGoing), and one
// event is corrupted in every cell (strikes → a quarantine verdict).
// The wrap is called from concurrent pool workers, hence the mutex.
func equivWrap() Middleware {
	var mu sync.Mutex
	fired := map[string]bool{}
	return func(next RunFunc) RunFunc {
		return func(c Cell) (map[counters.EventID]float64, error) {
			key := c.Key()
			mu.Lock()
			transient := c.Point == 1 && c.Rep == 1 && c.Batch == 0 && !fired[key]
			if transient {
				fired[key] = true
			}
			mu.Unlock()
			if transient {
				return nil, errors.New("transient glitch")
			}
			if c.Point == 2 && c.Rep == 2 && c.Batch == 0 {
				return nil, errors.New("persistent failure")
			}
			out, err := next(c)
			if err == nil {
				if v, ok := out[counters.L1Hit]; ok {
					out[counters.L1Hit] = -v - 1
				}
			}
			return out, err
		}
	}
}

func equivSpec() Spec {
	spec := testSpec(testPoint(1, 1), testPoint(2, 2), testPoint(4, 4))
	spec.Reps = 3
	return spec
}

func TestConcurrencyEquivalence(t *testing.T) {
	opts := func() Options {
		return Options{KeepGoing: true, Wrap: equivWrap()}
	}
	refRep, refJnl := runAt(t, equivSpec(), 1, opts())
	if refRep.Retried == 0 || len(refRep.Gaps) == 0 || len(refRep.Quarantined) == 0 {
		t.Fatalf("reference campaign did not exercise retry+gap+quarantine: %s", refRep.Summary())
	}
	refView := renderAll(t, refRep)
	for _, conc := range []int{2, 8} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			rep, jnl := runAt(t, equivSpec(), conc, opts())
			if !bytes.Equal(jnl, refJnl) {
				t.Errorf("journal differs from serial run:\ngot:\n%s\nwant:\n%s", jnl, refJnl)
			}
			if view := renderAll(t, rep); !bytes.Equal(view, refView) {
				t.Errorf("rendered report differs from serial run:\ngot:\n%s\nwant:\n%s", view, refView)
			}
			if rep.Ran != refRep.Ran || rep.Replayed != refRep.Replayed || rep.Retried != refRep.Retried {
				t.Errorf("accounting differs: ran %d/%d, replayed %d/%d, retried %d/%d",
					rep.Ran, refRep.Ran, rep.Replayed, refRep.Replayed, rep.Retried, refRep.Retried)
			}
		})
	}
}

// TestParallelKillAndResume is the parallel acceptance test: a
// Concurrency=8 campaign killed mid-flight leaves a journal that is a
// clean prefix of the serial journal, and resuming it (again at
// Concurrency=8) yields a journal and measurements byte-identical to an
// uninterrupted serial run.
func TestParallelKillAndResume(t *testing.T) {
	spec := testSpec(testPoint(1, 1), testPoint(2, 2), testPoint(4, 4))

	refRep, refJnl := runAt(t, spec, 1, Options{})

	path := filepath.Join(t.TempDir(), "campaign.journal")
	kill := func(next RunFunc) RunFunc {
		return func(c Cell) (map[counters.EventID]float64, error) {
			if c.Point == 1 && c.Rep == 1 {
				return nil, errors.New("injected kill")
			}
			return next(c)
		}
	}
	_, err := (&Runner{Spec: spec, Opts: Options{
		JournalPath: path, Concurrency: 8, MaxRetries: -1, Sleep: noSleep, Wrap: kill,
	}}).Run()
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("expected abort, got %v", err)
	}
	partial, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) == 0 || !bytes.HasPrefix(refJnl, partial) {
		t.Error("aborted parallel journal is not a clean prefix of the serial journal")
	}

	rep, err := (&Runner{Spec: spec, Opts: Options{
		JournalPath: path, Resume: true, Concurrency: 8, Sleep: noSleep,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed == 0 || rep.Ran == 0 {
		t.Errorf("resume accounting: %d replayed, %d ran; want both > 0", rep.Replayed, rep.Ran)
	}
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, refJnl) {
		t.Errorf("resumed parallel journal differs from serial journal:\ngot:\n%s\nwant:\n%s", final, refJnl)
	}
	for i := range refRep.Points {
		if !bytes.Equal(saveBytes(t, rep.Points[i].M), saveBytes(t, refRep.Points[i].M)) {
			t.Errorf("point %d differs after parallel kill-and-resume", i)
		}
	}
}

// TestParallelSpeedup checks that the pool actually overlaps cell
// execution when cores are available: the BenchmarkFig9StyleSweep
// campaign must run ≥1.5× faster at Concurrency=4 than serially, a
// threshold lax enough that scheduler noise cannot flake CI.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement, skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("needs ≥ 4 CPUs to demonstrate speedup, have %d", runtime.NumCPU())
	}
	spec := benchSpec()
	elapsed := func(conc int) time.Duration {
		start := time.Now()
		if _, err := (&Runner{Spec: spec, Opts: Options{Concurrency: conc}}).Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := elapsed(1)
	parallel := elapsed(4)
	ratio := float64(serial) / float64(parallel)
	t.Logf("serial %v, parallel(4) %v, speedup %.2fx", serial, parallel, ratio)
	if ratio < 1.5 {
		t.Errorf("speedup %.2fx at Concurrency=4, want ≥ 1.5x", ratio)
	}
}
