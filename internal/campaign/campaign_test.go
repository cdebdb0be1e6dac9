package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"numaperf/internal/clockx"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
)

// scanBody streams over 64 KiB, touching every cache line.
func scanBody(t *exec.Thread) {
	buf := t.Alloc(64 << 10)
	for off := uint64(0); off < buf.Size; off += 64 {
		t.Load(buf.Addr(off))
	}
}

// testPoint builds a sweep point running scanBody on a two-socket
// machine with the given thread count.
func testPoint(threads int, param float64) Point {
	return Point{
		Param: param,
		Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
			e, err := exec.NewEngine(exec.Config{
				Machine: topology.TwoSocket(),
				Threads: threads,
				Seed:    seed,
			})
			if err != nil {
				return nil, nil, err
			}
			return e, scanBody, nil
		},
	}
}

var testEvents = []counters.EventID{
	counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.L2Hit,
	counters.L2Miss, counters.InstRetired,
}

func testSpec(points ...Point) Spec {
	return Spec{
		ParamName: "threads",
		Points:    points,
		Events:    testEvents,
		Reps:      2,
		Mode:      perf.Batched,
		Seed:      11,
	}
}

// noSleep removes real backoff delays from tests (shared helper in
// internal/clockx).
var noSleep = clockx.NoSleep

func TestRunnerComplete(t *testing.T) {
	r := &Runner{Spec: testSpec(testPoint(1, 1), testPoint(2, 2))}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("campaign not complete: %s", rep.Summary())
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}
	if rep.Ran != rep.Cells || rep.Replayed != 0 || rep.Retried != 0 {
		t.Errorf("accounting: ran %d of %d cells, %d replayed, %d retried",
			rep.Ran, rep.Cells, rep.Replayed, rep.Retried)
	}
	for _, p := range rep.Points {
		if p.M.Partial {
			t.Errorf("point %g marked partial", p.Param)
		}
		for _, id := range testEvents {
			if got := len(p.M.Samples[id]); got != 2 {
				t.Errorf("point %g event %s: %d samples, want 2",
					p.Param, counters.Def(id).Name, got)
			}
			if cov := p.M.Coverage(id); cov != 1 {
				t.Errorf("point %g event %s coverage = %g", p.Param, counters.Def(id).Name, cov)
			}
		}
	}
	if !strings.Contains(rep.Summary(), "complete, no gaps") {
		t.Errorf("summary missing completion line:\n%s", rep.Summary())
	}
}

// TestRunnerDeterministic: two identical campaigns serialize to
// identical bytes — the foundation of the resume invariant.
func TestRunnerDeterministic(t *testing.T) {
	spec := testSpec(testPoint(1, 1), testPoint(2, 2), testPoint(4, 4))
	a, err := (&Runner{Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Runner{Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if !bytes.Equal(saveBytes(t, a.Points[i].M), saveBytes(t, b.Points[i].M)) {
			t.Errorf("point %d: repeated campaign differs", i)
		}
	}
}

func TestRunnerValidate(t *testing.T) {
	base := testSpec(testPoint(1, 1))
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no points", func(s *Spec) { s.Points = nil }},
		{"no events", func(s *Spec) { s.Events = nil }},
		{"zero reps", func(s *Spec) { s.Reps = 0 }},
		{"unknown mode", func(s *Spec) { s.Mode = perf.Mode(7) }},
		{"nil mk", func(s *Spec) { s.Points = []Point{{Param: 1}} }},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		if _, err := (&Runner{Spec: spec}).Run(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestRetryHealsTransientFault(t *testing.T) {
	fails := 0
	r := &Runner{
		Spec: testSpec(testPoint(1, 1)),
		Opts: Options{
			Sleep: noSleep,
			Wrap: func(next RunFunc) RunFunc {
				return func(c Cell) (map[counters.EventID]float64, error) {
					if c.Key() == "p0/r1/b0" && fails == 0 {
						fails++
						return nil, errors.New("transient")
					}
					return next(c)
				}
			},
		},
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Retried != 1 {
		t.Errorf("retried = %d, complete = %v; want 1, true", rep.Retried, rep.Complete())
	}
}

func TestKeepGoingRecordsGap(t *testing.T) {
	r := &Runner{
		Spec: testSpec(testPoint(1, 1)),
		Opts: Options{
			KeepGoing:  true,
			MaxRetries: -1,
			Sleep:      noSleep,
			Wrap: func(next RunFunc) RunFunc {
				return func(c Cell) (map[counters.EventID]float64, error) {
					if c.Rep == 1 {
						return nil, errors.New("boom")
					}
					return next(c)
				}
			},
		},
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("expected gaps")
	}
	if len(rep.Gaps) == 0 {
		t.Fatal("no gaps recorded")
	}
	m := rep.Points[0].M
	if !m.Partial {
		t.Error("measurement not marked partial")
	}
	// Rep 1 failed entirely: every event keeps only rep 0's sample.
	for _, id := range testEvents {
		if cov := m.Coverage(id); cov != 0.5 {
			t.Errorf("%s coverage = %g, want 0.5", counters.Def(id).Name, cov)
		}
	}
	if !strings.Contains(rep.Summary(), "gap: cell") {
		t.Errorf("summary missing gap line:\n%s", rep.Summary())
	}
}

func TestAbortWithoutKeepGoing(t *testing.T) {
	r := &Runner{
		Spec: testSpec(testPoint(1, 1)),
		Opts: Options{
			MaxRetries: -1,
			Sleep:      noSleep,
			Wrap: func(next RunFunc) RunFunc {
				return func(c Cell) (map[counters.EventID]float64, error) {
					return nil, errors.New("hard failure")
				}
			},
		},
	}
	_, err := r.Run()
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CampaignError", err)
	}
	var cell *CellError
	if !errors.As(err, &cell) || cell.Attempts != 1 {
		t.Errorf("cell error attempts = %v", err)
	}
}

func TestOpBudgetIsNotRetried(t *testing.T) {
	r := &Runner{
		Spec: testSpec(testPoint(1, 1)),
		Opts: Options{
			OpBudget:  16, // scanBody issues ~1024 loads
			KeepGoing: true,
			Sleep:     noSleep,
		},
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A budget abort is deterministic: no retries, every cell a gap.
	if rep.Retried != 0 {
		t.Errorf("retried %d times on a deterministic failure", rep.Retried)
	}
	if len(rep.Gaps) != rep.Cells {
		t.Errorf("gaps = %d, want %d", len(rep.Gaps), rep.Cells)
	}
	for _, g := range rep.Gaps {
		if !strings.Contains(g.Reason, "op budget") {
			t.Errorf("gap reason %q does not name the op budget", g.Reason)
		}
	}
}

func TestQuarantineAfterRepeatedBadValues(t *testing.T) {
	poison := counters.Def(counters.L1Hit).Name
	spec := testSpec(testPoint(1, 1))
	spec.Reps = 3
	r := &Runner{
		Spec: spec,
		Opts: Options{
			Sleep: noSleep,
			Wrap: func(next RunFunc) RunFunc {
				return func(c Cell) (map[counters.EventID]float64, error) {
					out, err := next(c)
					if err == nil {
						if _, ok := out[counters.L1Hit]; ok {
							out[counters.L1Hit] = -1
						}
					}
					return out, err
				}
			},
		},
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Event != counters.L1Hit {
		t.Fatalf("quarantined = %+v, want %s", rep.Quarantined, poison)
	}
	q := rep.Quarantined[0]
	if q.Strikes < DefaultQuarantineAfter || !strings.Contains(q.Reason, "impossible value") {
		t.Errorf("quarantine verdict = %+v", q)
	}
	m := rep.Points[0].M
	if _, ok := m.Samples[counters.L1Hit]; ok {
		t.Error("quarantined event still present in measurement")
	}
	if !m.Partial {
		t.Error("measurement with a quarantined event must be partial")
	}
	// The other events are untouched.
	if got := len(m.Samples[counters.AllLoads]); got != 3 {
		t.Errorf("healthy event lost samples: %d, want 3", got)
	}
	if !strings.Contains(rep.Summary(), "quarantined: "+poison) {
		t.Errorf("summary missing quarantine line:\n%s", rep.Summary())
	}
}

func TestJournalRefusedWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	r := &Runner{Spec: testSpec(testPoint(1, 1)), Opts: Options{JournalPath: path}}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Spec: testSpec(testPoint(1, 1)), Opts: Options{JournalPath: path}}).Run(); !errors.Is(err, ErrJournalExists) {
		t.Errorf("err = %v, want ErrJournalExists", err)
	}
}

func TestResumeMismatchedSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	if _, err := (&Runner{Spec: testSpec(testPoint(1, 1)), Opts: Options{JournalPath: path}}).Run(); err != nil {
		t.Fatal(err)
	}
	other := testSpec(testPoint(1, 1))
	other.Seed = 999
	_, err := (&Runner{Spec: other, Opts: Options{JournalPath: path, Resume: true}}).Run()
	if !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("err = %v, want ErrJournalMismatch", err)
	}
}

// TestResumeByteIdentical is the acceptance test: a campaign aborted
// mid-flight and resumed from its journal produces byte-identical
// measurements to an uninterrupted campaign with the same seed.
func TestResumeByteIdentical(t *testing.T) {
	spec := testSpec(testPoint(1, 1), testPoint(2, 2), testPoint(4, 4))

	// The uninterrupted reference run.
	ref, err := (&Runner{Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}

	// The same campaign killed at a mid-flight cell...
	path := filepath.Join(t.TempDir(), "campaign.journal")
	kill := func(next RunFunc) RunFunc {
		return func(c Cell) (map[counters.EventID]float64, error) {
			if c.Point == 1 && c.Rep == 1 {
				return nil, errors.New("injected kill")
			}
			return next(c)
		}
	}
	_, err = (&Runner{Spec: spec, Opts: Options{
		JournalPath: path, MaxRetries: -1, Sleep: noSleep, Wrap: kill,
	}}).Run()
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("expected abort, got %v", err)
	}

	// ...resumes from the journal and finishes clean.
	rep, err := (&Runner{Spec: spec, Opts: Options{
		JournalPath: path, Resume: true, Sleep: noSleep,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("resumed campaign incomplete: %s", rep.Summary())
	}
	if rep.Replayed == 0 || rep.Ran == 0 {
		t.Errorf("resume accounting: %d replayed, %d ran; want both > 0", rep.Replayed, rep.Ran)
	}
	for i := range ref.Points {
		got, want := saveBytes(t, rep.Points[i].M), saveBytes(t, ref.Points[i].M)
		if !bytes.Equal(got, want) {
			t.Errorf("point %d differs after resume:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestResumeTolerantOfTornTail: a journal whose final record was cut
// off mid-write (the kill -9 signature) resumes cleanly, re-running
// only the torn cell.
func TestResumeTolerantOfTornTail(t *testing.T) {
	spec := testSpec(testPoint(1, 1))
	path := filepath.Join(t.TempDir(), "campaign.journal")
	ref, err := (&Runner{Spec: spec, Opts: Options{JournalPath: path}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{Spec: spec, Opts: Options{JournalPath: path, Resume: true}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("torn tail not reported")
	}
	if rep.Ran != 1 {
		t.Errorf("ran %d cells, want exactly the torn one", rep.Ran)
	}
	if !bytes.Equal(saveBytes(t, rep.Points[0].M), saveBytes(t, ref.Points[0].M)) {
		t.Error("measurement differs after torn-tail resume")
	}
	if !strings.Contains(rep.Summary(), "torn final journal record") {
		t.Errorf("summary missing truncation notice:\n%s", rep.Summary())
	}
}

// TestResumeReplaysGapsAndStrikes: gap records and bad-value strikes
// replay from the journal, so quarantine decisions survive a resume.
func TestResumeReplaysGaps(t *testing.T) {
	spec := testSpec(testPoint(1, 1))
	spec.Reps = 3
	path := filepath.Join(t.TempDir(), "campaign.journal")
	wrap := func(next RunFunc) RunFunc {
		return func(c Cell) (map[counters.EventID]float64, error) {
			return nil, errors.New("boom")
		}
	}
	first, err := (&Runner{Spec: spec, Opts: Options{
		JournalPath: path, KeepGoing: true, MaxRetries: -1, Sleep: noSleep, Wrap: wrap,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := (&Runner{Spec: spec, Opts: Options{
		JournalPath: path, Resume: true, Sleep: noSleep,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Ran != 0 || resumed.Replayed != resumed.Cells {
		t.Errorf("resume of a finished campaign ran %d cells", resumed.Ran)
	}
	if len(resumed.Gaps) != len(first.Gaps) {
		t.Errorf("gaps: %d replayed, %d original", len(resumed.Gaps), len(first.Gaps))
	}
	if len(resumed.Quarantined) != len(first.Quarantined) {
		t.Errorf("quarantine: %d replayed, %d original", len(resumed.Quarantined), len(first.Quarantined))
	}
}

func TestSupervisorDo(t *testing.T) {
	sup := NewSupervisor(0, 2, 3)
	sup.Sleep = noSleep
	calls := 0
	v, attempts, err := Do(sup, func() (int, error) {
		calls++
		if calls < 3 {
			return 0, errors.New("transient")
		}
		return 42, nil
	})
	if err != nil || v != 42 || attempts != 3 {
		t.Errorf("Do = (%d, %d, %v)", v, attempts, err)
	}

	// Panics are recovered into typed errors.
	_, _, err = Do(sup, func() (int, error) { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("panic not recovered: %v", err)
	}

	// Timeouts abandon the attempt.
	hung := NewSupervisor(10*time.Millisecond, 0, 0)
	release := make(chan struct{})
	defer close(release)
	_, _, err = Do(hung, func() (int, error) { <-release; return 0, nil })
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Errorf("hang not timed out: %v", err)
	}

	// The convenience form counts attempts the same way.
	n := 0
	attempts, err = sup.Do(func() error {
		n++
		if n == 1 {
			return errors.New("once")
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Errorf("Supervisor.Do = (%d, %v)", attempts, err)
	}
}

func saveBytes(t *testing.T, m *perf.Measurement) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := evsel.SaveMeasurement(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
