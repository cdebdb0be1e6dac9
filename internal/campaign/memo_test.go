package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
)

// countingPoint is testPoint whose body counts its simulations: thread 0
// adds one to runs on entry.
func countingPoint(threads int, param float64, runs *atomic.Int64) Point {
	return Point{
		Param: param,
		Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
			e, err := exec.NewEngine(exec.Config{Machine: topology.TwoSocket(), Threads: threads, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return e, func(t *exec.Thread) {
				if t.ID() == 0 {
					runs.Add(1)
				}
				scanBody(t)
			}, nil
		},
	}
}

// countingSpec is a three-point sweep with three repetitions, and in
// Batched mode two register batches per repetition, whose points count
// their simulations into runs.
func countingSpec(mode perf.Mode, runs []*atomic.Int64) Spec {
	spec := testSpec(countingPoint(1, 1, runs[0]), countingPoint(2, 2, runs[1]), countingPoint(4, 4, runs[2]))
	spec.Reps = 3
	spec.Mode = mode
	return spec
}

func newCounters(n int) []*atomic.Int64 {
	out := make([]*atomic.Int64, n)
	for i := range out {
		out[i] = new(atomic.Int64)
	}
	return out
}

// TestEachPointSimulatesOnce: a campaign simulates each sweep point once
// per Run, in every mode and at any worker count; a resume simulates
// only the points with a missing cell; and a point stopped by the op
// budget is simulated once and every one of its cells carries that
// budget abort as its gap.
func TestEachPointSimulatesOnce(t *testing.T) {
	for _, mode := range []perf.Mode{perf.Batched, perf.Unlimited, perf.Multiplexed} {
		for _, conc := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/concurrency=%d", mode, conc), func(t *testing.T) {
				runs := newCounters(3)
				rep, err := (&Runner{Spec: countingSpec(mode, runs), Opts: Options{Concurrency: conc}}).Run()
				if err != nil {
					t.Fatal(err)
				}
				wantCells := 9
				if mode == perf.Batched {
					wantCells = 18
				}
				if rep.Cells != wantCells || rep.Ran != rep.Cells {
					t.Fatalf("ran %d of %d cells, want %d", rep.Ran, rep.Cells, wantCells)
				}
				for p, n := range runs {
					if got := n.Load(); got != 1 {
						t.Errorf("point %d simulated %d times, want once", p, got)
					}
				}
			})
		}
	}

	t.Run("resume", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "campaign.journal")
		spec := countingSpec(perf.Batched, newCounters(3))
		stopAtPoint1 := func(next RunFunc) RunFunc {
			return func(c Cell) (map[counters.EventID]float64, error) {
				if c.Point > 0 {
					return nil, errors.New("injected kill")
				}
				return next(c)
			}
		}
		_, err := (&Runner{Spec: spec, Opts: Options{
			JournalPath: path, MaxRetries: -1, Sleep: noSleep, Wrap: stopAtPoint1,
		}}).Run()
		var ce *CampaignError
		if !errors.As(err, &ce) || ce.Cell.Key() != "p1/r0/b0" {
			t.Fatalf("got %v, want an abort at p1/r0/b0", err)
		}
		runs := newCounters(3)
		rep, err := (&Runner{Spec: countingSpec(perf.Batched, runs), Opts: Options{
			JournalPath: path, Resume: true, Concurrency: 4,
		}}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Replayed != 6 || rep.Ran != 12 {
			t.Fatalf("replayed %d and ran %d cells, want every cell of point 0 (6) replayed and 12 run", rep.Replayed, rep.Ran)
		}
		if got := runs[0].Load() + runs[1].Load() + runs[2].Load(); got != 2 || runs[0].Load() != 0 {
			t.Errorf("resume simulated %d, %d and %d times, want 0, 1 and 1",
				runs[0].Load(), runs[1].Load(), runs[2].Load())
		}
	})

	t.Run("op budget", func(t *testing.T) {
		runs := newCounters(3)
		// scanBody emits ~1024 loads per thread: the 4-thread point alone
		// crosses the budget.
		rep, err := (&Runner{Spec: countingSpec(perf.Batched, runs), Opts: Options{
			OpBudget: 3000, KeepGoing: true, Concurrency: 4, Sleep: noSleep,
		}}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := runs[2].Load(); got != 1 {
			t.Errorf("the over-budget point simulated %d times, want once", got)
		}
		if len(rep.Gaps) != 6 || rep.Retried != 0 {
			t.Fatalf("%d gaps, %d retries; want every cell of the over-budget point a gap, none retried", len(rep.Gaps), rep.Retried)
		}
		var cause string
		for i, g := range rep.Gaps {
			_, err, _ := strings.Cut(g.Reason, "attempt(s): ")
			if g.Cell.Point != 2 || !strings.Contains(err, "op budget exceeded") {
				t.Errorf("gap %s: %q, want an op-budget gap of point 2", g.Cell.Key(), g.Reason)
			}
			if i > 0 && err != cause {
				t.Errorf("gap %s: %q, want the same budget abort as the first cell's: %q", g.Cell.Key(), err, cause)
			}
			cause = err
		}
	})
}

// TestPointsSimulateInParallel: a free worker starts a point no worker
// has started before it takes a cell that would wait for a running
// simulation, so two points simulate at once even when each has later
// cells waiting for its run. Each point's body meets the other point's
// body at a rendezvous; with cells dispatched in canonical order both
// workers would hold cells of point 0, and its body would wait out the
// bound.
func TestPointsSimulateInParallel(t *testing.T) {
	const bound = 10 * time.Second
	arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var once [2]sync.Once
	var stalled atomic.Bool
	point := func(p int) Point {
		return Point{
			Param: float64(p + 1),
			Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
				e, err := exec.NewEngine(exec.Config{Machine: topology.TwoSocket(), Threads: 1, Seed: seed})
				return e, func(t *exec.Thread) {
					once[p].Do(func() { close(arrived[p]) })
					select {
					case <-arrived[1-p]:
					case <-time.After(bound):
						stalled.Store(true)
					}
					scanBody(t)
				}, err
			},
		}
	}
	rep, err := (&Runner{Spec: testSpec(point(0), point(1)), Opts: Options{Concurrency: 2}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells < 4 || !rep.Complete() {
		t.Fatalf("%d cells, complete %v; want a complete campaign of at least 2 cells per point", rep.Cells, rep.Complete())
	}
	if stalled.Load() {
		t.Errorf("a point's body waited %s for the other point's: the points did not simulate in parallel", bound)
	}
}

// TestSimulatedPointCommitsBeforeNextPointStarts: a worker that has
// returned a point's first cell runs the point's other cells before it
// starts a new point, so a simulated point is journaled while another
// point still simulates. Two workers take points 0 and 1; point 1's body
// blocks until a cell of point 2 is handed out, so until then one worker
// is free, and it must run out point 0 first. Handing out each point's
// first cell before the rest would start point 2 after point 0's first
// cell.
func TestSimulatedPointCommitsBeforeNextPointStarts(t *testing.T) {
	const bound = 10 * time.Second
	var stalled atomic.Bool
	spec := func(release <-chan struct{}) Spec {
		point := func(p int) Point {
			return Point{
				Param: float64(p + 1),
				Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
					e, err := exec.NewEngine(exec.Config{Machine: topology.TwoSocket(), Threads: 1, Seed: seed})
					return e, func(t *exec.Thread) {
						if p == 1 {
							select {
							case <-release:
							case <-time.After(bound):
								stalled.Store(true)
							}
						}
						scanBody(t)
					}, err
				},
			}
		}
		return testSpec(point(0), point(1), point(2), point(3))
	}
	released := make(chan struct{})
	close(released)
	refRep, refJnl := runAt(t, spec(released), 1, Options{})
	perPoint := int64(refRep.Cells / 4)
	if perPoint < 2 {
		t.Fatalf("%d cells per point, want at least 2", perPoint)
	}

	release := make(chan struct{})
	var once sync.Once
	var point0Returned, point0AtPoint2 atomic.Int64
	wrap := func(next RunFunc) RunFunc {
		return func(c Cell) (map[counters.EventID]float64, error) {
			if c.Point == 2 {
				once.Do(func() {
					point0AtPoint2.Store(point0Returned.Load())
					close(release)
				})
			}
			out, err := next(c)
			if c.Point == 0 {
				point0Returned.Add(1)
			}
			return out, err
		}
	}
	rep, jnl := runAt(t, spec(release), 2, Options{Wrap: wrap})
	if got := point0AtPoint2.Load(); got != perPoint {
		t.Errorf("point 2 was handed out when %d of point 0's %d cells had returned, want all", got, perPoint)
	}
	if stalled.Load() {
		t.Errorf("point 1's body waited %s: no cell of point 2 was handed out while point 1 simulated", bound)
	}
	if !bytes.Equal(jnl, refJnl) {
		t.Errorf("journal differs from serial run:\ngot:\n%s\nwant:\n%s", jnl, refJnl)
	}
	if view, refView := renderAll(t, rep), renderAll(t, refRep); !bytes.Equal(view, refView) {
		t.Errorf("rendered report differs from serial run:\ngot:\n%s\nwant:\n%s", view, refView)
	}
}

// TestPanicWhileSimulatingReleasesThePoint: a simulation that panics
// leaves its point free, so the retry simulates the point and its other
// cells take their runs from that simulation.
func TestPanicWhileSimulatingReleasesThePoint(t *testing.T) {
	var runs atomic.Int64
	var armed atomic.Bool
	armed.Store(true)
	p := countingPoint(1, 1, &runs)
	mk := p.Mk
	p.Mk = func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
		e, body, err := mk(seed)
		if err == nil && armed.CompareAndSwap(true, false) {
			e.SetPostChunkHook(func() { panic("injected hook panic") })
		}
		return e, body, err
	}
	spec := testSpec(p)
	spec.Mode = perf.Unlimited
	rep, err := (&Runner{Spec: spec, Opts: Options{RunTimeout: 5 * time.Second, Sleep: noSleep}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Retried != 1 {
		t.Errorf("complete %v after %d retries, want a complete campaign after one:\n%s", rep.Complete(), rep.Retried, rep.Summary())
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("the point simulated %d times, want twice: the panicking attempt and its retry", got)
	}
}
