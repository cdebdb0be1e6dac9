package exec_test

import (
	"reflect"
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// differingField names the first field of Result in which got and want
// differ, or returns "" when they are equal field for field.
func differingField(got, want *exec.Result) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			return g.Type().Field(i).Name
		}
	}
	return ""
}

// TestRepeatMatchesRun is the differential proof of Repeat: on every
// machine at 1 and 2 threads, a Run followed by k Repeats and one more
// Run must equal k+2 Runs of the same body on a twin engine, field for
// field, so the ordinal advances with each Repeat and the later Run
// continues the sub-seeds. A Repeat simulates nothing: the post-chunk
// hook and the load observer stay silent, and the results it was
// handed stay as they were.
func TestRepeatMatchesRun(t *testing.T) {
	const k = 3
	bodies := []struct {
		name string
		body func(*exec.Thread)
	}{
		{"regions", regionBody},
		{"chase", workloads.PointerChase{Lines: 512}.Body()},
	}
	for _, name := range topology.MachineNames() {
		mach, _ := topology.ByName(name)
		for _, threads := range []int{1, 2} {
			for _, b := range bodies {
				cfg := exec.Config{Machine: mach, Threads: threads, Seed: 11}
				e, err := exec.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := exec.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var calls int
				e.SetPostChunkHook(func() { calls++ })
				e.Sim().SetLoadObserver(func(int, uint64, uint64) { calls++ })

				first, err := e.Run(b.body)
				if err != nil {
					t.Fatal(err)
				}
				got := []*exec.Result{first}
				before := calls
				for i := 0; i < k; i++ {
					got = append(got, e.Repeat(got[len(got)-1]))
				}
				if calls != before {
					t.Errorf("%s on %s, %d threads: %d hook or observer calls during %d Repeats, want none",
						b.name, name, threads, calls-before, k)
				}
				last, err := e.Run(b.body)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, last)

				for i, g := range got {
					want, err := twin.Run(b.body)
					if err != nil {
						t.Fatal(err)
					}
					if f := differingField(g, want); f != "" {
						t.Errorf("%s on %s, %d threads: result %d (%s) differs from run %d of a twin engine in %s",
							b.name, name, threads, i, kind(i, k), i, f)
					}
				}
			}
		}
	}
}

func kind(i, k int) string {
	switch {
	case i == 0:
		return "Run"
	case i <= k:
		return "Repeat"
	default:
		return "later Run"
	}
}

// TestRepeatOfAnotherSeedMatchesRun: a Repeat of a run taken on an
// engine that differs only in its seed equals the first Run of this
// engine's body, field for field, because the seed drives only the
// noise. The campaign runner gives every cell of a sweep point such a
// Repeat of the point's one simulated run.
func TestRepeatOfAnotherSeedMatchesRun(t *testing.T) {
	for _, name := range topology.MachineNames() {
		mach, _ := topology.ByName(name)
		for _, threads := range []int{1, 2} {
			engine := func(seed int64) *exec.Engine {
				e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: threads, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			simulated, err := engine(11).Run(regionBody)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine(29).Run(regionBody)
			if err != nil {
				t.Fatal(err)
			}
			if f := differingField(engine(29).Repeat(simulated), want); f != "" {
				t.Errorf("%s, %d threads: a Repeat of seed 11's run on a seed-29 engine differs from its Run in %s", name, threads, f)
			}
		}
	}
}
