package campaign

import (
	"fmt"
	"testing"

	"numaperf/internal/perf"
)

// benchSpec is a Fig. 9-style thread sweep: the same scan workload
// measured in Batched mode across four thread counts. Each of its run
// cells is CPU-bound and independent, the shape the parallel executor
// is built for.
func benchSpec() Spec {
	return Spec{
		ParamName: "threads",
		Points: []Point{
			testPoint(1, 1), testPoint(2, 2), testPoint(4, 4), testPoint(8, 8),
		},
		Events: testEvents,
		Reps:   2,
		Mode:   perf.Batched,
		Seed:   23,
	}
}

// BenchmarkFig9StyleSweep measures one whole sweep campaign per
// iteration at several worker counts. The ns/op ratio between
// parallel=1 and parallel=4 is the executor's wall-clock speedup;
// TestParallelSpeedup checks it reaches ≥1.5× at 4 workers, and skips
// below 4 CPUs, where the parallel rows simply match the serial one.
func BenchmarkFig9StyleSweep(b *testing.B) {
	for _, conc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", conc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := &Runner{Spec: benchSpec(), Opts: Options{Concurrency: conc}}
				if _, err := r.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
