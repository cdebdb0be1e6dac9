package exec

import (
	"fmt"
	"testing"

	"numaperf/internal/topology"
)

// scanBody streams loads, then stores, over a fresh 256 KiB buffer:
// 8192 simulated memory ops per run.
func scanBody(t *Thread) {
	buf := t.Alloc(256 << 10)
	for off := uint64(0); off < buf.Size; off += 64 {
		t.Load(buf.Addr(off))
	}
	for off := uint64(0); off < buf.Size; off += 64 {
		t.Store(buf.Addr(off))
	}
}

// BenchmarkEngineRun measures the full execution-driven path per run:
// thread op emission, chunk handoff, page-table resolution and cache
// simulation. This is the per-core cost the parallel campaign executor
// multiplies, so allocation churn here caps the whole system's
// throughput.
func BenchmarkEngineRun(b *testing.B) {
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			e, err := NewEngine(Config{Machine: topology.TwoSocket(), Threads: threads, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(scanBody); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// engineAllocBudget caps the allocations of one BenchmarkEngineRun
// iteration. A run allocates per thread and per chunk, never per
// simulated op, so it sits far below the budget (56 and 84 allocs at
// threads=1 and 4 on go1.24), while one allocation slipping into the
// per-op path adds 8192 per run.
const engineAllocBudget = 256

// TestEngineRunAllocBudget is the live allocation guard over the
// benchmark's body: it measures the engine as built, at the thread
// counts the benchmark reports.
func TestEngineRunAllocBudget(t *testing.T) {
	for _, threads := range []int{1, 4} {
		e, err := NewEngine(Config{Machine: topology.TwoSocket(), Threads: threads, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Run(scanBody); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("threads=%d: %.0f allocs/run (budget %d)", threads, allocs, engineAllocBudget)
		if allocs > engineAllocBudget {
			t.Errorf("threads=%d: %.0f allocs per engine run, budget %d — an allocation reached the per-op path",
				threads, allocs, engineAllocBudget)
		}
	}
}
