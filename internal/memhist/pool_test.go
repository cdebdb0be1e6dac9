package memhist

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// pooledSequence mixes machines, team sizes, exact and adaptive
// measurements and seeds, and repeats (machine, threads) keys, so most
// requests run on an engine an earlier one left in the pool.
func pooledSequence() []ProbeRequest {
	registerTiny()
	return []ProbeRequest{
		{Workload: "pointer-chase", Machine: "uma", Threads: 1, Seed: 1},
		{Workload: "pointer-chase", Machine: "uma", Threads: 1, Seed: 2, Exact: true},
		{Workload: "test-tiny", Machine: "2s", Threads: 2, Seed: 3, Adaptive: true},
		{Workload: "pointer-chase", Machine: "dl580", Threads: 1, Seed: 4, Adaptive: true},
		{Workload: "test-tiny", Machine: "2s", Threads: 2, Seed: 3, Exact: true},
		{Workload: "pointer-chase", Machine: "2s", Threads: 1, Seed: 5},
		{Workload: "test-tiny", Machine: "dl580", Threads: 2, Seed: 6, Reps: 2},
		{Workload: "pointer-chase", Machine: "uma", Threads: 2, Seed: 7, Adaptive: true},
		{Workload: "pointer-chase", Machine: "dl580", Threads: 1, Seed: 4, Exact: true},
		{Workload: "test-tiny", Machine: "uma", Threads: 1, Seed: 8},
		{Workload: "test-tiny", Machine: "dl580", Threads: 2, Seed: 9, Exact: true},
		{Workload: "pointer-chase", Machine: "uma", Threads: 1, Seed: 2},
	}
}

// freshJSON measures req on a new engine, the way every request was
// served before engines were pooled, and encodes the histogram.
func freshJSON(t *testing.T, req ProbeRequest) []byte {
	t.Helper()
	w, _ := workloads.ByName(req.Workload)
	mach, _ := topology.ByName(req.Machine)
	e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: req.Threads, Seed: req.Seed})
	if err != nil {
		t.Fatal(err)
	}
	h, err := measureOn(e, w, req, perf.SamplerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHandleRequestMatchesFreshEngines sends a mixed request sequence
// through HandleRequest, whose engines are pooled and re-seeded, and
// requires every histogram to encode to the same bytes as a fresh
// engine's measurement of the same request. The sequence then runs from
// four goroutines at once, which share the pools (and which the race
// detector watches in CI's -race pass). Each goroutine sends its own
// SliceCycles, so its requests miss the memo and measure on the shared
// pools rather than copy another goroutine's histogram.
func TestHandleRequestMatchesFreshEngines(t *testing.T) {
	resetMemo()
	reqs := pooledSequence()
	variant := func(req ProbeRequest, g int) ProbeRequest {
		req.SliceCycles = uint64(g) * 1_000_003
		return req
	}
	want := make([][][]byte, 5)
	for g := range want {
		want[g] = make([][]byte, len(reqs))
		for i, req := range reqs {
			want[g][i] = freshJSON(t, variant(req, g))
		}
	}
	check := func(t *testing.T, g int) {
		for i, req := range reqs {
			req = variant(req, g)
			h, err := HandleRequest(req)
			if err != nil {
				t.Errorf("goroutine %d, request %d (%+v): %v", g, i, req, err)
				return
			}
			got, err := json.Marshal(h)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want[g][i]) {
				t.Errorf("goroutine %d, request %d (%+v): pooled histogram differs from a fresh engine's:\n got %s\nwant %s",
					g, i, req, got, want[g][i])
			}
		}
	}
	check(t, 0)
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(t, g)
		}()
	}
	wg.Wait()
}

// TestHandleRequestLeavesNoPoolForBadRequests checks that a request
// naming an unknown machine, or more threads than its machine has
// cores, creates no engine pool.
func TestHandleRequestLeavesNoPoolForBadRequests(t *testing.T) {
	for _, req := range []ProbeRequest{
		{Workload: "pointer-chase", Machine: "no-such-machine"},
		{Workload: "pointer-chase", Machine: "uma", Threads: 9},
	} {
		if _, err := HandleRequest(req); err == nil {
			t.Fatalf("%+v: want an error", req)
		}
		// Walk every pool rather than build the key, which
		// HandleRequestWith normalises before it looks a pool up.
		enginePools.Range(func(k, _ any) bool {
			if key := k.(engineKey); key.machine == req.Machine && (req.Threads == 0 || key.threads == req.Threads) {
				t.Errorf("%+v: a failed request left the engine pool %+v", req, key)
			}
			return true
		})
	}
}

// handleRequestAllocBudget caps the mean bytes one pooled probe cell
// allocates (pointer-chase on uma). A cell on a fresh engine allocates
// 10.6 MB, nearly all of it a whole L3; a re-seeded one 0.04 MiB, as
// the engine keeps its op buffers and noise generator (0.24 MB while
// runs rebuilt them). A GC that empties the pool once during the 20
// measured cells costs one rebuild, 0.53 MiB on the mean, so the budget
// tolerates it.
const handleRequestAllocBudget = 2 << 20

// raceEnabled is set in -race builds (race_test.go), whose sync.Pool
// drops a quarter of its Puts at random.
var raceEnabled bool

// TestHandleRequestAllocBudget is the live allocation guard over a
// probe cell that misses the memo: after one warm-up request fills the
// pool, the mean TotalAlloc growth of 20 HandleRequest calls on the
// same (machine, threads) must stay within budget. Each call asks for
// its own SliceCycles, so each measures on a pooled engine instead of
// copying a stored histogram. Under -race the pool drops engines on
// purpose, so the guard runs in the plain test pass only.
func TestHandleRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of Puts, so engine reuse is not measured under -race")
	}
	resetMemo()
	req := ProbeRequest{Workload: "pointer-chase", Machine: "uma", Seed: 1}
	if _, err := HandleRequest(req); err != nil {
		t.Fatal(err)
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		req.Seed = int64(2 + i)
		req.SliceCycles = uint64(1_000_000 + i)
		if _, err := HandleRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%.2f MiB allocated per probe cell (budget %.0f MiB)", float64(perCall)/(1<<20), float64(handleRequestAllocBudget)/(1<<20))
	if perCall > handleRequestAllocBudget {
		t.Errorf("%d bytes allocated per probe cell, budget %d: HandleRequest no longer reuses its engines",
			perCall, handleRequestAllocBudget)
	}
}

// memoHitSlack is what a memo hit may allocate beyond its copy of the
// histogram and its workload lookup. A default pointer-chase cell on
// uma allocated 1280 bytes per hit: a 1264-byte copy and 16 bytes of
// workload lookup. A hit builds no machine: topology.ByName, 640 bytes,
// runs only on a miss.
const memoHitSlack = 64

// cloneSink keeps TestHandleRequestHitAllocs' copies on the heap, as a
// hit's are.
var cloneSink *Histogram

// TestHandleRequestHitAllocs is the live allocation guard over a probe
// cell that hits the memo: it takes no engine, builds no machine and
// allocates only its copy of the stored histogram and its workload
// lookup, plus memoHitSlack.
func TestHandleRequestHitAllocs(t *testing.T) {
	req := ProbeRequest{Workload: "pointer-chase", Machine: "uma", Seed: 1}
	stored, err := HandleRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 100
	meanBytes := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	copyBytes := meanBytes(func() { cloneSink = stored.clone() })
	lookupBytes := meanBytes(func() { workloads.ByName(req.Workload) })
	hitBytes := meanBytes(func() {
		req.Seed++
		if _, err := HandleRequest(req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d bytes allocated per memo hit: %d per copy of its histogram, %d per lookup (slack %d)",
		hitBytes, copyBytes, lookupBytes, memoHitSlack)
	if hitBytes > copyBytes+lookupBytes+memoHitSlack {
		t.Errorf("a memo hit allocates %d bytes, its copy %d and its lookups %d: a hit does more than copy the stored histogram",
			hitBytes, copyBytes, lookupBytes)
	}
}

// BenchmarkHandleRequestHit measures one small probe cell (pointer-chase
// on uma, 16 Ki dependent loads) as the probe server and the fleet
// agent serve a fleet campaign's cells: a new seed each time, answered
// from the memo.
func BenchmarkHandleRequestHit(b *testing.B) {
	req := ProbeRequest{Workload: "pointer-chase", Machine: "uma"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req.Seed = int64(i)
		if _, err := HandleRequest(req); err != nil {
			b.Fatal(err)
		}
	}
}

// missSlice is the SliceCycles of BenchmarkHandleRequestMiss' last
// request. It grows across b.N rounds, so no round repeats a request
// an earlier round stored.
var missSlice uint64

// BenchmarkHandleRequestMiss measures the same cell when it misses the
// memo (each iteration asks for its own SliceCycles), so it simulates
// on a pooled, re-seeded engine.
func BenchmarkHandleRequestMiss(b *testing.B) {
	resetMemo()
	req := ProbeRequest{Workload: "pointer-chase", Machine: "uma"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		missSlice++
		req.Seed = int64(i)
		req.SliceCycles = 1_000_000 + missSlice
		if _, err := HandleRequest(req); err != nil {
			b.Fatal(err)
		}
	}
}
