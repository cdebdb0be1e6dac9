package memhist

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/faultperf"
	"numaperf/internal/perf"
	"numaperf/internal/workloads"
)

// resetMemo empties the histogram memo, so the requests that follow
// measure on pooled engines.
func resetMemo() {
	memo.mu.Lock()
	clear(memo.entries)
	memo.mu.Unlock()
}

// memoLen returns the number of histograms the memo holds.
func memoLen() int {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	return len(memo.entries)
}

// countingWorkload is test-tiny's load loop under its own name: it
// counts the runs of its body and panics in them while fail is set.
// Its pointer fields keep it comparable, so the memo may store it.
type countingWorkload struct {
	runs *atomic.Int64
	fail *atomic.Bool
}

func (countingWorkload) Name() string { return "test-counting" }
func (w countingWorkload) Body() func(*exec.Thread) {
	tiny := tinyWorkload{}.Body()
	return func(t *exec.Thread) {
		if t.ID() == 0 {
			w.runs.Add(1)
		}
		if w.fail.Load() {
			panic("scripted measurement failure")
		}
		tiny(t)
	}
}

// registerCounting registers a fresh countingWorkload under name and
// returns it.
func registerCounting(name string) countingWorkload {
	w := countingWorkload{runs: new(atomic.Int64), fail: new(atomic.Bool)}
	workloads.Register(name, func() workloads.Workload { return w })
	return w
}

// memoSeeds is how many seeds TestMemoMatchesFreshEngines asks for
// each request under.
const memoSeeds = 5

// memoWant holds freshJSON of every pooledSequence request at seeds
// 1–memoSeeds, built once per test binary: a -count run repeats the
// memo passes, not the fresh engines they are held to.
var memoWant struct {
	once sync.Once
	json [][]byte
}

// TestMemoMatchesFreshEngines asks for every pooledSequence request at
// seeds 1–5, so all but the first seed of each request are memo hits,
// and requires each histogram to encode to the same bytes as a fresh
// engine's measurement at that seed. It runs from one goroutine on an
// empty memo, then from four at once on another empty memo, where the
// goroutines race to measure and store the same keys.
func TestMemoMatchesFreshEngines(t *testing.T) {
	reqs := pooledSequence()
	memoWant.once.Do(func() {
		want := make([][]byte, len(reqs)*memoSeeds)
		for s := 0; s < memoSeeds; s++ {
			for i, req := range reqs {
				req.Seed = int64(1 + s)
				want[s*len(reqs)+i] = freshJSON(t, req)
			}
		}
		memoWant.json = want
	})
	want := memoWant.json
	if want == nil {
		t.Fatal("the fresh-engine references failed to build")
	}
	check := func(g int) {
		for s := 0; s < memoSeeds; s++ {
			for i, req := range reqs {
				req.Seed = int64(1 + s)
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
				if w := want[s*len(reqs)+i]; !bytes.Equal(got, w) {
					t.Errorf("goroutine %d, request %d (%+v): histogram differs from a fresh engine's:\n got %s\nwant %s",
						g, i, req, got, w)
				}
			}
		}
	}
	resetMemo()
	check(0)
	resetMemo()
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(g)
		}()
	}
	wg.Wait()
}

// TestMemoHitIsACopy changes the histogram a miss returned and the one
// a hit returned, and requires the next hit to encode as the first
// answer did.
func TestMemoHitIsACopy(t *testing.T) {
	resetMemo()
	req := ProbeRequest{Workload: "pointer-chase", Machine: "uma", Seed: 1}
	var want []byte
	for call := 0; call < 3; call++ {
		req.Seed++
		h, err := HandleRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("call %d: a caller's change to an earlier answer reached the memo:\n got %s\nwant %s", call, got, want)
		}
		h.Origin = OriginLocalFallback
		h.Counts[0] = -1
		h.Bounds[0] = 1
		h.Uncertain[0] = !h.Uncertain[0]
		h.Quality.RecordsSeen = 7
		h.Quality.Thresholds[0].Observed = 7
		h.Confidence[0] = 0.25
	}
}

// TestMemoKeysOnWorkloadValue re-registers a name with another
// workload value and requires the next request to measure the new
// workload rather than answer with the old one's histogram.
func TestMemoKeysOnWorkloadValue(t *testing.T) {
	const name = "test-memo-swap"
	req := ProbeRequest{Workload: name, Machine: "uma", Seed: 3}
	var answers [2][]byte
	for i, w := range []workloads.PointerChase{{Lines: 256}, {Lines: 1024}} {
		workloads.Register(name, func() workloads.Workload { return w })
		h, err := HandleRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if answers[i], err = json.Marshal(h); err != nil {
			t.Fatal(err)
		}
		if want := freshJSON(t, req); !bytes.Equal(answers[i], want) {
			t.Errorf("%s registered as %+v: histogram differs from a fresh engine's:\n got %s\nwant %s", name, w, answers[i], want)
		}
	}
	if bytes.Equal(answers[0], answers[1]) {
		t.Error("both registrations answered with the same histogram")
	}
}

// TestMemoSkipsSamplerOptions counts the runs of a workload's body: a
// request with a Disruptor, or with any other sampler setting,
// simulates on every call, and a lossless one only on the first.
func TestMemoSkipsSamplerOptions(t *testing.T) {
	w := registerCounting("test-counting-sampler")
	req := ProbeRequest{Workload: "test-counting-sampler", Machine: "2s", Seed: 1}
	for _, c := range []struct {
		name    string
		sampler perf.SamplerOptions
		runs    int64
	}{
		{"disruptor", perf.SamplerOptions{Disruptor: faultperf.NewScript()}, 3},
		{"buffer cap", perf.SamplerOptions{BufferCap: 1 << 20}, 3},
		{"lossless", perf.SamplerOptions{}, 1},
	} {
		before := w.runs.Load()
		for call := 0; call < 3; call++ {
			req.Seed++
			if _, err := HandleRequestWith(req, c.sampler); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if got := w.runs.Load() - before; got != c.runs {
			t.Errorf("%s: 3 requests ran the body %d times, want %d", c.name, got, c.runs)
		}
	}
}

// TestMemoStoresNoFailure fails a measurement and requires the next
// request of the same key to measure again.
func TestMemoStoresNoFailure(t *testing.T) {
	resetMemo()
	w := registerCounting("test-counting-failure")
	req := ProbeRequest{Workload: "test-counting-failure", Machine: "2s", Seed: 1}
	w.fail.Store(true)
	if _, err := HandleRequest(req); err == nil || !strings.Contains(err.Error(), "scripted measurement failure") {
		t.Fatalf("err = %v, want the scripted failure", err)
	}
	if n := memoLen(); n != 0 {
		t.Fatalf("a failed request left %d histograms in the memo", n)
	}
	w.fail.Store(false)
	for call := 0; call < 2; call++ {
		req.Seed++
		if _, err := HandleRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.runs.Load(); got != 2 {
		t.Errorf("body ran %d times over a failed and two good requests, want 2", got)
	}
}

// TestMemoKeepsEmptyBoundsApart: nil bounds select DefaultBounds while
// empty ones fail validation, so an empty-bounds request must still
// fail after a nil-bounds request of the same workload succeeded.
func TestMemoKeepsEmptyBoundsApart(t *testing.T) {
	for _, exact := range []bool{false, true} {
		req := ProbeRequest{Workload: "pointer-chase", Machine: "uma", Exact: exact}
		if _, err := HandleRequest(req); err != nil {
			t.Fatal(err)
		}
		req.Bounds = []uint64{}
		_, err := HandleRequest(req)
		if !errors.Is(err, ErrBadBounds) || !strings.Contains(err.Error(), "need at least two bounds, got 0") {
			t.Errorf("exact %v: empty bounds after nil bounds: err = %v, want %q", exact, err, "need at least two bounds, got 0")
		}
	}
}

// TestMemoBound sends more distinct requests than the memo holds and
// requires it never to hold more than memoBound histograms: it empties
// when full.
func TestMemoBound(t *testing.T) {
	resetMemo()
	registerTiny()
	for i := 0; i <= memoBound; i++ {
		req := ProbeRequest{Workload: "test-tiny", Machine: "uma", Exact: true, SliceCycles: uint64(1 + i)}
		if _, err := HandleRequest(req); err != nil {
			t.Fatal(err)
		}
		if n := memoLen(); n > memoBound {
			t.Fatalf("after %d distinct requests the memo holds %d histograms, bound %d", i+1, n, memoBound)
		}
	}
	if n := memoLen(); n != 1 {
		t.Errorf("after %d distinct requests the memo holds %d histograms, want 1 (emptied when full)", memoBound+1, n)
	}
}
