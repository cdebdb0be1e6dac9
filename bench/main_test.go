package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runSmall runs one test-size warm-up and one timed iteration.
func runSmall(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: 1, seconds: 1, trace: trace, workdir: t.TempDir(),
		small: true, setups: 1, maxIters: 1}
	var stderr strings.Builder
	res, err := bench(cfg, io.Discard, &stderr)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d units failed\n%s", workload, res.correct, res.failed, res.attempted, stderr.String())
	}
	return res
}

func checkNames(t *testing.T, got []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(got), len(want))
	}
	units := map[string]string{}
	for _, m := range got {
		units[m.name] = m.unit
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value < 0 {
			t.Errorf("%s = %v", m.name, m.value)
		}
	}
	for _, w := range want {
		if u, ok := units[w.Name]; !ok {
			t.Errorf("metric %s not reported", w.Name)
		} else if u != w.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", w.Name, u, w.Unit)
		}
	}
}

func metricValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// TestWorkloads runs every workload untraced and traced: the metric
// names must match BENCHMARK.json, the digest must repeat across the
// two runs, and the traced chain's self times must add up to the
// iterations' wall time.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(allWorkloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			plain := runSmall(t, w.Name, false)
			traced := runSmall(t, w.Name, true)
			checkNames(t, plain.metrics, spec.EndToEnd)
			checkNames(t, traced.metrics, spec.PerLayer)
			if plain.digest != traced.digest {
				t.Errorf("digest %s, then %s", plain.digest, traced.digest)
			}
			if f := metricValue(traced.metrics, "trace.chain_sum_frac"); math.Abs(f-1) > 0.01 {
				t.Errorf("chain self times add up to %.4f of the wall time", f)
			}
			for _, m := range plain.metrics {
				if m.value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
				}
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "iteration", Start: 0, End: 100, Chain: true},
		{ID: 2, Parent: 1, Name: "campaign.run", Start: 10, End: 90, Chain: true},
		{ID: 3, Parent: 2, Name: "journal.sync", Start: 20, End: 30, Chain: true},
		// Cells overlap each other and the chain: they do not reduce
		// campaign.run's self time, only their parent cell's.
		{ID: 4, Parent: 2, Name: "campaign.cell", Start: 10, End: 60},
		{ID: 5, Parent: 2, Name: "campaign.cell", Start: 15, End: 80},
		{ID: 6, Parent: 4, Name: "exec.new_engine", Start: 10, End: 20},
		{ID: 7, Parent: 4, Name: "exec.run", Start: 25, End: 60},
	}
	want := []int64{20, 70, 10, 5, 65, 10, 35}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, spans[i].ID, got[i], want[i])
		}
	}
	var chain int64
	for i, s := range spans {
		if s.Chain {
			chain += got[i]
		}
	}
	if chain != 100 {
		t.Errorf("chain self times add up to %d, want the iteration's 100", chain)
	}
}

func TestBusyFrac(t *testing.T) {
	for _, c := range []struct {
		busy, wall float64
		workers    int
		want       float64
	}{
		{150, 100, 2, 0.75},
		{100, 100, 1, 1},
		{0, 100, 2, 0},
		{10, 0, 2, 0},
		{10, 100, 0, 0},
	} {
		if got := busyFrac(c.busy, c.wall, c.workers); got != c.want {
			t.Errorf("busyFrac(%v, %v, %d) = %v, want %v", c.busy, c.wall, c.workers, got, c.want)
		}
	}
}

func TestFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-workload", "evsel-cachemiss", "-trace", "2"}, 2},
		{[]string{"-workload", "evsel-cachemiss", "-seconds", "0"}, 2},
		{[]string{"-workload", "evsel-cachemiss", "extra"}, 2},
		{[]string{"-workload", "nope", "-workdir", t.TempDir()}, 1},
	} {
		if code := run(c.args, io.Discard, io.Discard); code != c.code {
			t.Errorf("run(%q) = %d, want %d", c.args, code, c.code)
		}
	}
}

// TestPinnedDigests checks testdata/digests.json names only real
// workloads and pins seeds 1 to 3 of each.
func TestPinnedDigests(t *testing.T) {
	for _, w := range allWorkloads {
		for seed := int64(1); seed <= 3; seed++ {
			d, ok, err := pinnedDigest(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || len(d) != 64 {
				t.Errorf("%s seed %d: pinned digest %q", w.name, seed, d)
			}
		}
	}
}
