package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// returns.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// series returns n values alternating around mid by ±spread/2.
func series(n int, mid, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mid + spread/2
		if i%2 == 1 {
			out[i] = mid - spread/2
		}
	}
	return out
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		want           string
	}{
		{"same code", series(10, 100, 2), series(10, 100, 2), true, noWorse},
		{"faster in every pair", series(10, 100, 2), series(10, 80, 2), true, improved},
		{"faster but too few pairs", series(5, 100, 2), series(5, 80, 2), true, noWorse},
		{"slower beyond the bound", series(10, 100, 2), series(10, 120, 2), true, worse},
		{"slower within the bound", series(10, 100, 2), series(10, 105, 2), true, noWorse},
		{"throughput dropped", series(10, 100, 2), series(10, 80, 2), false, worse},
		{"spread wider than the bound", series(10, 100, 40), series(10, 100, 40), true, unresolved},
		{"noisy, but every change run better", series(10, 100, 30), series(10, 50, 20), true, improved},
		{"noisy, few pairs, every change run better", series(4, 100, 30), series(4, 50, 20), true, noWorse},
		// Wins 8 of 10 pairs: not a gain, and no worse.
		{"wins too few pairs", []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
			[]float64{9, 9, 9, 9, 9, 9, 9, 9, 10, 11}, true, noWorse},
		{"no runs", nil, nil, true, unresolved},
	} {
		if got := judge(c.parent, c.change, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, bench, map[string]any{
		"workloads":  []any{map[string]any{"name": "w"}},
		"end_to_end": []any{map[string]any{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}},
	})
	rec := func(set string, wall float64, failed int) map[string]any {
		return map[string]any{"set": set, "workload": "w", "seed": 1, "result": map[string]any{
			"correct": failed == 0, "attempted": 1, "failed": failed,
			"metrics": map[string]any{"wall_s": map[string]any{"value": wall, "unit": "s"}}}}
	}
	runs := filepath.Join(dir, "runs.json")
	writeJSON(t, runs, map[string]any{"runs": []any{
		rec("a", 1.0, 0), rec("b", 1.01, 0), rec("b", 0.99, 0), rec("a", 1.0, 0), rec("c", 1.0, 1),
	}})
	var out strings.Builder
	if code := run([]string{"-bench", bench, "-parent", runs + ":a", "-change", runs + ":b"}, &out, io.Discard); code != 0 {
		t.Errorf("same code: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), noWorse) {
		t.Errorf("no verdict in\n%s", out.String())
	}
	if code := run([]string{"-bench", bench, "-parent", runs + ":a", "-change", runs + ":c"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("failed change run: exit %d, want 1", code)
	}
	if code := run([]string{"-bench", bench, "-parent", runs + ":a", "-change", runs + ":nope"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("missing set: exit %d, want 1", code)
	}
	if code := run([]string{"-bench", bench, "-parent", runs + ":a"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("no change set: exit %d, want 2", code)
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
