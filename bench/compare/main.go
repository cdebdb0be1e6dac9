// Command compare judges a change against its parent from two sets of
// benchmark runs. It prints one row per workload and end-to-end metric
// with a verdict of improved, no worse, worse or unresolved, and, beside
// it, the comparison EvSel itself makes between two sample sets: the
// robust median and MAD of each side and Welch's t-test.
//
// Run it from bench/ on a file bench/record.sh wrote:
//
//	go run ./compare -bench ../BENCHMARK.json -parent runs.json:parent -change runs.json:change
//
// The i-th parent run of a workload is paired with its i-th change run;
// record.sh alternates which side of a pair runs first. The verdicts:
//
//   - improved: at least 10 pairs, the change better in at least 9 of
//     every 10 (ties count for neither), and the medians further apart
//     than the parent's interquartile range.
//   - unresolved: not improved, and either side's interquartile range,
//     relative to its median, is wider than the metric's bound, unless
//     every change run reads better than every parent run.
//   - worse: the change's median is worse than the parent's by more than
//     the bound.
//   - no worse: otherwise.
//
// A workload whose change runs failed any unit is worse: failures have
// an absolute bound of 0. The exit status is 1 when any row is worse or
// unresolved.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"numaperf/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchmark is the part of BENCHMARK.json the comparison needs.
type benchmark struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// runRecord is one benchmark run as record.sh stores it.
type runRecord struct {
	Set      string
	Workload string
	Seed     int64
	Result   struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct{ Value float64 }
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "../BENCHMARK.json", "the benchmark definition")
	parentArg := fs.String("parent", "", "parent runs, as FILE:SET")
	changeArg := fs.String("change", "", "change runs, as FILE:SET")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *parentArg == "" || *changeArg == "" {
		fs.Usage()
		return 2
	}
	var b benchmark
	raw, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(raw, &b)
	}
	parent, perr := loadSet(*parentArg)
	change, cerr := loadSet(*changeArg)
	if err := errors.Join(err, perr, cerr); err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	if compare(stdout, b, parent, change) {
		return 1
	}
	return 0
}

// loadSet reads the runs of one set from FILE:SET.
func loadSet(arg string) ([]runRecord, error) {
	i := strings.LastIndex(arg, ":")
	if i < 0 {
		return nil, fmt.Errorf("%q: want FILE:SET", arg)
	}
	path, set := arg[:i], arg[i+1:]
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct{ Runs []runRecord }
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []runRecord
	for _, r := range file.Runs {
		if r.Set == set {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs in set %q", path, set)
	}
	return out, nil
}

// compare prints the table and reports whether any row is worse or
// unresolved.
func compare(w io.Writer, b benchmark, parent, change []runRecord) (bad bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tverdict\tparent median±MAD\tchange median±MAD\twelch p")
	for _, wl := range b.Workloads {
		ps, cs := ofWorkload(parent, wl.Name), ofWorkload(change, wl.Name)
		for _, m := range b.EndToEnd {
			p, c := values(ps, m.Name), values(cs, m.Name)
			v := judge(p, c, m.Better == "lower", m.Bound)
			bad = bad || v == worse || v == unresolved
			qp, qc := quartiles(p), quartiles(c)
			mp, mc := stats.Median(p), stats.Median(c)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.2f%%\t%d/%d\t%s\t%s\t%s\t%s\n",
				wl.Name, m.Name, min(len(p), len(c)), mp, qp[0], qp[2], mc, qc[0], qc[2],
				100*relative(mp, mc), wins(p, c, m.Better == "lower"), min(len(p), len(c)), v,
				robust(p), robust(c), welch(p, c))
		}
		pf, cf := failures(ps), failures(cs)
		v := noWorse
		if cf > 0 {
			v, bad = worse, true
		}
		fmt.Fprintf(tw, "%s\tfailed units\t%d\t%d\t%d\t\t\t%s\t\t\t\n", wl.Name, min(len(ps), len(cs)), pf, cf, v)
	}
	tw.Flush()
	return bad
}

func ofWorkload(runs []runRecord, name string) []runRecord {
	var out []runRecord
	for _, r := range runs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(runs []runRecord) int {
	n := 0
	for _, r := range runs {
		n += r.Result.Failed
		if !r.Result.Correct && r.Result.Failed == 0 {
			n++ // an incorrect run with no failed unit (a digest mismatch)
		}
	}
	return n
}

// Verdicts.
const (
	improved   = "improved"
	noWorse    = "no worse"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge applies the rule in the package comment to one metric on one
// workload; parent[i] and change[i] form pair i.
func judge(parent, change []float64, lowerBetter bool, bound float64) string {
	n := min(len(parent), len(change))
	if n == 0 {
		return unresolved
	}
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	mp, mc := stats.Median(parent), stats.Median(change)
	qp, qc := quartiles(parent), quartiles(change)
	if n >= 10 && 10*wins(parent, change, lowerBetter) >= 9*n && math.Abs(mc-mp) > qp[2]-qp[0] && better(mc, mp) {
		return improved
	}
	pmin, pmax := stats.MinMax(parent)
	cmin, cmax := stats.MinMax(change)
	allBetter := (lowerBetter && cmax < pmin) || (!lowerBetter && cmin > pmax)
	// A zero median makes the spread NaN or infinite: unresolved.
	spread := max((qp[2]-qp[0])/math.Abs(mp), (qc[2]-qc[0])/math.Abs(mc))
	if !(spread <= bound) && !allBetter {
		return unresolved
	}
	worsening := relative(mp, mc)
	if !lowerBetter {
		worsening = -worsening
	}
	if worsening > bound {
		return worse
	}
	return noWorse
}

// relative is (b − a) / |a|; with a = 0 it is b itself.
func relative(a, b float64) float64 {
	if a == 0 {
		return b
	}
	return (b - a) / math.Abs(a)
}

// wins counts the pairs in which the change reads better.
func wins(parent, change []float64, lowerBetter bool) int {
	n := 0
	for i := 0; i < min(len(parent), len(change)); i++ {
		if (lowerBetter && change[i] < parent[i]) || (!lowerBetter && change[i] > parent[i]) {
			n++
		}
	}
	return n
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method),
// which is how the benchmark's spread is judged.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	switch n := len(s); n {
	case 0:
	case 1:
		q = [3]float64{s[0], s[0], s[0]}
	default:
		m := n + 1
		for i := 1; i <= 3; i++ {
			j := min(max(i*m/4, 1), n-1)
			delta := float64(i*m - j*4)
			q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
		}
	}
	return q
}

func robust(xs []float64) string {
	r, err := stats.Robust(xs)
	if err != nil {
		return "-"
	}
	return fmt.Sprintf("%.4g±%.2g", r.Median, r.MAD)
}

func welch(parent, change []float64) string {
	t, err := stats.WelchTTest(parent, change)
	if err != nil {
		return "-"
	}
	return fmt.Sprintf("%.3g", t.P)
}
