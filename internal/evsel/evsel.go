// Package evsel is the core of the paper's EvSel tool: it measures the
// whole plenitude of available hardware counters over repeated program
// runs (register batching, no event cycling), compares two program
// versions or configurations per event with Welch's t-test, and
// correlates input parameters with every counter through linear,
// quadratic and exponential regressions, reporting confidence values
// (t-test significance and coefficients of determination) for both.
package evsel

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/stats"
)

// DefaultAlpha is the family-wise significance level before Bonferroni
// correction.
const DefaultAlpha = 0.05

// Row is the comparison result for one event — one line of EvSel's
// comparison pane.
type Row struct {
	Event counters.EventID
	Name  string
	// A and B summarise the two sample sets.
	A, B stats.Summary
	// Test is the Welch t-test between the sample sets; zero-valued
	// when either side lacks samples.
	Test stats.TTestResult
	// Zero marks events that never fired in either configuration
	// (EvSel greys these out).
	Zero bool
	// Significant applies the Bonferroni-corrected level.
	Significant bool
	// CoverA and CoverB are the fraction of requested repetitions that
	// actually back each side's samples (1 = complete). Campaigns with
	// gaps or quarantined counters produce partial measurements; the
	// comparison says so per row instead of pretending completeness.
	CoverA, CoverB float64
	// Diags collects the degradations observed in this row's samples:
	// non-finite values dropped before summarizing, a side left with too
	// few usable samples, or a zero-variance certainty verdict. Rendered
	// as a DIAG column alongside COVER.
	Diags stats.Diagnostics
}

// PartialData reports whether either side of the row rests on an
// incomplete sample set.
func (r Row) PartialData() bool { return r.CoverA < 1 || r.CoverB < 1 }

// Degraded reports whether the row carries any diagnostic.
func (r Row) Degraded() bool { return len(r.Diags) > 0 }

// Icon returns the visual cue EvSel shows next to a counter.
func (r Row) Icon() string {
	switch {
	case r.Zero:
		return " " // greyed out
	case r.Significant && r.Test.Relative > 0:
		return "▲"
	case r.Significant && r.Test.Relative < 0:
		return "▼"
	case r.Significant:
		return "≠"
	default:
		return "·"
	}
}

// Comparison is a full two-run comparison across events.
type Comparison struct {
	Rows []Row
	// Alpha is the Bonferroni-corrected per-event significance level.
	Alpha float64
	// Comparisons is the number of simultaneous hypotheses (non-zero
	// events), the m of the Bonferroni correction.
	Comparisons int
	// RunsA and RunsB count program executions consumed per side.
	RunsA, RunsB int
	// OnlyA and OnlyB list events measured on one side only (mismatched
	// event sets); their rows carry zero coverage on the missing side.
	OnlyA, OnlyB []counters.EventID
	// Partial marks a comparison in which at least one row rests on an
	// incomplete sample set.
	Partial bool
}

// Compare performs the per-event Welch t-tests between two
// measurements. The significance level is Bonferroni corrected for the
// number of non-zero events, addressing the multiple comparisons
// problem the paper warns about. Mismatched event sets are compared
// over the union: an event missing on one side gets a row with zero
// coverage there and is listed in OnlyA/OnlyB, so partial or
// differently-configured measurements are annotated rather than
// silently truncated.
func Compare(a, b *perf.Measurement) (*Comparison, error) {
	if a == nil || b == nil {
		return nil, errors.New("evsel: nil measurement")
	}
	events := unionEvents(a, b)
	if len(events) == 0 {
		return nil, errors.New("evsel: measurements have no events")
	}
	// Count testable hypotheses first for the correction, on sanitized
	// samples so injected NaN/Inf cannot sway the correction factor.
	m := 0
	for _, id := range events {
		ca, _ := stats.SanitizeSamples(a.Samples[id])
		cb, _ := stats.SanitizeSamples(b.Samples[id])
		if stats.Mean(ca) != 0 || stats.Mean(cb) != 0 {
			m++
		}
	}
	alpha := stats.BonferroniAlpha(DefaultAlpha, m)
	cmp := &Comparison{Alpha: alpha, Comparisons: m, RunsA: a.Runs, RunsB: b.Runs}
	for _, id := range events {
		sa, inA := a.Samples[id]
		sb, inB := b.Samples[id]
		if !inB {
			cmp.OnlyA = append(cmp.OnlyA, id)
		}
		if !inA {
			cmp.OnlyB = append(cmp.OnlyB, id)
		}
		// Summaries, the zero check and the t-test all work on sanitized
		// samples: non-finite values are dropped with a diagnostic, never
		// propagated into rendered numbers.
		ca, da := stats.SanitizeSamples(sa)
		cb, db := stats.SanitizeSamples(sb)
		row := Row{
			Event:  id,
			Name:   counters.Def(id).Name,
			A:      stats.Summarize(ca),
			B:      stats.Summarize(cb),
			CoverA: coverage(a, id, inA),
			CoverB: coverage(b, id, inB),
		}
		if da+db > 0 {
			row.Diags = append(row.Diags, stats.Diagnostic{Kind: stats.NonFinite,
				Detail: "non-finite samples removed", Dropped: da + db})
			if (len(ca) < 2 && len(sa) >= 2) || (len(cb) < 2 && len(sb) >= 2) {
				row.Diags = append(row.Diags, stats.Diagnostic{Kind: stats.InsufficientData,
					Detail: "too few usable samples left for a t-test"})
			}
		}
		row.Zero = row.A.Mean == 0 && row.B.Mean == 0
		if !row.Zero && len(ca) >= 2 && len(cb) >= 2 {
			// Welch's method handles differing population sizes.
			test, err := stats.WelchTTest(ca, cb)
			if err == nil {
				row.Test = test
				row.Significant = test.Significant(alpha)
				row.Diags = append(row.Diags, test.Diags...)
			}
		}
		if row.PartialData() {
			cmp.Partial = true
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	return cmp, nil
}

// Degraded reports whether any row carries a diagnostic of any kind.
func (c *Comparison) Degraded() bool {
	for _, r := range c.Rows {
		if r.Degraded() {
			return true
		}
	}
	return false
}

// HardDegraded reports whether any row carries a hard (trust-breaking)
// diagnostic — the predicate -strict turns into a nonzero exit.
func (c *Comparison) HardDegraded() bool {
	for _, r := range c.Rows {
		if r.Diags.HasHard() {
			return true
		}
	}
	return false
}

// unionEvents merges both measurements' event sets in ascending order.
func unionEvents(a, b *perf.Measurement) []counters.EventID {
	seen := make(map[counters.EventID]bool, len(a.Samples)+len(b.Samples))
	var out []counters.EventID
	for _, m := range []*perf.Measurement{a, b} {
		for _, id := range m.Events() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// coverage computes the fraction of requested repetitions backing an
// event on one side; an event absent from the measurement covers 0.
func coverage(m *perf.Measurement, id counters.EventID, present bool) float64 {
	if !present {
		return 0
	}
	return m.Coverage(id)
}

// CompareWorkloads measures two bodies on the given engines and
// compares them. Engines may differ (thread count, policy, machine) —
// that difference is exactly what is being measured.
func CompareWorkloads(ea *exec.Engine, bodyA func(*exec.Thread), eb *exec.Engine, bodyB func(*exec.Thread),
	events []counters.EventID, reps int, mode perf.Mode) (*Comparison, error) {
	ma, err := perf.Measure(ea, bodyA, events, reps, mode)
	if err != nil {
		return nil, fmt.Errorf("evsel: measuring A: %w", err)
	}
	mb, err := perf.Measure(eb, bodyB, events, reps, mode)
	if err != nil {
		return nil, fmt.Errorf("evsel: measuring B: %w", err)
	}
	return Compare(ma, mb)
}

// Filter selects rows, the Go equivalent of EvSel's chain of lazily
// evaluated filtering functors.
type Filter func(Row) bool

// NonZero keeps rows where at least one side fired, and every row
// that rests on partial data: an event without samples reads zero, and
// dropping its row would hide the gap.
func NonZero() Filter { return func(r Row) bool { return !r.Zero || r.PartialData() } }

// SignificantOnly keeps rows whose difference passed the corrected
// test.
func SignificantOnly() Filter { return func(r Row) bool { return r.Significant } }

// MinRelativeChange keeps rows with |relative change| ≥ x.
func MinRelativeChange(x float64) Filter {
	return func(r Row) bool { return math.Abs(r.Test.Relative) >= x }
}

// InDomain keeps rows of one counter domain.
func InDomain(d counters.Domain) Filter {
	return func(r Row) bool { return counters.Def(r.Event).Domain == d }
}

// NameContains keeps rows whose event name contains the substring.
func NameContains(sub string) Filter {
	return func(r Row) bool { return strings.Contains(r.Name, sub) }
}

// Where returns a new Comparison containing only rows passing all
// filters. It stays Partial if c is: a filter narrows the view, not the
// data behind it.
func (c *Comparison) Where(filters ...Filter) *Comparison {
	out := &Comparison{Alpha: c.Alpha, Comparisons: c.Comparisons, RunsA: c.RunsA, RunsB: c.RunsB,
		OnlyA: c.OnlyA, OnlyB: c.OnlyB, Partial: c.Partial}
	for _, r := range c.Rows {
		keep := true
		for _, f := range filters {
			if !f(r) {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// SortByImpact orders rows by |relative change|, largest first, with
// infinite changes (0 → x) leading.
func (c *Comparison) SortByImpact() *Comparison {
	sort.SliceStable(c.Rows, func(i, j int) bool {
		ri := math.Abs(c.Rows[i].Test.Relative)
		rj := math.Abs(c.Rows[j].Test.Relative)
		if math.IsInf(ri, 0) != math.IsInf(rj, 0) {
			return math.IsInf(ri, 0)
		}
		return ri > rj
	})
	return c
}

// Row returns the row for an event, if present.
func (c *Comparison) Row(id counters.EventID) (Row, bool) {
	for _, r := range c.Rows {
		if r.Event == id {
			return r, true
		}
	}
	return Row{}, false
}

// Render produces the textual comparison pane: event, means, change,
// confidence, significance icon. Comparisons over partial data grow a
// COVER column saying what fraction of runs backs each row, so a reader
// never mistakes a gap-ridden campaign for a complete one; comparisons
// over degraded data grow a DIAG column of diagnostic codes in the same
// spirit. Both columns are absent on healthy, complete data.
func (c *Comparison) Render() string {
	var sb strings.Builder
	cover := ""
	if c.Partial {
		cover = fmt.Sprintf(" %9s", "COVER")
	}
	diag := ""
	degraded := c.Degraded()
	if degraded {
		diag = fmt.Sprintf(" %12s", "DIAG")
	}
	fmt.Fprintf(&sb, "%-45s %15s %15s %10s %9s%s%s  \n", "EVENT", "MEAN A", "MEAN B", "CHANGE", "CONF", cover, diag)
	for _, r := range c.Rows {
		change := fmt.Sprintf("%+.1f%%", 100*r.Test.Relative)
		if math.IsInf(r.Test.Relative, 0) {
			change = "new"
		}
		if r.Zero {
			change = "-"
		}
		if c.Partial {
			cover = fmt.Sprintf(" %4.0f/%3.0f%%", 100*r.CoverA, 100*r.CoverB)
		}
		if degraded {
			diag = fmt.Sprintf(" %12s", r.Diags.Codes())
		}
		fmt.Fprintf(&sb, "%-45s %15.5g %15.5g %10s %8.2f%%%s%s %s\n",
			r.Name, r.A.Mean, r.B.Mean, change, 100*r.Test.Confidence, cover, diag, r.Icon())
	}
	fmt.Fprintf(&sb, "\n%d runs vs %d runs; %d hypotheses, per-event α = %.2g (Bonferroni)\n",
		c.RunsA, c.RunsB, c.Comparisons, c.Alpha)
	if len(c.OnlyA) > 0 || len(c.OnlyB) > 0 {
		fmt.Fprintf(&sb, "event sets differ: %d events only in A, %d only in B\n",
			len(c.OnlyA), len(c.OnlyB))
	}
	if c.Partial {
		sb.WriteString("partial data: COVER lists the fraction of requested runs backing each side\n")
	}
	if degraded {
		sb.WriteString("degraded data: DIAG marks rows whose samples were sanitized or tests were degenerate\n")
	}
	return sb.String()
}
