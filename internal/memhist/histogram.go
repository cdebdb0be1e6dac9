// Package memhist is the core of the paper's Memhist tool: it builds
// latency-cost histograms of memory load operations from the PEBS-style
// load-latency facility. Because only one load-latency event can be
// measured at a time and the event only reports loads above a
// threshold, Memhist time-cycles through thresholds (100 Hz) and
// subtracts neighbouring measurements to obtain per-interval counts —
// with the negative-count artefacts the paper describes. Histograms
// can show event occurrences or event costs (occurrences × latency),
// and a headless probe can stream them over TCP to a front end.
package memhist

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
)

// UncertainBelow marks latency bins Intel does not guarantee:
// "measurements of under three cycles" cannot be trusted, so L1 hits
// and register accesses are indistinguishable.
const UncertainBelow = 4

// DefaultBounds spans L1 to deep remote-NUMA latencies.
var DefaultBounds = []uint64{4, 8, 16, 32, 64, 96, 128, 192, 256, 320, 384, 448, 512, 640, 768, 1024}

// Mode selects what the histogram aggregates.
type Mode int

const (
	// Occurrences counts events per latency interval (Fig. 10a).
	Occurrences Mode = iota
	// Costs weights each interval by its representative latency,
	// showing where cycles are spent (Fig. 10b).
	Costs
)

// String names the mode.
func (m Mode) String() string {
	if m == Costs {
		return "costs"
	}
	return "occurrences"
}

// Histogram is a latency histogram over half-open intervals
// [Bounds[i], Bounds[i+1]); the final interval is unbounded above.
type Histogram struct {
	// Bounds are the interval edges in cycles, ascending.
	Bounds []uint64
	// Counts per interval; negative values are the measurement
	// artefact of subtracting time-cycled threshold estimates.
	Counts []float64
	// Uncertain marks intervals below the trustworthy-latency floor.
	Uncertain []bool
	// Exact records whether the histogram came from full-information
	// sampling (ground truth) instead of threshold cycling.
	Exact bool
	// Source labels the measured workload.
	Source string
	// Origin records where the measurement ran: OriginLocal,
	// OriginProbe, or OriginLocalFallback when the remote probe was
	// unreachable and the client degraded to a local measurement.
	Origin string `json:",omitempty"`
	// Quality is the sampling-fidelity report of the measurement:
	// records dropped, throttled cycles, per-threshold coverage. Nil on
	// histograms from clients or probes that predate the report — both
	// directions of the probe protocol tolerate its absence.
	Quality *perf.SampleQuality `json:",omitempty"`
	// Confidence annotates each interval with the sampling coverage of
	// the two threshold estimates its count was subtracted from, in
	// [0, 1]; nil when the measurement carried no quality report.
	Confidence []float64 `json:",omitempty"`
}

// LowConfidence is the per-bin confidence below which Render flags an
// interval: at least one of the two thresholds the bin was subtracted
// from kept less than half its fair dwell, so the scaled estimate
// rests on a sliver of observation.
const LowConfidence = 0.5

// Origin values for Histogram.Origin.
const (
	// OriginLocal marks an in-process measurement.
	OriginLocal = "local"
	// OriginProbe marks data fetched from a remote probe.
	OriginProbe = "probe"
	// OriginLocalFallback marks graceful degradation: the probe stayed
	// unreachable, so the client measured locally instead.
	OriginLocalFallback = "local-fallback"
)

// Intervals returns the number of intervals (len(Bounds)).
func (h *Histogram) Intervals() int { return len(h.Bounds) }

// Interval returns the [lo, hi) bounds of interval i; the last interval
// has hi = 0 meaning unbounded.
func (h *Histogram) Interval(i int) (lo, hi uint64) {
	lo = h.Bounds[i]
	if i+1 < len(h.Bounds) {
		hi = h.Bounds[i+1]
	}
	return lo, hi
}

// representative returns the latency that stands for interval i in
// cost weighting (the midpoint, or the lower edge for the open tail).
func (h *Histogram) representative(i int) float64 {
	lo, hi := h.Interval(i)
	if hi == 0 {
		return float64(lo)
	}
	return float64(lo+hi) / 2
}

// Cost returns the cost-weighted value of interval i. Negative counts
// are subtraction artefacts of threshold cycling, not real load
// populations; weighting them by the interval latency would fabricate
// large negative cycle totals, so cost mode clamps them to zero. The
// artefact stays visible through Counts, NegativeArtifacts and the
// Render annotation.
func (h *Histogram) Cost(i int) float64 {
	if h.Counts[i] < 0 {
		return 0
	}
	return h.Counts[i] * h.representative(i)
}

// Value returns interval i under the given mode.
func (h *Histogram) Value(i int, mode Mode) float64 {
	if mode == Costs {
		return h.Cost(i)
	}
	return h.Counts[i]
}

// NegativeArtifacts counts intervals with negative estimates, the
// unavoidable error of varying bound measurements.
func (h *Histogram) NegativeArtifacts() int {
	n := 0
	for _, c := range h.Counts {
		if c < 0 {
			n++
		}
	}
	return n
}

// Total returns the summed (non-negative) occurrence estimate.
func (h *Histogram) Total() float64 {
	t := 0.0
	for _, c := range h.Counts {
		if c > 0 {
			t += c
		}
	}
	return t
}

// ClampedMass quantifies how much estimate cost mode clamps away:
// the absolute negative mass, and its share of the histogram's total
// absolute mass. A large share means subtraction artefacts dominate
// the measurement; -strict can gate on it via -max-clamped-share.
func (h *Histogram) ClampedMass() (abs, share float64) {
	var total float64
	for _, c := range h.Counts {
		if c < 0 {
			abs += -c
		}
		total += math.Abs(c)
	}
	if total > 0 {
		share = abs / total
	}
	return abs, share
}

// BinConfidence returns the confidence of interval i, or 1 when the
// histogram carries no per-bin annotations (exact histograms, data
// from pre-fidelity probes).
func (h *Histogram) BinConfidence(i int) float64 {
	if h.Confidence == nil || i < 0 || i >= len(h.Confidence) {
		return 1
	}
	return h.Confidence[i]
}

// Coverage returns the measurement's minimum threshold coverage, or 1
// when no quality report is attached.
func (h *Histogram) Coverage() float64 {
	if h.Quality == nil {
		return 1
	}
	return h.Quality.Coverage()
}

// Options configures Collect.
type Options struct {
	// Bounds are the latency thresholds; DefaultBounds when nil.
	Bounds []uint64
	// SliceCycles is the threshold-cycling quantum; defaults to the
	// machine's 100 Hz slice (FreqHz/100), the paper's rate.
	SliceCycles uint64
	// Reps averages this many cycled runs; default 1.
	Reps int
	// Adaptive enables mid-run dwell repair: thresholds starved below
	// DefaultCoverageFloor of their fair dwell receive bounded repair
	// slices. With no faults the schedule is identical to the fixed
	// cycler.
	Adaptive bool
	// MaxRepairSlices bounds repair slices per threshold; default
	// DefaultMaxRepairSlices.
	MaxRepairSlices int
	// Sampler models the lossy PEBS facility (bounded buffer,
	// interrupt throttling, scripted faults); zero value is lossless.
	Sampler perf.SamplerOptions
}

// Collect measures the latency histogram by threshold cycling — the
// production path of Memhist. The estimates for neighbouring
// thresholds are subtracted to obtain per-interval counts; the
// histogram carries the merged SampleQuality report and per-bin
// confidence annotations derived from threshold coverage.
func Collect(e *exec.Engine, body func(*exec.Thread), opts Options) (*Histogram, error) {
	bounds := opts.Bounds
	if bounds == nil {
		bounds = DefaultBounds
	}
	if err := ValidateBounds(bounds); err != nil {
		return nil, err
	}
	slice := opts.SliceCycles
	if slice == 0 {
		slice = e.Config().Machine.FreqHz / 100 // 10 ms at machine speed
	}
	reps := opts.Reps
	if reps <= 0 {
		reps = 1
	}
	sum := make([]float64, len(bounds))
	var quality *perf.SampleQuality
	for r := 0; r < reps; r++ {
		copts := perf.CycleOptions{Sampler: opts.Sampler}
		if opts.Adaptive {
			// A fresh cycler per rep: every rep replays the same
			// deterministic schedule instead of inheriting repair debt.
			copts.Scheduler = newAdaptiveCycler(opts.MaxRepairSlices)
		}
		tc, err := perf.CycleThresholds(e, body, bounds, slice, copts)
		if err != nil {
			return nil, err
		}
		for i, v := range tc.Estimated {
			sum[i] += v
		}
		if quality == nil {
			quality = tc.Quality
		} else if err := quality.Merge(tc.Quality); err != nil {
			return nil, err
		}
	}
	h := newHistogram(bounds)
	for i := range bounds {
		atOrAbove := sum[i] / float64(reps)
		var next float64
		if i+1 < len(bounds) {
			next = sum[i+1] / float64(reps)
		}
		h.Counts[i] = atOrAbove - next
	}
	h.Quality = quality
	h.Confidence = binConfidence(quality, len(bounds))
	return h, nil
}

// binConfidence derives per-interval confidence from per-threshold
// coverage: Counts[i] is the difference of the estimates at thresholds
// i and i+1, so it is only as trustworthy as the weaker of the two.
func binConfidence(q *perf.SampleQuality, n int) []float64 {
	if q == nil || len(q.Thresholds) != n {
		return nil
	}
	conf := make([]float64, n)
	for i := 0; i < n; i++ {
		c := q.ThresholdCoverage(i)
		if i+1 < n {
			if c2 := q.ThresholdCoverage(i + 1); c2 < c {
				c = c2
			}
		}
		conf[i] = c
	}
	return conf
}

// Exact builds the ground-truth histogram from full-information load
// sampling; Memhist's cycled histograms are validated against it (the
// paper validates against the Intel Memory Latency Checker instead).
func Exact(e *exec.Engine, body func(*exec.Thread), bounds []uint64, period uint64) (*Histogram, error) {
	if bounds == nil {
		bounds = DefaultBounds
	}
	if err := ValidateBounds(bounds); err != nil {
		return nil, err
	}
	recs, quality, _, err := perf.CaptureLatenciesQ(e, body, period, perf.SamplerOptions{})
	if err != nil {
		return nil, err
	}
	h := newHistogram(bounds)
	h.Exact = true
	for _, r := range recs {
		if r.Latency < bounds[0] {
			continue
		}
		// Find the containing interval (bounds are short; linear scan).
		idx := len(bounds) - 1
		for i := 0; i+1 < len(bounds); i++ {
			if r.Latency < bounds[i+1] {
				idx = i
				break
			}
		}
		h.Counts[idx] += float64(period)
	}
	h.Quality = quality
	return h, nil
}

// clone returns a deep copy of h that shares no slice or quality
// report with it.
func (h *Histogram) clone() *Histogram {
	c := *h
	c.Bounds = slices.Clone(h.Bounds)
	c.Counts = slices.Clone(h.Counts)
	c.Uncertain = slices.Clone(h.Uncertain)
	c.Confidence = slices.Clone(h.Confidence)
	if h.Quality != nil {
		q := *h.Quality
		q.Thresholds = slices.Clone(h.Quality.Thresholds)
		c.Quality = &q
	}
	return &c
}

func newHistogram(bounds []uint64) *Histogram {
	h := &Histogram{
		Bounds:    append([]uint64(nil), bounds...),
		Counts:    make([]float64, len(bounds)),
		Uncertain: make([]bool, len(bounds)),
	}
	for i, b := range bounds {
		h.Uncertain[i] = b < UncertainBelow
	}
	return h
}

// Peak is an annotated local maximum of the histogram.
type Peak struct {
	Index int
	Lo    uint64
	Hi    uint64
	Count float64
	// Label names the likely memory-subsystem source (L1/L2/L3, local
	// or remote memory), derived from the machine's latencies.
	Label string
}

// Annotate finds local maxima and labels them with the machine level
// whose latency falls into (or nearest to) the peak interval — the
// annotations shown in Fig. 10 ("L2", "L3", "local memory", "remote
// memory").
func (h *Histogram) Annotate(m *topology.Machine) []Peak {
	type level struct {
		name string
		lat  uint64
	}
	var levels []level
	for _, c := range m.Caches {
		levels = append(levels, level{fmt.Sprintf("L%d", c.Level), c.LatencyCycles})
	}
	levels = append(levels, level{"local memory", m.LLC().LatencyCycles + m.MemLatency})
	if m.Sockets > 1 {
		levels = append(levels, level{"remote memory", m.LLC().LatencyCycles + m.MemLatencyCycles(0, 1)})
	}
	var peaks []Peak
	for i := range h.Counts {
		c := h.Counts[i]
		if c <= 0 {
			continue
		}
		left := math.Inf(-1)
		if i > 0 {
			left = h.Counts[i-1]
		}
		right := math.Inf(-1)
		if i+1 < len(h.Counts) {
			right = h.Counts[i+1]
		}
		if c < left || c <= right {
			continue
		}
		lo, hi := h.Interval(i)
		p := Peak{Index: i, Lo: lo, Hi: hi, Count: c}
		// Label with the nearest level latency.
		best := uint64(math.MaxUint64)
		rep := uint64(h.representative(i))
		for _, lv := range levels {
			d := diff(lv.lat, rep)
			// Prefer a level whose latency lies inside the interval.
			if lv.lat >= lo && (hi == 0 || lv.lat < hi) {
				d = 0
			}
			if d < best {
				best = d
				p.Label = lv.name
			}
		}
		peaks = append(peaks, p)
	}
	return peaks
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Render draws the histogram as text: one bar per interval, grey "?"
// for uncertain bins, cost or occurrence mode, and truncation of
// dominating bars for readability ("L2 results truncated to
// approximately half their height").
func (h *Histogram) Render(mode Mode, width int) string {
	if width <= 0 {
		width = 60
	}
	// Find the scale; truncate the single largest bar to half if it
	// dwarfs everything else, as the paper's figures do.
	max, second := 0.0, 0.0
	for i := range h.Counts {
		v := math.Abs(h.Value(i, mode))
		if v > max {
			max, second = v, max
		} else if v > second {
			second = v
		}
	}
	truncated := false
	scaleMax := max
	if second > 0 && max > 4*second {
		scaleMax = max / 2
		truncated = true
	}
	if scaleMax == 0 {
		scaleMax = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "latency histogram (%s) — %s\n", mode, h.Source)
	for i := range h.Counts {
		lo, hi := h.Interval(i)
		rangeLabel := fmt.Sprintf("%4d-%4d", lo, hi)
		if hi == 0 {
			rangeLabel = fmt.Sprintf("%4d+    ", lo)
		}
		v := h.Value(i, mode)
		bar := int(math.Abs(v) / scaleMax * float64(width))
		if bar > width {
			bar = width // truncated bar
		}
		marker := ""
		if h.Uncertain[i] {
			marker = " (uncertain sampling)"
		}
		if c := h.BinConfidence(i); h.Confidence != nil && c < LowConfidence {
			marker += fmt.Sprintf(" (LOW CONFIDENCE %.2f)", c)
		}
		// Key the annotation on the raw count, not the displayed value:
		// cost mode clamps negative artefacts to zero but must still
		// disclose them.
		if h.Counts[i] < 0 {
			marker += " (negative estimate)"
			if mode == Costs {
				marker += " (clamped)"
			}
		}
		fmt.Fprintf(&sb, "%s |%s %.4g%s\n", rangeLabel, strings.Repeat("█", bar), v, marker)
	}
	if truncated {
		sb.WriteString("(largest bar truncated to approximately half its height)\n")
	}
	if h.Quality != nil {
		fmt.Fprintf(&sb, "sampling coverage %.0f%% (min threshold dwell), %d/%d records kept\n",
			100*h.Coverage(), h.Quality.RecordsKept, h.Quality.RecordsSeen)
	}
	if mode == Costs && h.NegativeArtifacts() > 0 {
		abs, share := h.ClampedMass()
		fmt.Fprintf(&sb, "(clamped negative mass: %.4g, %.1f%% of total absolute mass)\n", abs, 100*share)
	}
	return sb.String()
}
