// Package phase is the core of the paper's Phasenprüfer tool: it
// splits a program run into execution phases using the process memory
// footprint (the procfs signal) and segmented linear regression — every
// data point is considered as a pivot, linear least squares is fitted
// on both sides, and the pivot with the least combined squared error
// wins (Fig. 7). Performance counter recordings are then attributed to
// the detected phases. Beyond the paper's two-phase implementation,
// DetectPhases generalises to k phases with dynamic programming, the
// extension the paper names for BSP-like supersteps.
package phase

import (
	"errors"
	"fmt"
	"math"

	"numaperf/internal/oslite"
	"numaperf/internal/stats"
)

// ErrTooFewSamples is returned when the series cannot support the
// requested segmentation.
var ErrTooFewSamples = errors.New("phase: too few samples")

// ErrNoTransition is returned when the footprint offers no
// statistically justified phase transition — a flat or uniformly
// linear series fits a single line essentially as well as any
// segmentation, and reporting the SSE-minimising pivot anyway would
// present an arbitrary split of noise as a program phase.
var ErrNoTransition = errors.New("phase: no phase transition detected")

// MinSegment is the minimum number of samples per segment so each
// per-segment regression is determined (a line needs two points).
// Detectors reject requests that cannot honour it.
const MinSegment = 2

// minSegment is kept as the internal spelling.
const minSegment = MinSegment

// TransitionAlpha is the significance level of the transition F-test
// in TransitionCheck. It is deliberately conservative: the pivot is
// chosen by minimising SSE over all positions, which inflates the F
// statistic under the null, so an ordinary 0.05 would see phases in
// pure noise.
const TransitionAlpha = 1e-3

// transitionGain is the minimum relative SSE reduction a segmentation
// must achieve on top of statistical significance. The sup-F
// selection effect can push the nominal p-value below TransitionAlpha
// on long noise series; requiring the segmented fit to at least halve
// the single-line error keeps such splits out.
const transitionGain = 0.5

// Segment is one detected phase with its fitted footprint line.
type Segment struct {
	// Start and End delimit the sample index range [Start, End).
	Start, End int
	// StartCycle and EndCycle are the corresponding time bounds.
	StartCycle, EndCycle uint64
	// Slope and Intercept describe the fitted line footprint ≈
	// Slope·cycle + Intercept (bytes).
	Slope, Intercept float64
	// SSE is the sum of squared residuals of the fit.
	SSE float64
}

// Samples returns the number of samples in the segment.
func (s Segment) Samples() int { return s.End - s.Start }

// Split is a complete segmentation of a run.
type Split struct {
	Segments []Segment
	// TotalSSE is the combined squared error of all segment fits.
	TotalSSE float64
}

// Boundaries returns the cycle positions separating consecutive
// segments (len(Segments)−1 entries).
func (sp *Split) Boundaries() []uint64 {
	var out []uint64
	for i := 0; i+1 < len(sp.Segments); i++ {
		out = append(out, sp.Segments[i].EndCycle)
	}
	return out
}

// prefixSums enables O(1) least-squares fits over any sample range.
type prefixSums struct {
	x, y, xx, xy, yy []float64
	xs, ys           []float64
}

func newPrefixSums(samples []oslite.FootprintSample) *prefixSums {
	n := len(samples)
	p := &prefixSums{
		x:  make([]float64, n+1),
		y:  make([]float64, n+1),
		xx: make([]float64, n+1),
		xy: make([]float64, n+1),
		yy: make([]float64, n+1),
		xs: make([]float64, n),
		ys: make([]float64, n),
	}
	for i, s := range samples {
		x := float64(s.Cycle)
		y := float64(s.Bytes)
		p.xs[i], p.ys[i] = x, y
		p.x[i+1] = p.x[i] + x
		p.y[i+1] = p.y[i] + y
		p.xx[i+1] = p.xx[i] + x*x
		p.xy[i+1] = p.xy[i] + x*y
		p.yy[i+1] = p.yy[i] + y*y
	}
	return p
}

// fit returns slope, intercept and SSE of the least-squares line over
// sample indices [i, j).
func (p *prefixSums) fit(i, j int) (slope, intercept, sse float64) {
	n := float64(j - i)
	sx := p.x[j] - p.x[i]
	sy := p.y[j] - p.y[i]
	sxx := p.xx[j] - p.xx[i]
	sxy := p.xy[j] - p.xy[i]
	syy := p.yy[j] - p.yy[i]
	cxx := sxx - sx*sx/n
	cxy := sxy - sx*sy/n
	cyy := syy - sy*sy/n
	if cxx <= 0 {
		// Degenerate x range: horizontal line through the mean.
		return 0, sy / n, cyy
	}
	slope = cxy / cxx
	intercept = (sy - slope*sx) / n
	sse = cyy - slope*cxy
	if sse < 0 {
		sse = 0 // numerical noise
	}
	return slope, intercept, sse
}

func (p *prefixSums) segment(i, j int) Segment {
	slope, intercept, sse := p.fit(i, j)
	return Segment{
		Start:      i,
		End:        j,
		StartCycle: uint64(p.xs[i]),
		EndCycle:   uint64(p.xs[j-1]),
		Slope:      slope,
		Intercept:  intercept,
		SSE:        sse,
	}
}

// TransitionCheck tests whether a multi-segment split explains the
// samples significantly better than a single line. It returns nil when
// the segmentation is justified and an error wrapping ErrNoTransition
// when it is not — constant footprints, uniformly linear growth and
// monotone noise all land in the second bucket. Single-segment splits
// are trivially justified.
//
// The test is a Chow-style F-test: each extra segment spends three
// parameters (slope, intercept, boundary), and the SSE reduction they
// buy is compared against the residual variance of the segmented fit.
// Because the boundaries were themselves chosen to minimise SSE, the
// statistic is inflated under the null; TransitionAlpha and
// transitionGain compensate.
func TransitionCheck(samples []oslite.FootprintSample, sp *Split) error {
	if sp == nil || len(sp.Segments) < 2 {
		return nil
	}
	n := len(samples)
	k := len(sp.Segments)
	p := newPrefixSums(samples)
	_, _, sse1 := p.fit(0, n)
	// Total variation around the mean: a constant series has nothing
	// for any fit to explain.
	sy := p.y[n]
	cyy := p.yy[n] - sy*sy/float64(n)
	if cyy <= 0 {
		return fmt.Errorf("%w: constant footprint", ErrNoTransition)
	}
	if sse1 <= 1e-9*cyy {
		return fmt.Errorf("%w: a single line already explains the footprint (SSE %.4g)",
			ErrNoTransition, sse1)
	}
	ssek := sp.TotalSSE
	if ssek <= 0 {
		// The segmented fit is exact while a single line is not: the
		// transition is certain.
		return nil
	}
	df1 := float64(3 * (k - 1))
	df2 := float64(n - (3*k - 1))
	if df2 < 1 {
		return fmt.Errorf("%w: %d samples cannot justify %d segments", ErrNoTransition, n, k)
	}
	if ssek > transitionGain*sse1 {
		return fmt.Errorf("%w: segmentation reduces SSE only %.1f%% (%.4g → %.4g)",
			ErrNoTransition, 100*(1-ssek/sse1), sse1, ssek)
	}
	f := ((sse1 - ssek) / df1) / (ssek / df2)
	if pv := 1 - stats.FCDF(f, df1, df2); pv > TransitionAlpha {
		return fmt.Errorf("%w: F=%.3g p=%.3g over %d samples", ErrNoTransition, f, pv, n)
	}
	return nil
}

// DetectTwoPhases implements the paper's exhaustive pivot search, which
// is DetectPhases at k = 2: all pivots are tried, the one minimising the
// summed error of both linear fits determines the phase transition. When
// no pivot is statistically justified — the footprint is flat,
// uniformly linear or monotone noise — it returns an error wrapping
// ErrNoTransition rather than an arbitrary split.
func DetectTwoPhases(samples []oslite.FootprintSample) (*Split, error) {
	sp, err := DetectPhases(samples, 2)
	if err != nil {
		return nil, err
	}
	if err := TransitionCheck(samples, sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// DetectPhases segments the series into exactly k phases by dynamic
// programming over segment boundaries, minimising the total SSE of the
// per-segment linear fits. At k = 2 this is the paper's pivot search:
// every pivot is tried and the first of equal minima kept. It applies
// no transition test — DetectTwoPhases adds it, and Analyze runs
// TransitionCheck on the result itself; larger k recognises BSP-like
// supersteps.
func DetectPhases(samples []oslite.FootprintSample, k int) (*Split, error) {
	n := len(samples)
	if k < 1 {
		return nil, errors.New("phase: k must be ≥ 1")
	}
	if n < k*minSegment {
		return nil, fmt.Errorf("%w: %d samples for %d phases", ErrTooFewSamples, n, k)
	}
	p := newPrefixSums(samples)
	const inf = 1e308
	// dp[s][j]: minimal SSE of splitting samples[0:j] into s segments.
	dp := make([][]float64, k+1)
	cut := make([][]int, k+1)
	for s := range dp {
		dp[s] = make([]float64, n+1)
		cut[s] = make([]int, n+1)
		for j := range dp[s] {
			dp[s][j] = inf
		}
	}
	dp[0][0] = 0
	for s := 1; s <= k; s++ {
		for j := s * minSegment; j <= n; j++ {
			// The last segment is [i, j); earlier segments cover [0, i).
			for i := (s - 1) * minSegment; i+minSegment <= j; i++ {
				if dp[s-1][i] >= inf {
					continue
				}
				_, _, sse := p.fit(i, j)
				if total := dp[s-1][i] + sse; total < dp[s][j] {
					dp[s][j] = total
					cut[s][j] = i
				}
			}
		}
	}
	if dp[k][n] >= inf {
		return nil, fmt.Errorf("%w: no feasible %d-segmentation", ErrTooFewSamples, k)
	}
	// Reconstruct.
	bounds := make([]int, k+1)
	bounds[k] = n
	for s := k; s >= 1; s-- {
		bounds[s-1] = cut[s][bounds[s]]
	}
	sp := &Split{}
	for s := 0; s < k; s++ {
		seg := p.segment(bounds[s], bounds[s+1])
		sp.Segments = append(sp.Segments, seg)
		sp.TotalSSE += seg.SSE
	}
	return sp, nil
}

// SampleHistory converts a footprint event history into a uniformly
// sampled series up to endCycle — the view a procfs poller provides.
func SampleHistory(history []oslite.FootprintSample, endCycle, interval uint64) []oslite.FootprintSample {
	if interval == 0 {
		interval = 1
	}
	var out []oslite.FootprintSample
	var cur uint64
	i := 0
	for c := uint64(0); ; c += interval {
		for i < len(history) && history[i].Cycle <= c {
			cur = history[i].Bytes
			i++
		}
		out = append(out, oslite.FootprintSample{Cycle: c, Bytes: cur})
		if c >= endCycle {
			break
		}
	}
	return out
}

// DetectAutoPhases chooses the phase count automatically by minimising
// the Bayesian information criterion over k = 1..maxK: each extra
// phase must buy enough SSE reduction to justify its three parameters
// (slope, intercept, boundary). This automates the paper's outlook of
// recognising BSP supersteps without being told how many there are.
func DetectAutoPhases(samples []oslite.FootprintSample, maxK int) (*Split, error) {
	if maxK < 1 {
		return nil, errors.New("phase: maxK must be ≥ 1")
	}
	n := len(samples)
	if n < 2*minSegment {
		return nil, fmt.Errorf("%w: %d samples", ErrTooFewSamples, n)
	}
	var best *Split
	bestBIC := 0.0
	for k := 1; k <= maxK && n >= k*minSegment; k++ {
		sp, err := DetectPhases(samples, k)
		if err != nil {
			break
		}
		sse := sp.TotalSSE
		// Guard against log(0) on perfectly fitted synthetic data.
		if sse < 1e-9 {
			sse = 1e-9
		}
		params := float64(3*k - 1)
		bic := float64(n)*math.Log(sse/float64(n)) + params*math.Log(float64(n))
		if best == nil || bic < bestBIC {
			best, bestBIC = sp, bic
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no feasible segmentation", ErrTooFewSamples)
	}
	return best, nil
}
