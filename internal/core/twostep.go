// Package core implements the paper's primary contribution: the
// two-step performance assessment strategy of Section III. Instead of
// a monolithic code-to-cost model, performance deduction is split into
//
//  1. a code-to-indicator analysis — hardware counters are measured for
//     small workloads and extrapolated over an input parameter with the
//     regression machinery ("programmers would start by measuring small
//     yet typical workloads ... and extrapolate performance
//     indicators"), and
//  2. an indicator-to-cost analysis — a simple linear model from the
//     selected counters to cycles, trained by least squares.
//
// Indicator selection follows the paper's guidance: counters that do
// not change ("candidates for removal") are dropped, the count is
// capped to limit the multiple-comparisons risk, and redundant
// (collinear) indicators are pruned. Because the indicator models
// belong to the program and the cost model belongs to the machine,
// Transfer re-learns only the cost side on a new machine, which is the
// strategy's portability claim.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/linalg"
	"numaperf/internal/stats"
)

// TrainingPoint is one observed program run: the workload parameter,
// the counter vector and the measured cost in cycles.
type TrainingPoint struct {
	Param  float64
	Counts counters.Counts
	Cycles float64
}

// CollectTraining runs the workload at each parameter value reps times
// and records one training point per run. mk builds the engine and
// body for a parameter value.
func CollectTraining(params []float64, reps int,
	mk func(param float64) (*exec.Engine, func(*exec.Thread), error)) ([]TrainingPoint, error) {
	return CollectTrainingParallel(params, reps, 1, mk)
}

// CollectTrainingParallel is CollectTraining with up to workers
// parameter values measured concurrently, on the campaign's worker pool
// with each parameter its own group. Each parameter runs on its own
// engine built by mk and the points are taken in parameter order, so
// the training points — and the first error in parameter order — are
// identical at any worker count; only wall-clock time changes. A panic
// while measuring a parameter is that parameter's error. mk must be
// safe to call from multiple goroutines (building a fresh engine per
// call, as the twostep collectors do, satisfies this).
func CollectTrainingParallel(params []float64, reps, workers int,
	mk func(param float64) (*exec.Engine, func(*exec.Thread), error)) ([]TrainingPoint, error) {
	if len(params) == 0 || reps <= 0 {
		return nil, errors.New("core: empty training request")
	}
	groups := make([]int, len(params))
	for i := range groups {
		groups[i] = i
	}
	pool := campaign.NewPool(groups, workers, func(i int) ([]TrainingPoint, error) {
		return collectParam(params[i], reps, mk)
	})
	defer pool.Stop()
	var out []TrainingPoint
	for range params {
		pts, err := pool.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// collectParam measures one parameter value: a fresh engine, reps runs,
// of which the first is simulated and the rest re-draw its noise
// (exec.Engine.Repeat).
func collectParam(p float64, reps int,
	mk func(param float64) (*exec.Engine, func(*exec.Thread), error)) ([]TrainingPoint, error) {
	e, body, err := mk(p)
	if err != nil {
		return nil, fmt.Errorf("core: engine for param %g: %w", p, err)
	}
	res, err := e.Run(body)
	if err != nil {
		return nil, fmt.Errorf("core: run at param %g: %w", p, err)
	}
	out := make([]TrainingPoint, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			res = e.Repeat(res)
		}
		out = append(out, TrainingPoint{
			Param:  p,
			Counts: res.Total,
			Cycles: float64(res.Cycles),
		})
	}
	return out, nil
}

// SelectIndicators chooses up to max events as performance indicators:
// non-constant counters, ranked by the absolute Pearson correlation of
// the counter with the cost, with near-collinear duplicates pruned.
// Points with a non-finite cycle cost are ignored for the ranking —
// TrainCostModel drops the same rows with a diagnostic — so one
// corrupt measurement cannot void every correlation.
func SelectIndicators(points []TrainingPoint, max int) []counters.EventID {
	var usable []TrainingPoint
	for _, p := range points {
		if !math.IsNaN(p.Cycles) && !math.IsInf(p.Cycles, 0) {
			usable = append(usable, p)
		}
	}
	points = usable
	if len(points) < 3 || max <= 0 {
		return nil
	}
	cycles := make([]float64, len(points))
	for i, p := range points {
		cycles[i] = p.Cycles
	}
	type cand struct {
		id     counters.EventID
		absR   float64
		values []float64
	}
	var cands []cand
	for id := counters.EventID(0); id < counters.NumEvents; id++ {
		vals := make([]float64, len(points))
		for i, p := range points {
			vals[i] = float64(p.Counts.Get(id))
		}
		if stats.Variance(vals) == 0 {
			continue // constant: "considered for removal"
		}
		r := stats.PearsonR(vals, cycles)
		if math.IsNaN(r) {
			continue
		}
		cands = append(cands, cand{id: id, absR: math.Abs(r), values: vals})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].absR > cands[j].absR })

	var selected []cand
	for _, c := range cands {
		if len(selected) >= max {
			break
		}
		redundant := false
		for _, s := range selected {
			if r := stats.PearsonR(c.values, s.values); !math.IsNaN(r) && math.Abs(r) > 0.999 {
				redundant = true
				break
			}
		}
		if !redundant {
			selected = append(selected, c)
		}
	}
	out := make([]counters.EventID, len(selected))
	for i, s := range selected {
		out[i] = s.id
	}
	return out
}

// CostModel is the indicator-to-cost step: cycles ≈ Σ βᵢ·counterᵢ + β₀,
// trained with (mildly ridge-regularised) least squares on scaled
// counters.
type CostModel struct {
	Events []counters.EventID
	// Beta holds one weight per event plus the intercept (last).
	Beta []float64
	// Scale normalises each counter before applying Beta.
	Scale []float64
	// R2 is the training coefficient of determination.
	R2 float64
	// Prov records how the solve was obtained and what had to be done
	// to the training data to make it solvable.
	Prov Provenance
}

// Provenance documents the numerical path a cost-model solve took, so
// a prediction made from degraded training data carries its caveat.
type Provenance struct {
	// Method is the solver that produced Beta: "cholesky" (the paper's
	// normal-equations deduction, used whenever the data allows), "qr"
	// (fallback for designs the normal equations cannot handle) or
	// "ridge" (escalated regularization, the last resort).
	Method string
	// Cond is the condition estimate of the scaled design matrix.
	Cond float64
	// Lambda is the ridge strength the solve used. The primary path
	// always applies a tiny stabilising jitter; only the "ridge" method
	// uses a λ large enough to bias the coefficients noticeably.
	Lambda float64
	// Dropped lists indicator columns removed before solving (constant
	// or collinear with a kept column).
	Dropped []counters.EventID
	// DroppedRows counts training rows removed for non-finite cost.
	DroppedRows int
	// Diags explains every removal and fallback.
	Diags stats.Diagnostics
}

// Degraded reports whether the solve deviated in any way from the
// clean path over the full training data.
func (p Provenance) Degraded() bool {
	return (p.Method != "" && p.Method != "cholesky") ||
		len(p.Dropped) > 0 || p.DroppedRows > 0 || len(p.Diags) > 0
}

// String summarises the provenance for the strategy's caveat line.
func (p Provenance) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "solve=%s cond≈%.3g", p.Method, p.Cond)
	if p.Method == "ridge" {
		fmt.Fprintf(&sb, " λ=%.3g", p.Lambda)
	}
	if len(p.Dropped) > 0 {
		names := make([]string, len(p.Dropped))
		for i, id := range p.Dropped {
			names[i] = counters.Def(id).Name
		}
		fmt.Fprintf(&sb, ", dropped indicators: %s", strings.Join(names, ", "))
	}
	if p.DroppedRows > 0 {
		fmt.Fprintf(&sb, ", dropped %d training row(s)", p.DroppedRows)
	}
	if len(p.Diags) > 0 {
		fmt.Fprintf(&sb, " [%s]", p.Diags.Codes())
	}
	return sb.String()
}

// collinearR is the pairwise correlation above which two indicator
// columns are considered duplicates of each other for the solve.
// SelectIndicators already prunes at 0.999, so on the normal training
// path this never fires; it guards direct TrainCostModel callers.
const collinearR = 0.99999

// condAnnotate is the design condition estimate above which the model
// is annotated ill-conditioned even if a solve succeeds.
const condAnnotate = 1e8

// TrainCostModel fits the linear indicator-to-cost map. Training rows
// with a non-finite cost are dropped, constant or collinear indicator
// columns are removed, and a design the normal equations cannot handle
// falls back to QR and then escalating ridge regularization — each
// deviation recorded in the returned model's Prov. On healthy data the
// computation is exactly the paper's normal-equations path.
func TrainCostModel(points []TrainingPoint, events []counters.EventID) (*CostModel, error) {
	if len(events) == 0 {
		return nil, errors.New("core: no indicator events")
	}
	if len(points) < len(events)+1 {
		return nil, fmt.Errorf("core: %d training points for %d indicators", len(points), len(events))
	}
	var prov Provenance
	// Rows whose cost is NaN/Inf cannot inform the fit.
	badRows := 0
	for _, p := range points {
		if math.IsNaN(p.Cycles) || math.IsInf(p.Cycles, 0) {
			badRows++
		}
	}
	if badRows > 0 {
		kept := make([]TrainingPoint, 0, len(points)-badRows)
		for _, p := range points {
			if !math.IsNaN(p.Cycles) && !math.IsInf(p.Cycles, 0) {
				kept = append(kept, p)
			}
		}
		points = kept
		prov.DroppedRows = badRows
		prov.Diags = append(prov.Diags, stats.Diagnostic{Kind: stats.NonFinite,
			Detail: "training rows with non-finite cost removed", Dropped: badRows})
	}
	// Remove indicator columns the solve cannot use: constants carry no
	// signal, and a column collinear with one already kept would make
	// the normal equations singular.
	colVals := func(id counters.EventID) []float64 {
		vals := make([]float64, len(points))
		for i, p := range points {
			vals[i] = float64(p.Counts.Get(id))
		}
		return vals
	}
	var keep []counters.EventID
	var keptVals [][]float64
	for _, id := range events {
		vals := colVals(id)
		if stats.Variance(vals) == 0 {
			prov.Dropped = append(prov.Dropped, id)
			prov.Diags = append(prov.Diags, stats.Diagnostic{Kind: stats.Degenerate,
				Detail: fmt.Sprintf("constant indicator %s", counters.Def(id).Name)})
			continue
		}
		dup := false
		for i, kv := range keptVals {
			if r := stats.PearsonR(vals, kv); !math.IsNaN(r) && math.Abs(r) > collinearR {
				prov.Dropped = append(prov.Dropped, id)
				prov.Diags = append(prov.Diags, stats.Diagnostic{Kind: stats.IllConditioned,
					Detail: fmt.Sprintf("indicator %s collinear with %s",
						counters.Def(id).Name, counters.Def(keep[i]).Name)})
				dup = true
				break
			}
		}
		if !dup {
			keep = append(keep, id)
			keptVals = append(keptVals, vals)
		}
	}
	if len(keep) == 0 {
		return nil, errors.New("core: no usable indicator events after filtering")
	}
	if len(points) < len(keep)+1 {
		return nil, fmt.Errorf("core: %d usable training points for %d indicators", len(points), len(keep))
	}
	events = keep

	n, k := len(points), len(events)
	scale := make([]float64, k)
	for j, id := range events {
		for _, p := range points {
			if v := float64(p.Counts.Get(id)); v > scale[j] {
				scale[j] = v
			}
		}
		if scale[j] == 0 {
			scale[j] = 1
		}
	}
	design := linalg.New(n, k+1)
	y := make([]float64, n)
	for i, p := range points {
		for j, id := range events {
			design.Set(i, j, float64(p.Counts.Get(id))/scale[j])
		}
		design.Set(i, k, 1)
		y[i] = p.Cycles
	}
	prov.Cond = linalg.ConditionEst(design)
	if prov.Cond > condAnnotate {
		prov.Diags = append(prov.Diags, stats.Diagnostic{Kind: stats.IllConditioned,
			Detail: fmt.Sprintf("design condition estimate %.3g", prov.Cond)})
	}
	// Ridge-regularised normal equations: (XᵀX + λI)β = Xᵀy. The tiny λ
	// keeps correlated counter columns solvable.
	xt := design.Transpose()
	xtx, err := xt.Mul(design)
	if err != nil {
		return nil, err
	}
	trace := 0.0
	for i := 0; i < xtx.Rows(); i++ {
		trace += xtx.At(i, i)
	}
	lambda := 1e-8 * trace / float64(xtx.Rows())
	if lambda <= 0 {
		lambda = 1e-12
	}
	for i := 0; i < xtx.Rows(); i++ {
		xtx.Set(i, i, xtx.At(i, i)+lambda)
	}
	xty, err := xt.MulVec(y)
	if err != nil {
		return nil, err
	}
	beta, err := linalg.SolveCholesky(xtx, xty)
	prov.Method, prov.Lambda = "cholesky", lambda
	if err != nil || !finiteAll(beta) {
		// The paper's path failed: fall back to QR, then to escalating
		// ridge strengths, recording the deviation.
		beta, err = linalg.SolveLeastSquares(design, y)
		if err == nil && finiteAll(beta) {
			prov.Method, prov.Lambda = "qr", 0
			prov.Diags = append(prov.Diags, stats.Diagnostic{Kind: stats.IllConditioned,
				Detail: "normal equations failed; solved by QR"})
		} else {
			solved := false
			for lam := lambda * 100; lam < lambda*1e22; lam *= 100 {
				if b, rerr := linalg.SolveRidge(design, y, lam); rerr == nil && finiteAll(b) {
					beta, err = b, nil
					prov.Method, prov.Lambda = "ridge", lam
					prov.Diags = append(prov.Diags, stats.Diagnostic{Kind: stats.IllConditioned,
						Detail: fmt.Sprintf("solved with escalated ridge λ=%.3g", lam)})
					solved = true
					break
				}
			}
			if !solved {
				return nil, fmt.Errorf("core: cost model solve: %w", err)
			}
		}
	}
	cm := &CostModel{Events: events, Beta: beta, Scale: scale, Prov: prov}
	// Training R².
	my := stats.Mean(y)
	var ssRes, ssTot float64
	for i, p := range points {
		pred := cm.Predict(p.Counts)
		d := y[i] - pred
		ssRes += d * d
		t := y[i] - my
		ssTot += t * t
	}
	if ssTot > 0 {
		cm.R2 = 1 - ssRes/ssTot
	} else {
		cm.R2 = 1
	}
	return cm, nil
}

// finiteAll reports whether every coefficient is a usable number.
func finiteAll(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Predict maps a counter vector to predicted cycles.
func (cm *CostModel) Predict(c counters.Counts) float64 {
	s := cm.Beta[len(cm.Beta)-1]
	for j, id := range cm.Events {
		s += cm.Beta[j] * float64(c.Get(id)) / cm.Scale[j]
	}
	return s
}

// predictFromValues maps extrapolated (float) indicator values to
// cycles.
func (cm *CostModel) predictFromValues(vals []float64) float64 {
	s := cm.Beta[len(cm.Beta)-1]
	for j := range cm.Events {
		s += cm.Beta[j] * vals[j] / cm.Scale[j]
	}
	return s
}

// IndicatorModel extrapolates one counter over the workload parameter
// (the code-to-indicator step).
type IndicatorModel struct {
	Event counters.EventID
	Fit   stats.Regression
}

// Strategy is a trained two-step predictor.
type Strategy struct {
	Indicators []IndicatorModel
	Cost       *CostModel
	// ParamName documents the extrapolation axis.
	ParamName string
}

// Build trains the full two-step strategy from training points:
// indicator selection, per-indicator extrapolation models, and the
// cost model.
func Build(points []TrainingPoint, paramName string, maxIndicators int) (*Strategy, error) {
	events := SelectIndicators(points, maxIndicators)
	if len(events) == 0 {
		return nil, errors.New("core: no usable indicators found")
	}
	// Keep the design solvable.
	if len(points) <= len(events)+1 {
		events = events[:len(points)/2]
		if len(events) == 0 {
			return nil, errors.New("core: too few training points")
		}
	}
	cost, err := TrainCostModel(points, events)
	if err != nil {
		return nil, err
	}
	st := &Strategy{Cost: cost, ParamName: paramName}
	// Iterate the columns the cost model actually kept — training may
	// have dropped constant or collinear indicators.
	for _, id := range cost.Events {
		var xs, ys []float64
		for _, p := range points {
			xs = append(xs, p.Param)
			ys = append(ys, float64(p.Counts.Get(id)))
		}
		fit, err := stats.BestFit(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("core: extrapolation model for %s: %w", counters.Def(id).Name, err)
		}
		st.Indicators = append(st.Indicators, IndicatorModel{Event: id, Fit: fit})
	}
	return st, nil
}

// PredictIndicators extrapolates every selected counter to the given
// parameter value.
func (s *Strategy) PredictIndicators(param float64) []float64 {
	out := make([]float64, len(s.Indicators))
	for i, im := range s.Indicators {
		v := im.Fit.Predict(param)
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// PredictCycles runs both steps: extrapolate the indicators to param,
// then apply the cost model.
func (s *Strategy) PredictCycles(param float64) float64 {
	return s.Cost.predictFromValues(s.PredictIndicators(param))
}

// PredictFromCounts applies only the indicator-to-cost step to a
// measured counter vector (the "transfer" use where indicators were
// measured rather than extrapolated).
func (s *Strategy) PredictFromCounts(c counters.Counts) float64 {
	return s.Cost.Predict(c)
}

// Transfer keeps the program-specific indicator models and re-learns
// the machine-specific cost model from calibration points measured on
// the target system — the cross-machine portability of Fig. 4b.
func (s *Strategy) Transfer(calibration []TrainingPoint) (*Strategy, error) {
	cost, err := TrainCostModel(calibration, s.Cost.Events)
	if err != nil {
		return nil, fmt.Errorf("core: transfer: %w", err)
	}
	// Retraining may drop constant or collinear columns on the
	// calibration data, so the indicator models must be filtered to the
	// kept events, in cost.Events order, to stay aligned with Beta.
	byEvent := make(map[counters.EventID]IndicatorModel, len(s.Indicators))
	for _, im := range s.Indicators {
		byEvent[im.Event] = im
	}
	inds := make([]IndicatorModel, 0, len(cost.Events))
	for _, id := range cost.Events {
		im, ok := byEvent[id]
		if !ok {
			return nil, fmt.Errorf("core: transfer: cost model kept %s but the source strategy has no extrapolation model for it",
				counters.Def(id).Name)
		}
		inds = append(inds, im)
	}
	return &Strategy{Indicators: inds, Cost: cost, ParamName: s.ParamName}, nil
}

// Degraded reports whether any step of the strategy had to deviate
// from the clean path: the cost solve fell back or dropped data, or an
// indicator's extrapolation fit carries diagnostics.
func (s *Strategy) Degraded() bool {
	if s.Cost != nil && s.Cost.Prov.Degraded() {
		return true
	}
	for _, im := range s.Indicators {
		if len(im.Fit.Diags) > 0 || im.Fit.Dropped > 0 {
			return true
		}
	}
	return false
}

// HardDegraded reports whether the degradation breaks trust in the
// predictions — a non-Cholesky solve, a hard diagnostic anywhere —
// the predicate -strict turns into a nonzero exit.
func (s *Strategy) HardDegraded() bool {
	if s.Cost != nil {
		if m := s.Cost.Prov.Method; m != "" && m != "cholesky" {
			return true
		}
		if s.Cost.Prov.Diags.HasHard() {
			return true
		}
	}
	for _, im := range s.Indicators {
		if im.Fit.Diags.HasHard() {
			return true
		}
	}
	return false
}

// String summarises the trained strategy. Strategies trained on
// degraded data append a caveat line; clean strategies render exactly
// as before.
func (s *Strategy) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "two-step strategy over %q (cost R²=%.4f)\n", s.ParamName, s.Cost.R2)
	for i, im := range s.Indicators {
		fmt.Fprintf(&sb, "  %-45s %s (R²=%.3f) weight %.4g\n",
			counters.Def(im.Event).Name, im.Fit.Equation(), im.Fit.R2, s.Cost.Beta[i])
	}
	if s.Degraded() {
		fmt.Fprintf(&sb, "  caveat: degraded training data — %s; prediction confidence reduced\n", s.Cost.Prov)
	}
	return sb.String()
}
