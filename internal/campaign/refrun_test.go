package campaign

import (
	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/perf"
)

// refDefaultRun is defaultRun kept verbatim from before a campaign
// simulated each sweep point once: every cell simulates its own run.
// The reference tests hold the runner to it through Options.Wrap.
//
// defaultRun builds the real measurement RunFunc: fresh engine per
// cell, seeded by the cell ordinal, executing one register batch
// (Batched) or one full repetition (Unlimited/Multiplexed).
func (r *Runner) refDefaultRun(plans []pointPlan) RunFunc {
	return func(c Cell) (map[counters.EventID]float64, error) {
		p := r.Spec.Points[c.Point]
		e, body, err := p.Mk(r.Spec.Seed + int64(c.Index) + 1)
		if err != nil {
			return nil, err
		}
		if r.Opts.OpBudget > 0 {
			e.SetOpBudget(r.Opts.OpBudget)
		}
		if r.Spec.Mode == perf.Batched {
			return refRunVisible(e, body, plans[c.Point].visible(c.Batch))
		}
		m, err := perf.Measure(e, body, r.Spec.Events, 1, r.Spec.Mode)
		if err != nil {
			return nil, err
		}
		out := make(map[counters.EventID]float64, len(m.Samples))
		for id, s := range m.Samples {
			if len(s) > 0 {
				out[id] = s[0]
			}
		}
		return out, nil
	}
}

// refRunVisible is perf.RunVisible, which refDefaultRun called, kept
// verbatim.
//
// RunVisible performs one program run and reads the given events from
// the final counter state — one register batch of one repetition. This
// is the unit of work a campaign cell executes.
func refRunVisible(e *exec.Engine, body func(*exec.Thread), visible []counters.EventID) (map[counters.EventID]float64, error) {
	res, err := e.Run(body)
	if err != nil {
		return nil, err
	}
	out := make(map[counters.EventID]float64, len(visible))
	for _, id := range visible {
		out[id] = float64(res.Total.Get(id))
	}
	return out, nil
}

// ReferenceRun returns the reference cell function for r's spec and op
// budget: a middleware that returns it and ignores the runner's own
// makes the runner measure every cell as it did before.
func ReferenceRun(r *Runner) (RunFunc, error) {
	plans, err := r.plan()
	if err != nil {
		return nil, err
	}
	return r.refDefaultRun(plans), nil
}
