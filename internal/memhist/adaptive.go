package memhist

import (
	"math/rand"
	"sort"

	"numaperf/internal/perf"
)

// Adaptive dwell repair: on real PMUs a threshold can silently lose
// its dwell time to interrupt throttling or scripted starvation, which
// the fixed 100 Hz round-robin cycler cannot repair — the threshold's
// estimate is then scaled up from a sliver of observation or stays
// zero. The adaptive cycler watches the per-threshold effective dwell
// mid-run and inserts bounded repair slices for starved thresholds, so
// a repairable disturbance still yields the configured coverage floor.

const (
	// DefaultCoverageFloor is the per-threshold effective-dwell floor
	// (as a share of the fair dwell) below which the adaptive cycler
	// schedules repair slices, and the default gate of -min-coverage.
	DefaultCoverageFloor = 0.5
	// DefaultMaxRepairSlices bounds the repair slices granted to any
	// single threshold, so a persistently starved threshold cannot
	// stall the rotation forever.
	DefaultMaxRepairSlices = 2
)

// adaptiveCycler is a perf.ThresholdScheduler: strict round-robin
// until a completed round shows starved thresholds, then a repair
// queue ordered most-starved-first (ties broken by an RNG with a fixed
// seed, so every run replays the exact schedule). With no faults every
// threshold keeps its fair dwell, the queue stays empty, and the
// schedule is byte-identical to the fixed cycler.
type adaptiveCycler struct {
	maxRepair int
	rng       *rand.Rand
	base      int
	repairs   []int
	queue     []int
}

func newAdaptiveCycler(maxRepair int) *adaptiveCycler {
	if maxRepair <= 0 {
		maxRepair = DefaultMaxRepairSlices
	}
	return &adaptiveCycler{maxRepair: maxRepair, rng: rand.New(rand.NewSource(1))}
}

// Next serves the repair queue first, evaluates starvation whenever a
// full base round has completed, and otherwise rotates round-robin.
func (a *adaptiveCycler) Next(st *perf.CycleState) int {
	n := len(st.Thresholds())
	if a.repairs == nil {
		a.repairs = make([]int, n)
	}
	if len(a.queue) > 0 {
		return a.pop()
	}
	if a.base == n-1 {
		a.evaluate(st)
		if len(a.queue) > 0 {
			return a.pop()
		}
	}
	a.base = (a.base + 1) % n
	return a.base
}

func (a *adaptiveCycler) pop() int {
	k := a.queue[0]
	a.queue = a.queue[1:]
	return k
}

// evaluate enqueues repair slices for thresholds whose effective dwell
// fell below floor × fair share, most-starved first.
func (a *adaptiveCycler) evaluate(st *perf.CycleState) {
	n := len(st.Thresholds())
	fair := float64(st.Now()) / float64(n)
	if fair <= 0 {
		return
	}
	type cand struct {
		k   int
		eff float64
		tie uint64
	}
	var cands []cand
	for k := 0; k < n; k++ {
		if a.repairs[k] >= a.maxRepair {
			continue
		}
		if eff := float64(st.EffectiveCycles(k)); eff < DefaultCoverageFloor*fair {
			cands = append(cands, cand{k: k, eff: eff, tie: a.rng.Uint64()})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].eff != cands[j].eff {
			return cands[i].eff < cands[j].eff
		}
		if cands[i].tie != cands[j].tie {
			return cands[i].tie < cands[j].tie
		}
		return cands[i].k < cands[j].k
	})
	for _, c := range cands {
		a.queue = append(a.queue, c.k)
		a.repairs[c.k]++
	}
}
