package exec

import (
	"math"
	"math/rand"

	"numaperf/internal/counters"
	"numaperf/internal/oslite"
	"numaperf/internal/topology"
)

// Result holds everything one run produced.
type Result struct {
	// Total is the machine-wide counter aggregate with measurement
	// noise applied — what a perf reading would report.
	Total counters.Counts
	// Raw is the exact, noise-free aggregate (not observable on real
	// hardware; kept for determinism tests and error analyses).
	Raw counters.Counts
	// PerCore are the exact per-core counter vectors.
	PerCore []counters.Counts
	// Uncore are the exact per-socket uncore vectors.
	Uncore []counters.Counts
	// Cycles is the makespan (slowest core's cycle count).
	Cycles uint64
	// Seconds converts the makespan at the machine frequency.
	Seconds float64
	// Footprint is the process's reserved-memory event history.
	Footprint []oslite.FootprintSample
	// Regions maps code-region names to their attributed events and
	// cycles; nil when the workload declared no regions.
	Regions map[string]*RegionProfile
	// Machine describes the system the run executed on.
	Machine *topology.Machine
	// Threads is the team size of the run.
	Threads int
	// Seed is the noise sub-seed used for this run.
	Seed int64
}

// collect assembles the Result after a successful run.
func (e *Engine) collect() *Result {
	m := e.cfg.Machine
	res := &Result{
		Raw:       e.sim.TotalCounts(),
		PerCore:   make([]counters.Counts, m.Cores()),
		Uncore:    make([]counters.Counts, m.Sockets),
		Cycles:    e.sim.MaxCycles(),
		Footprint: e.proc.History(),
		Machine:   m,
		Threads:   e.cfg.Threads,
		Seed:      e.cfg.Seed + e.runs,
	}
	res.Seconds = float64(res.Cycles) / m.CyclesPerSecond()
	for c := 0; c < m.Cores(); c++ {
		res.PerCore[c] = e.sim.CoreCounts(c).Clone()
	}
	for s := 0; s < m.Sockets; s++ {
		res.Uncore[s] = e.sim.UncoreCounts(s).Clone()
	}
	res.Total = e.applyNoise(res.Raw, res.Seed)
	return res
}

// applyNoise perturbs counter values the way run-to-run hardware
// variation does: multiplicative jitter on every event plus a small
// additive background on the events the OS pollutes (cycles,
// instructions, cache traffic from interrupt handlers). Disabled with
// a negative Config.Noise. The draws come from the engine's generator
// re-seeded with the run's sub-seed, the same numbers a new source
// seeded alike would draw.
func (e *Engine) applyNoise(raw counters.Counts, seed int64) counters.Counts {
	out := raw.Clone()
	sigma := e.cfg.Noise
	if sigma < 0 {
		return out
	}
	if e.noise == nil {
		e.noise = rand.New(rand.NewSource(seed))
	} else {
		e.noise.Seed(seed)
	}
	rng := e.noise
	for id := range out {
		v := float64(out[id])
		if v == 0 {
			// Zero counters stay zero: an event that cannot fire does
			// not fire because of noise (EvSel greys these out).
			continue
		}
		v *= 1 + sigma*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		out[id] = uint64(math.Round(v))
	}
	// OS background activity.
	background := func(id counters.EventID, base float64) {
		b := base * (1 + 0.25*rng.NormFloat64())
		if b > 0 {
			out[id] += uint64(b)
		}
	}
	background(counters.CPUCycles, 2000)
	background(counters.RefCycles, 2000)
	background(counters.InstRetired, 1500)
	background(counters.ICacheMisses, 20)
	background(counters.L1Hit, 400)
	background(counters.BranchRetired, 250)
	return out
}
