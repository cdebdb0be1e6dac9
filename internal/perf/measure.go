// Package perf is the measurement layer on top of the simulator,
// playing the role Linux perf plays for the paper's tools. It models
// the constraint that makes EvSel's design interesting — only a few
// programmable PMU registers exist per core — and offers the two ways
// around it: register batching across repeated runs (EvSel's choice)
// and time multiplexing within one run (what perf does by default, and
// what the paper argues against when many counters are wanted). It
// also implements the PEBS-style load-latency threshold sampling that
// Memhist consumes and the time-sliced counter series Phasenprüfer
// attributes to phases.
package perf

import (
	"errors"
	"fmt"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
)

// Mode selects how events beyond the register budget are measured.
type Mode int

const (
	// Batched programs one register batch per run and repeats the
	// program until all batches are measured ("EvSel avoids event
	// cycling by measuring batches of registers sequentially").
	Batched Mode = iota
	// Multiplexed rotates event groups on the registers during a
	// single run and scales each group's counts by its duty cycle,
	// which adds extrapolation error on non-stationary workloads.
	Multiplexed
	// Unlimited ignores the register budget (not possible on real
	// hardware; useful for tests and for ground-truth comparisons).
	Unlimited
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Batched:
		return "batched"
	case Multiplexed:
		return "multiplexed"
	case Unlimited:
		return "unlimited"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// uncoreRegisters is the per-socket uncore PMU budget.
const uncoreRegisters = 4

// MuxQuantumCycles is the multiplexing rotation interval (~0.1 ms at
// 2.4 GHz), chosen so even short runs rotate through all groups.
const MuxQuantumCycles = 250_000

// Measurement holds per-event samples collected over repeated runs.
type Measurement struct {
	// Samples maps each requested event to one value per repetition.
	Samples map[counters.EventID][]float64
	// Runs is the number of program executions the method takes:
	// reps × batches when batched, reps otherwise. Measure simulates one
	// of them and draws the others from it (exec.Engine.Repeat); so does
	// a campaign, once per sweep point and session.
	Runs int
	// Batches is the number of register batches per repetition.
	Batches int
	// Reps is the number of repetitions requested; every event should
	// carry Reps samples. Campaign measurements taken over partial data
	// may hold fewer (see Partial).
	Reps int
	// Mode records how the measurement was taken.
	Mode Mode
	// Partial marks a measurement in which some events carry fewer
	// than Reps samples: an incomplete campaign's (failed runs,
	// quarantined values), or a multiplexed one whose run was too short
	// to give every event group a quantum. Consumers annotate rather
	// than assume completeness.
	Partial bool
}

// Coverage returns the fraction of requested repetitions that produced
// a sample for the event, in [0, 1]. Measurements that predate the
// Reps field (Reps == 0) report full coverage.
func (m *Measurement) Coverage(id counters.EventID) float64 {
	if m.Reps <= 0 {
		return 1
	}
	c := float64(len(m.Samples[id])) / float64(m.Reps)
	if c > 1 {
		return 1
	}
	return c
}

// Mean returns the sample mean for an event.
func (m *Measurement) Mean(id counters.EventID) float64 {
	s := m.Samples[id]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Events returns the measured event IDs in ascending order.
func (m *Measurement) Events() []counters.EventID {
	out := make([]counters.EventID, 0, len(m.Samples))
	for id := counters.EventID(0); id < counters.NumEvents; id++ {
		if _, ok := m.Samples[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// splitByDomain partitions the requested events by PMU domain.
func splitByDomain(events []counters.EventID) (fixed, core, uncore []counters.EventID) {
	for _, id := range events {
		switch counters.Def(id).Domain {
		case counters.DomainFixed, counters.DomainSoftware:
			// Neither fixed nor software events occupy a programmable
			// register; they are readable in every run.
			fixed = append(fixed, id)
		case counters.DomainUncore:
			uncore = append(uncore, id)
		default:
			core = append(core, id)
		}
	}
	return fixed, core, uncore
}

func batchesOf(ids []counters.EventID, size int) [][]counters.EventID {
	if len(ids) == 0 {
		return nil
	}
	var out [][]counters.EventID
	for start := 0; start < len(ids); start += size {
		end := start + size
		if end > len(ids) {
			end = len(ids)
		}
		out = append(out, ids[start:end])
	}
	return out
}

// BatchPlan is the register-batch decomposition of an event set: which
// events are visible in which of the repeated runs EvSel schedules. It
// is exported so the campaign layer can decompose a measurement into
// individually retryable run cells that reproduce exactly what Measure's
// batched loop does in one piece.
type BatchPlan struct {
	// Fixed are the fixed and software events, readable in every run.
	Fixed []counters.EventID
	// Core are the programmable core-PMU batches.
	Core [][]counters.EventID
	// Uncore are the per-socket uncore-PMU batches.
	Uncore [][]counters.EventID
}

// PlanBatches decomposes the event set for an engine's register budget.
func PlanBatches(e *exec.Engine, events []counters.EventID) BatchPlan {
	fixed, core, uncore := splitByDomain(events)
	k := e.Config().Machine.PMU.ProgrammableCounters
	return BatchPlan{
		Fixed:  fixed,
		Core:   batchesOf(core, k),
		Uncore: batchesOf(uncore, uncoreRegisters),
	}
}

// Batches is the number of runs needed per repetition: the larger of
// the core and uncore batch counts, at least 1.
func (p BatchPlan) Batches() int {
	n := len(p.Core)
	if len(p.Uncore) > n {
		n = len(p.Uncore)
	}
	if n == 0 {
		n = 1
	}
	return n
}

// Visible lists the events readable during batch b. Fixed and software
// events are included only in batch 0: they are readable in every run,
// but one sample per repetition is all a measurement keeps.
func (p BatchPlan) Visible(b int) []counters.EventID {
	var out []counters.EventID
	if b == 0 {
		out = append(out, p.Fixed...)
	}
	if b < len(p.Core) {
		out = append(out, p.Core[b]...)
	}
	if b < len(p.Uncore) {
		out = append(out, p.Uncore[b]...)
	}
	return out
}

// Measure runs the body under the engine repeatedly and collects `reps`
// samples for every requested event, honouring the machine's PMU
// register budget according to the mode. The body must emit the same
// operations on every run, as every registered workload does (see the
// exec package doc): Measure simulates it once and takes every further
// run from exec.Engine.Repeat, which re-draws only the noise. The
// samples equal those of simulating every run.
func Measure(e *exec.Engine, body func(*exec.Thread), events []counters.EventID, reps int, mode Mode) (*Measurement, error) {
	if reps <= 0 {
		return nil, errors.New("perf: need at least one repetition")
	}
	if len(events) == 0 {
		return nil, errors.New("perf: no events requested")
	}
	m := &Measurement{Samples: make(map[counters.EventID][]float64, len(events)), Mode: mode, Reps: reps}
	switch mode {
	case Batched:
		plan := PlanBatches(e, events)
		batches := make([][]counters.EventID, plan.Batches())
		for b := range batches {
			batches[b] = plan.Visible(b)
		}
		return measureRepeated(e, body, batches, m)
	case Multiplexed:
		return measureMultiplexed(e, body, events, m)
	case Unlimited:
		return measureRepeated(e, body, [][]counters.EventID{events}, m)
	default:
		return nil, fmt.Errorf("perf: unknown mode %v", mode)
	}
}

// MeasureAll measures the entire event database, EvSel style.
func MeasureAll(e *exec.Engine, body func(*exec.Thread), reps int, mode Mode) (*Measurement, error) {
	all := make([]counters.EventID, counters.NumEvents)
	for i := range all {
		all[i] = counters.EventID(i)
	}
	return Measure(e, body, all, reps, mode)
}

// measureRepeated takes m.Reps repetitions of one run per batch and
// reads batch b's events from run b of each (Unlimited is one batch of
// every event). The body is simulated once; every further run re-draws
// its noise (exec.Engine.Repeat).
func measureRepeated(e *exec.Engine, body func(*exec.Thread), batches [][]counters.EventID, m *Measurement) (*Measurement, error) {
	res, err := e.Run(body)
	if err != nil {
		return nil, err
	}
	m.Batches = len(batches)
	for r := 0; r < m.Reps; r++ {
		for _, visible := range batches {
			if m.Runs > 0 {
				res = e.Repeat(res)
			}
			m.Runs++
			for _, id := range visible {
				m.Samples[id] = append(m.Samples[id], float64(res.Total.Get(id)))
			}
		}
	}
	return m, nil
}

// MuxRun is one simulated run in Multiplexed mode: its result and the
// samples of the event groups that rotated on the registers during it.
// The rotation follows the exact counters, so the group samples are the
// same in every run of the body whatever the engine's seed; only the
// fixed events, read from each run's own Total, carry noise.
type MuxRun struct {
	// Result is the simulated run.
	Result *exec.Result
	groups int // rotation groups (Measurement.Batches)
	muxed  []muxSample
	// unseen are the events whose group never got a quantum: they have
	// no sample, so Coverage reports the gap.
	unseen []counters.EventID
	fixed  []counters.EventID
}

type muxSample struct {
	id counters.EventID
	v  float64
}

// RunMultiplexed simulates body once on e, rotating event groups on the
// registers with the engine's post-chunk hook: it attributes counter
// deltas to the group active in each quantum and scales each group by
// its duty cycle at the end — perf's default behaviour when events
// exceed registers.
func RunMultiplexed(e *exec.Engine, body func(*exec.Thread), events []counters.EventID) (*MuxRun, error) {
	fixed, core, uncore := splitByDomain(events)
	k := e.Config().Machine.PMU.ProgrammableCounters
	groups := batchesOf(core, k)
	// Uncore groups rotate alongside the core groups.
	ugroups := batchesOf(uncore, uncoreRegisters)
	nGroups := len(groups)
	if len(ugroups) > nGroups {
		nGroups = len(ugroups)
	}
	if nGroups == 0 {
		nGroups = 1
	}

	acc := make([]float64, counters.NumEvents) // per-event accumulated counts while visible
	quanta := make([]uint64, nGroups)          // quanta observed per group
	last := counters.NewCounts()               // counter snapshot at last rotation
	var lastCycle uint64                       // cycle at last rotation
	group := 0                                 // active group
	sim := e.Sim()

	rotate := func() {
		now := sim.TotalCounts()
		cyc := sim.MaxCycles()
		if cyc <= lastCycle {
			return
		}
		attr := func(ids []counters.EventID) {
			for _, id := range ids {
				acc[id] += float64(now.Get(id) - last.Get(id))
			}
		}
		if group < len(groups) {
			attr(groups[group])
		}
		if group < len(ugroups) {
			attr(ugroups[group])
		}
		quanta[group]++
		last = now
		lastCycle = cyc
		group = (group + 1) % nGroups
	}
	e.SetPostChunkHook(func() {
		if sim.MaxCycles()-lastCycle >= MuxQuantumCycles {
			rotate()
		}
	})
	res, err := e.Run(body)
	e.SetPostChunkHook(nil)
	if err != nil {
		return nil, err
	}
	rotate() // close the final quantum

	var totalQuanta uint64
	for _, q := range quanta {
		totalQuanta += q
	}
	mr := &MuxRun{Result: res, groups: nGroups, fixed: fixed}
	for gi := 0; gi < nGroups; gi++ {
		var ids []counters.EventID
		if gi < len(groups) {
			ids = append(ids, groups[gi]...)
		}
		if gi < len(ugroups) {
			ids = append(ids, ugroups[gi]...)
		}
		if quanta[gi] == 0 {
			mr.unseen = append(mr.unseen, ids...)
			continue
		}
		scale := float64(totalQuanta) / float64(quanta[gi])
		for _, id := range ids {
			mr.muxed = append(mr.muxed, muxSample{id, acc[id] * scale})
		}
	}
	return mr, nil
}

// Read returns the samples of one repetition whose run is res, a run of
// the same body: Result itself or a Repeat of it, on this engine or on
// another that differs only in its seed. The map is the caller's own.
func (mr *MuxRun) Read(res *exec.Result) map[counters.EventID]float64 {
	out := make(map[counters.EventID]float64, len(mr.muxed)+len(mr.fixed))
	for _, s := range mr.muxed {
		out[s.id] = s.v
	}
	for _, id := range mr.fixed {
		out[id] = float64(res.Total.Get(id))
	}
	return out
}

// measureMultiplexed takes m.Reps repetitions of a multiplexed run. The
// rotation is the same in every repetition, so it runs once
// (RunMultiplexed), and each repetition reuses its group samples and
// reads the fixed events from its own run (exec.Engine.Repeat).
func measureMultiplexed(e *exec.Engine, body func(*exec.Thread), events []counters.EventID, m *Measurement) (*Measurement, error) {
	mr, err := RunMultiplexed(e, body, events)
	if err != nil {
		return nil, err
	}
	m.Batches = mr.groups
	for _, id := range mr.unseen {
		m.Samples[id] = nil
		m.Partial = true
	}
	res := mr.Result
	for r := 0; r < m.Reps; r++ {
		if r > 0 {
			res = e.Repeat(res)
		}
		m.Runs++
		for _, s := range mr.muxed {
			m.Samples[s.id] = append(m.Samples[s.id], s.v)
		}
		for _, id := range mr.fixed {
			m.Samples[id] = append(m.Samples[id], float64(res.Total.Get(id)))
		}
	}
	return m, nil
}
