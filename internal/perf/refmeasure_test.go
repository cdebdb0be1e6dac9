package perf

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// The three measurement loops below are kept verbatim from before
// Measure simulated a body once per measurement: they run the body
// again for every batch of every repetition. TestMeasureMatchesReference
// holds Measure to them.

// RunVisible is kept verbatim from when it was a campaign cell's unit of
// work, before a campaign simulated each sweep point once.
// RunVisible performs one program run and reads the given events from
// the final counter state — one register batch of one repetition. This
// is the unit of work a campaign cell executes.
func RunVisible(e *exec.Engine, body func(*exec.Thread), visible []counters.EventID) (map[counters.EventID]float64, error) {
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

// refMeasure is Measure as it was, on the reference loops.
func refMeasure(e *exec.Engine, body func(*exec.Thread), events []counters.EventID, reps int, mode Mode) (*Measurement, error) {
	switch mode {
	case Batched:
		return refMeasureBatched(e, body, events, reps)
	case Multiplexed:
		return refMeasureMultiplexed(e, body, events, reps)
	default:
		return refMeasureUnlimited(e, body, events, reps)
	}
}

func refMeasureUnlimited(e *exec.Engine, body func(*exec.Thread), events []counters.EventID, reps int) (*Measurement, error) {
	m := &Measurement{Samples: make(map[counters.EventID][]float64, len(events)), Mode: Unlimited, Batches: 1, Reps: reps}
	for r := 0; r < reps; r++ {
		res, err := e.Run(body)
		if err != nil {
			return nil, err
		}
		m.Runs++
		for _, id := range events {
			m.Samples[id] = append(m.Samples[id], float64(res.Total.Get(id)))
		}
	}
	return m, nil
}

func refMeasureBatched(e *exec.Engine, body func(*exec.Thread), events []counters.EventID, reps int) (*Measurement, error) {
	plan := PlanBatches(e, events)
	nBatches := plan.Batches()
	m := &Measurement{Samples: make(map[counters.EventID][]float64, len(events)), Mode: Batched, Batches: nBatches, Reps: reps}
	for r := 0; r < reps; r++ {
		for b := 0; b < nBatches; b++ {
			samples, err := RunVisible(e, body, plan.Visible(b))
			if err != nil {
				return nil, err
			}
			m.Runs++
			for _, id := range plan.Visible(b) {
				m.Samples[id] = append(m.Samples[id], samples[id])
			}
		}
	}
	return m, nil
}

// refMeasureMultiplexed rotates event groups during each run using the
// engine's post-chunk hook, attributing counter deltas to the group
// active in each quantum and scaling by the duty cycle at the end —
// perf's default behaviour when events exceed registers.
func refMeasureMultiplexed(e *exec.Engine, body func(*exec.Thread), events []counters.EventID, reps int) (*Measurement, error) {
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
	m := &Measurement{Samples: make(map[counters.EventID][]float64, len(events)), Mode: Multiplexed, Batches: nGroups, Reps: reps}

	for r := 0; r < reps; r++ {
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
		m.Runs++

		var totalQuanta uint64
		for _, q := range quanta {
			totalQuanta += q
		}
		for gi := 0; gi < nGroups; gi++ {
			scale := 1.0
			if quanta[gi] > 0 {
				scale = float64(totalQuanta) / float64(quanta[gi])
			}
			if gi < len(groups) {
				for _, id := range groups[gi] {
					m.Samples[id] = append(m.Samples[id], acc[id]*scale)
				}
			}
			if gi < len(ugroups) {
				for _, id := range ugroups[gi] {
					m.Samples[id] = append(m.Samples[id], acc[id]*scale)
				}
			}
		}
		for _, id := range fixed {
			m.Samples[id] = append(m.Samples[id], float64(res.Total.Get(id)))
		}
	}
	return m, nil
}

// refWorkloads are the registered workloads at test sizes.
var refWorkloads = []workloads.Workload{
	workloads.CacheMissA(32), workloads.CacheMissB(32),
	workloads.ParallelSort{Elements: 2048},
	workloads.SIFT{Width: 32, Height: 32, Octaves: 2},
	workloads.MLC{BufferBytes: 1 << 18, Chases: 2000},
	workloads.MLC{BufferBytes: 1 << 18, Chases: 2000, Remote: true},
	workloads.PhasedApp{RampChunks: 2, ChunkBytes: 1 << 13, ComputePasses: 2},
	workloads.BSPApp{Supersteps: 2, StepBytes: 1 << 13, Passes: 2},
	workloads.Triad{Elements: 2048, Passes: 1},
	workloads.GUPS{TableBytes: 1 << 20, Updates: 1000},
	workloads.FalseSharing{Updates: 1000},
	workloads.FalseSharing{Updates: 1000, Padded: true},
	workloads.PointerChase{Lines: 1 << 14, Hops: 4000},
}

var (
	refFixed = []counters.EventID{counters.InstRetired, counters.CPUCycles, counters.SWPageFaults}
	refCore  = []counters.EventID{
		counters.AllLoads, counters.L1Hit, counters.L1Miss, counters.L2Hit,
		counters.L2Miss, counters.L3Hit, counters.L3Miss, counters.L2PFRequests,
		counters.FBFull, counters.BranchRetired, counters.BranchMiss, counters.StallsTotal,
	}
	refUncore = []counters.EventID{
		counters.UncIMCRead, counters.UncQPITx, counters.UncLLCLookup, counters.UncIMCRemoteRd,
		counters.UncQPIRx,
	}
)

// refEvents returns the fixed events, 4·groups core events and up to
// five uncore events: as many register batches or rotation groups as
// asked for, up to 3, on the 4 programmable and 4 uncore registers
// every machine here has.
func refEvents(groups int) []counters.EventID {
	out := append([]counters.EventID(nil), refFixed...)
	out = append(out, refCore[:4*groups]...)
	return append(out, refUncore[:min(len(refUncore), 4*groups)]...)
}

// muxQuantaMargin is how far past a rotation a run must reach before
// TestMeasureMatchesReference counts on one more group getting a
// quantum: a rotation lands at the end of the chunk that crosses
// MuxQuantumCycles, and a 256-op chunk of DRAM misses lasts tens of
// thousands of cycles.
const muxQuantaMargin = 70_000

// TestMeasureMatchesReference holds Measure, which simulates a body
// once per measurement, to the loops that ran it for every batch of
// every repetition: every registered workload at test sizes, on uma, 2s
// and dl580 at 1 and 4 threads, in all three modes with 1 and 3
// repetitions, must give the same Measurement. Multiplexed cases ask
// for as many groups as the run has quanta, up to 3, so every group
// gets one (the reference reported 0 for a group that got none).
func TestMeasureMatchesReference(t *testing.T) {
	batched := refEvents(3)
	var rotating atomic.Int32
	t.Run("matrix", func(t *testing.T) {
		for _, name := range []string{"uma", "2s", "dl580"} {
			for _, threads := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%d", name, threads), func(t *testing.T) {
					t.Parallel()
					mach, _ := topology.ByName(name)
					cfg := exec.Config{Machine: mach, Threads: threads, Chunk: 256}
					e, err := exec.NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := exec.NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var seed int64
					for _, w := range refWorkloads {
						body := w.Body()
						probe, err := e.Run(body)
						if err != nil {
							t.Fatal(err)
						}
						groups := min(3, 1+int(probe.Cycles/(MuxQuantumCycles+muxQuantaMargin)))
						if groups > 1 {
							rotating.Add(1)
						}
						for _, mode := range []Mode{Batched, Unlimited, Multiplexed} {
							events := batched
							if mode == Multiplexed {
								events = refEvents(groups)
							}
							for _, reps := range []int{1, 3} {
								where := fmt.Sprintf("%s, %s, %d reps", w.Name(), mode, reps)
								seed++
								e.Reseed(seed)
								ref.Reseed(seed)
								got, err := Measure(e, body, events, reps, mode)
								if err != nil {
									t.Fatalf("%s: %v", where, err)
								}
								want, err := refMeasure(ref, body, events, reps, mode)
								if err != nil {
									t.Fatalf("%s: reference: %v", where, err)
								}
								for _, id := range events {
									if len(want.Samples[id]) != reps || len(got.Samples[id]) != reps {
										t.Fatalf("%s: %s has %d samples, the reference %d; want %d (a multiplexed group without a quantum?)",
											where, counters.Def(id).Name, len(got.Samples[id]), len(want.Samples[id]), reps)
									}
								}
								if !reflect.DeepEqual(got, want) {
									t.Errorf("%s: Measure gives %+v, the reference loops %+v", where, *got, *want)
								}
							}
						}
					}
				})
			}
		}
	})
	n := 6 * len(refWorkloads)
	t.Logf("%d of %d bodies rotate more than one multiplexed group", rotating.Load(), n)
	if rotating.Load() < 10 {
		t.Errorf("only %d of %d bodies rotate more than one multiplexed group; the multiplexed cases barely test the rotation", rotating.Load(), n)
	}
}
