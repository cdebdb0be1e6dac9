package exec

import (
	"sync"

	"numaperf/internal/counters"
)

// RegionProfile aggregates the events and cycles attributed to one
// named code region across all threads of a run — the event-to-code
// mapping the paper's outlook names as important to developers hunting
// bottlenecks.
type RegionProfile struct {
	// Counts are the counter increments inside the region.
	Counts counters.Counts
	// Cycles are the core cycles spent inside the region (summed over
	// threads).
	Cycles uint64
}

// OtherRegion is the implicit region receiving events outside any
// Begin/End pair (only materialised when a run uses regions at all).
const OtherRegion = "(other)"

// regionTable interns region names; threads call internRegion
// concurrently while emitting, so it carries its own lock.
type regionTable struct {
	mu    sync.Mutex
	ids   map[string]int
	names []string
}

func newRegionTable() *regionTable {
	t := &regionTable{ids: make(map[string]int)}
	t.names = append(t.names, OtherRegion)
	t.ids[OtherRegion] = 0
	return t
}

func (rt *regionTable) intern(name string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id, ok := rt.ids[name]; ok {
		return id
	}
	id := len(rt.names)
	rt.names = append(rt.names, name)
	rt.ids[name] = id
	return id
}

// regionState tracks attribution for one thread.
type regionState struct {
	stack     []int
	snap      counters.Counts // core counters at the last flush
	snapCycle uint64
	used      bool
}

// flushRegion attributes the counter delta since the last flush to the
// thread's innermost open region.
func (e *Engine) flushRegion(t *Thread) {
	rs := e.regionStates[t.id]
	cs := e.sim.CoreCounts(t.core)
	top := 0
	if n := len(rs.stack); n > 0 {
		top = rs.stack[n-1]
	}
	agg := e.regionAgg(top)
	for i, v := range cs {
		agg.Counts[i] += v - rs.snap[i]
		rs.snap[i] = v
	}
	cyc := e.sim.Cycles(t.core)
	agg.Cycles += cyc - rs.snapCycle
	rs.snapCycle = cyc
}

func (e *Engine) regionAgg(id int) *RegionProfile {
	for len(e.regionAggs) <= id {
		e.regionAggs = append(e.regionAggs, &RegionProfile{Counts: counters.NewCounts()})
	}
	return e.regionAggs[id]
}

// handleRegionOp processes a region begin/end during simulation.
func (e *Engine) handleRegionOp(t *Thread, op Op) {
	rs := e.regionStates[t.id]
	rs.used = true
	e.flushRegion(t)
	if op.Kind == OpRegionBegin {
		rs.stack = append(rs.stack, int(op.Arg))
	} else if len(rs.stack) > 0 {
		rs.stack = rs.stack[:len(rs.stack)-1]
	}
}

// collectRegions converts the per-run attribution into the Result map,
// naming regions from the run's table. It returns nil when no thread
// used regions.
func (e *Engine) collectRegions(threads []*threadInfo, regions *regionTable) map[string]*RegionProfile {
	used := false
	for _, ti := range threads {
		rs := e.regionStates[ti.t.id]
		if rs.used {
			used = true
		}
		// Attribute each thread's tail to its innermost open region.
		e.flushRegion(ti.t)
	}
	if !used {
		return nil
	}
	out := make(map[string]*RegionProfile, len(e.regionAggs))
	for id, agg := range e.regionAggs {
		if agg == nil {
			continue
		}
		nonZero := agg.Cycles > 0
		for _, v := range agg.Counts {
			if v != 0 {
				nonZero = true
				break
			}
		}
		if nonZero {
			out[regions.names[id]] = agg
		}
	}
	return out
}
