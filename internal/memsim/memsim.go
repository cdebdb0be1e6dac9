package memsim

import (
	"fmt"

	"numaperf/internal/counters"
	"numaperf/internal/topology"
)

// Tunable micro-architecture constants. They are exported so ablation
// experiments can document them, but they are not meant to be changed
// per run.
const (
	// MLPMax caps the memory-level parallelism credit for independent
	// loads: up to this many outstanding misses overlap.
	MLPMax = 4
	// BranchMissPenalty is the pipeline flush cost in cycles.
	BranchMissPenalty = 15
	// CacheToCachePenalty is the extra latency for a line owned by
	// another core (cross-core snoop forward).
	CacheToCachePenalty = 25
	// AtomicLockCycles is how long an atomic operation locks the L1D.
	AtomicLockCycles = 18
	// TLBLockCycles is how long an uncore-managed page walk locks the
	// L1D (the mechanism behind the paper's Fig. 9 correlation).
	TLBLockCycles = 8
	// PrefetchDegree is how many lines the streamer fetches ahead.
	PrefetchDegree = 2
	// FBRetryCycles is the re-issue penalty after a fill-buffer
	// rejection.
	FBRetryCycles = 2
	// MissIssueCycles is the issue slot cost of an independent offcore
	// miss; the out-of-order core moves on while the fill is pending,
	// so throughput is bounded by the fill buffers, not the miss
	// latency.
	MissIssueCycles = 1
)

// LoadObserver receives every retired load with its use latency; the
// perf layer installs one to implement PEBS load-latency sampling.
type LoadObserver func(core int, vaddr uint64, latency uint64)

type pendingMiss struct {
	line       uint64
	completeAt uint64
}

type coreSim struct {
	id   int
	node int
	// The caches are nil until the core first touches memory; see
	// memCore.
	l1, l2  *cache
	dtlb    *cache
	stlb    *cache
	pf      *streamPrefetcher
	bp      branchPredictor
	pending []pendingMiss
	cycle   uint64
	atomics uint64 // conflict counter for deterministic machine clears
	counts  counters.Counts
}

// Sim is one simulated NUMA machine executing memory and branch
// operations on behalf of the execution engine.
type Sim struct {
	mach      *topology.Machine
	cores     []*coreSim
	l3        []*cache // per socket; nil until one of its cores touches memory
	uncore    []counters.Counts
	lineShift uint
	pageShift uint
	l1Lat     uint64
	l2Lat     uint64
	l3Lat     uint64
	observer  LoadObserver
}

// New builds a simulator for the machine. The machine must validate.
func New(m *topology.Machine) (*Sim, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	l1, _ := m.Cache(1)
	l2, _ := m.Cache(2)
	llc := m.LLC()
	s := &Sim{
		mach:      m,
		lineShift: log2(uint64(m.LineBytes())),
		pageShift: log2(uint64(m.PageBytes)),
		l1Lat:     l1.LatencyCycles,
		l2Lat:     l2.LatencyCycles,
		l3Lat:     llc.LatencyCycles,
	}
	s.cores = make([]*coreSim, m.Cores())
	for i := range s.cores {
		cs := &coreSim{
			id:     i,
			node:   m.NodeOfCore(i),
			pf:     newStreamPrefetcher(m.LineBytes(), m.PageBytes, PrefetchDegree),
			counts: counters.NewCounts(),
		}
		cs.bp.reset()
		s.cores[i] = cs
	}
	s.l3 = make([]*cache, m.Sockets)
	s.uncore = make([]counters.Counts, m.Sockets)
	for n := range s.uncore {
		s.uncore[n] = counters.NewCounts()
	}
	return s, nil
}

// memCore returns a core about to touch memory, first building its
// caches, and its socket's L3, if this is its first access. A run
// touches the cores it has threads on, often a few of a machine's
// dozens, so the caches of the rest (nearly all of a 1-thread
// Haswell-EX engine's memory: three of four 10 MiB L3s) are never
// allocated, and an engine's host memory stays in proportion to its
// run. A cache starts as empty as reset leaves it, so when it is built
// changes no count.
func (s *Sim) memCore(core int) *coreSim {
	cs := s.cores[core]
	if cs.l1 == nil {
		s.buildCaches(cs)
	}
	return cs
}

func (s *Sim) buildCaches(cs *coreSim) {
	m := s.mach
	l1, _ := m.Cache(1)
	l2, _ := m.Cache(2)
	cs.l1 = newCache(l1.Sets(), l1.Ways, false)
	cs.l2 = newCache(l2.Sets(), l2.Ways, false)
	cs.dtlb = newTLB(m.TLB.L1Entries, m.TLB.L1Ways)
	cs.stlb = newTLB(m.TLB.L2Entries, m.TLB.L2Ways)
	if s.l3[cs.node] == nil {
		llc := m.LLC()
		s.l3[cs.node] = newCache(llc.Sets(), llc.Ways, true)
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Machine returns the simulated machine description.
func (s *Sim) Machine() *topology.Machine { return s.mach }

// SetLoadObserver installs (or clears, with nil) the PEBS hook.
func (s *Sim) SetLoadObserver(o LoadObserver) { s.observer = o }

// Reset clears all microarchitectural state and counters so the
// simulator can be reused for another run without reallocating.
func (s *Sim) Reset() {
	for _, cs := range s.cores {
		cs.l1.reset()
		cs.l2.reset()
		cs.dtlb.reset()
		cs.stlb.reset()
		cs.pf.reset()
		cs.bp.reset()
		cs.pending = cs.pending[:0]
		cs.cycle = 0
		cs.atomics = 0
		for i := range cs.counts {
			cs.counts[i] = 0
		}
	}
	for n := range s.l3 {
		s.l3[n].reset()
		for i := range s.uncore[n] {
			s.uncore[n][i] = 0
		}
	}
}

// translate performs the TLB lookup for a virtual page and returns the
// translation penalty in cycles. remote marks pages homed on another
// node: their walks involve the uncore, which locks the L1 data cache
// for the duration — the mechanism behind the paper's Fig. 9
// correlation ("the L1D cache is locked due to TLB page walks by the
// uncore").
func (s *Sim) translate(cs *coreSim, vpage uint64, store, remote bool) uint64 {
	d, hit := cs.dtlb.probe(vpage)
	if hit {
		return 0
	}
	st, hit := cs.stlb.probe(vpage)
	if hit {
		if !store {
			cs.counts[counters.DTLBLoadMissSTLBHit]++
		}
		cs.dtlb.fill(d, vpage, 0)
		return s.mach.TLB.L2HitCycles
	}
	// Full page walk.
	if store {
		cs.counts[counters.DTLBStoreMissWalk]++
	} else {
		cs.counts[counters.DTLBLoadMissWalk]++
	}
	walk := s.mach.TLB.PageWalkCycles
	cs.counts[counters.DTLBWalkDuration] += walk
	cs.counts[counters.PageWalkerLoads] += 2
	if remote {
		cs.counts[counters.CacheLockCycle] += TLBLockCycles
		s.uncore[cs.node][counters.UncTLBLockWalks]++
	}
	cs.stlb.fill(st, vpage, 0)
	cs.dtlb.fill(d, vpage, 0)
	return walk
}

// dramAccess accounts a DRAM access from a core on fromNode to memory
// homed on homeNode and returns its latency.
func (s *Sim) dramAccess(cs *coreSim, homeNode int, write bool) uint64 {
	home := homeNode
	if home < 0 || home >= s.mach.Sockets {
		home = cs.node
	}
	if write {
		s.uncore[home][counters.UncIMCWrite]++
	} else {
		s.uncore[home][counters.UncIMCRead]++
	}
	if home != cs.node {
		// Request travels out on the local socket, in on the home
		// socket; the data response takes the reverse path.
		s.uncore[cs.node][counters.UncQPITx] += 2
		s.uncore[home][counters.UncQPIRx] += 2
		s.uncore[home][counters.UncQPITx] += 2
		s.uncore[cs.node][counters.UncQPIRx] += 2
		if !write {
			s.uncore[home][counters.UncIMCRemoteRd]++
		}
	}
	return s.mach.MemLatencyCycles(cs.node, home)
}

// lfbAdmit models line-fill-buffer admission for an offcore miss. When
// all buffers are busy the demand is rejected (FB_FULL) and the core
// stalls until the earliest outstanding miss completes.
//
// Completed fills leave cs.pending only when it looks full: until then
// fewer than LFBEntries fills can be outstanding, and lfbHit skips
// completed entries.
func (s *Sim) lfbAdmit(cs *coreSim) {
	if len(cs.pending) < s.mach.LFBEntries {
		return
	}
	live := cs.pending[:0]
	for _, p := range cs.pending {
		if p.completeAt > cs.cycle {
			live = append(live, p)
		}
	}
	cs.pending = live
	if len(cs.pending) < s.mach.LFBEntries {
		return
	}
	cs.counts[counters.FBFull]++
	earliest := cs.pending[0].completeAt
	for _, p := range cs.pending[1:] {
		if p.completeAt < earliest {
			earliest = p.completeAt
		}
	}
	if earliest > cs.cycle {
		stall := earliest - cs.cycle
		cs.cycle = earliest
		cs.counts[counters.StallsTotal] += stall
		cs.counts[counters.StallsLDM] += stall
	}
	cs.cycle += FBRetryCycles
}

// lfbHit reports whether a line is already being filled.
func (s *Sim) lfbHit(cs *coreSim, line uint64) bool {
	for _, p := range cs.pending {
		if p.line == line && p.completeAt > cs.cycle {
			return true
		}
	}
	return false
}

// prefetch runs the streamer after a demand L1 miss.
func (s *Sim) prefetch(cs *coreSim, line uint64, homeNode int) {
	for _, pfLine := range cs.pf.observeMiss(line) {
		cs.counts[counters.L2PFRequests]++
		w2, hit := cs.l2.peek(pfLine)
		if hit {
			cs.counts[counters.L2PFHit]++
			continue
		}
		cs.counts[counters.L2PFMiss]++
		cs.counts[counters.OffcoreAllRd]++
		// Prefetches that miss L2 access the L3.
		cs.counts[counters.L3Reference]++
		s.uncore[cs.node][counters.UncLLCLookup]++
		l3 := s.l3[cs.node]
		if w3, hit := l3.probe(pfLine); !hit {
			cs.counts[counters.L3MissRef]++
			s.dramAccess(cs, homeNode, false)
			l3.fill(w3, pfLine, 0)
		}
		cs.l2.fill(w2, pfLine, linePrefetched)
		cs.counts[counters.L2LinesIn]++
	}
}

// Load executes a retired load on the given core. vaddr is the virtual
// address, homeNode the NUMA node owning the backing page, and
// dependent marks serialised (pointer-chase style) loads that cannot
// overlap with other misses. It returns the use latency in cycles —
// the quantity PEBS load-latency sampling reports.
//
// Timing: dependent loads stall the core for their full use latency.
// Independent loads retire out of order — cache hits cost a fraction of
// their latency (overlapped up to the MLP credit) and offcore misses
// cost only their issue slot, with throughput bounded by the line fill
// buffers (a full LFB rejects the demand and stalls the core until the
// oldest miss completes, which is what the FB_FULL counter records).
func (s *Sim) Load(core int, vaddr uint64, homeNode int, dependent bool) uint64 {
	cs := s.memCore(core)
	cs.counts[counters.AllLoads]++
	cs.counts[counters.InstRetired]++
	cs.counts[counters.UopsRetired]++

	walk := s.translate(cs, vaddr>>s.pageShift, false, nodeOf(s, homeNode, cs) != cs.node)
	lat := walk
	line := vaddr >> s.lineShift

	missedL1 := false
	offcore := false
	w1, hit := cs.l1.probe(line)
	switch {
	case hit:
		cs.counts[counters.L1Hit]++
		lat += s.l1Lat
	case s.lfbHit(cs, line):
		cs.counts[counters.L1Miss]++
		cs.counts[counters.HitLFB]++
		missedL1 = true
		lat += s.l2Lat // remaining fill time, approximated
	default:
		missedL1 = true
		cs.counts[counters.L1Miss]++
		s.prefetch(cs, line, homeNode)
		if w2, hit := cs.l2.probe(line); hit {
			cs.counts[counters.L2Hit]++
			cs.counts[counters.L2DemandHit]++
			if cs.l2.tags[w2]&linePrefetched != 0 {
				cs.counts[counters.LoadHitPre]++
				cs.l2.tags[w2] &^= linePrefetched
			}
			lat += s.l2Lat
		} else {
			offcore = true
			cs.counts[counters.L2Miss]++
			cs.counts[counters.L2DemandMiss]++
			cs.counts[counters.OffcoreDemandRd]++
			cs.counts[counters.OffcoreAllRd]++
			cs.counts[counters.L3Reference]++
			s.uncore[cs.node][counters.UncLLCLookup]++
			s.lfbAdmit(cs)
			l3 := s.l3[cs.node]
			if w3, hit := l3.probe(line); hit {
				cs.counts[counters.L3Hit]++
				lat += s.l3Lat
				if o := l3.owner[w3]; o >= 0 && int(o) != core {
					lat += CacheToCachePenalty
				}
			} else {
				cs.counts[counters.L3MissRef]++
				cs.counts[counters.L3Miss]++
				if nodeOf(s, homeNode, cs) == cs.node {
					cs.counts[counters.LocalDRAM]++
				} else {
					cs.counts[counters.RemoteDRAM]++
				}
				lat += s.l3Lat + s.dramAccess(cs, homeNode, false)
				l3.fill(w3, line, 0)
			}
			cs.pending = append(cs.pending, pendingMiss{line: line, completeAt: cs.cycle + lat})
			cs.l2.fill(w2, line, 0)
			cs.counts[counters.L2LinesIn]++
		}
		if cs.l1.fill(w1, line, 0) {
			cs.counts[counters.L1DReplace]++
		}
	}

	// Advance time. Independent loads overlap: offcore misses cost
	// only their issue slot (the LFB admission above provides the real
	// throughput bound) and page walks overlap with execution except
	// for a quarter of their duration.
	var visible uint64
	switch {
	case dependent:
		visible = lat
	case offcore:
		visible = MissIssueCycles + walk/4
	case missedL1:
		visible = (lat - walk) / MLPMax
	default:
		visible = 1 + walk/4
	}
	if visible < 1 {
		visible = 1
	}
	cs.cycle += visible
	if missedL1 {
		cs.counts[counters.L1DPendMiss] += lat
		if visible > 1 {
			cs.counts[counters.StallsTotal] += visible - 1
			cs.counts[counters.StallsLDM] += visible - 1
			if offcore {
				cs.counts[counters.StallsL2] += visible - 1
			}
		}
	}
	if s.observer != nil {
		s.observer(core, vaddr, lat)
	}
	return lat
}

func nodeOf(s *Sim, homeNode int, cs *coreSim) int {
	if homeNode < 0 || homeNode >= s.mach.Sockets {
		return cs.node
	}
	return homeNode
}

// Store executes a retired store (write-allocate, store-buffered so it
// costs the core a single cycle unless translation stalls it).
func (s *Sim) Store(core int, vaddr uint64, homeNode int) {
	cs := s.memCore(core)
	cs.counts[counters.AllStores]++
	cs.counts[counters.InstRetired]++
	cs.counts[counters.UopsRetired]++

	penalty := s.translate(cs, vaddr>>s.pageShift, true, nodeOf(s, homeNode, cs) != cs.node)
	line := vaddr >> s.lineShift

	w1, hit := cs.l1.probe(line)
	if hit {
		cs.cycle += 1 + penalty
		s.markOwner(cs, line)
		return
	}
	// RFO: fetch the line for ownership.
	if w2, hit := cs.l2.probe(line); !hit {
		cs.counts[counters.OffcoreAllRd]++
		cs.counts[counters.L3Reference]++
		s.uncore[cs.node][counters.UncLLCLookup]++
		l3 := s.l3[cs.node]
		if w3, hit := l3.probe(line); !hit {
			cs.counts[counters.L3MissRef]++
			s.dramAccess(cs, homeNode, false)
			// Allocating store traffic eventually writes back.
			s.dramAccess(cs, homeNode, true)
			l3.fill(w3, line, 0) // markOwner below records the writer
		}
		cs.l2.fill(w2, line, 0)
		cs.counts[counters.L2LinesIn]++
	}
	if cs.l1.fill(w1, line, 0) {
		cs.counts[counters.L1DReplace]++
	}
	s.markOwner(cs, line)
	cs.cycle += 1 + penalty
}

// markOwner records the writing core in the socket L3 so later readers
// on other cores pay the cache-to-cache penalty.
func (s *Sim) markOwner(cs *coreSim, line uint64) {
	l3 := s.l3[cs.node]
	if w, hit := l3.peek(line); hit {
		l3.owner[w] = int16(cs.id)
	}
}

// Atomic executes a locked read-modify-write. A line last written by
// another core is stale in the local caches: the private copies are
// invalidated first, so the load pays the cache-to-cache transfer, and
// every fourth such conflict triggers a memory-ordering machine clear —
// the false-sharing ping-pong signature.
func (s *Sim) Atomic(core int, vaddr uint64, homeNode int) uint64 {
	cs := s.memCore(core)
	cs.counts[counters.LockLoads]++

	l3 := s.l3[cs.node]
	line := vaddr >> s.lineShift
	conflict := false
	if w, hit := l3.peek(line); hit {
		if o := l3.owner[w]; o >= 0 && int(o) != core {
			conflict = true
			cs.l1.invalidate(line)
			cs.l2.invalidate(line)
		}
	}
	lat := s.Load(core, vaddr, homeNode, true)
	cs.counts[counters.CacheLockCycle] += AtomicLockCycles
	cs.cycle += AtomicLockCycles
	if conflict {
		cs.atomics++
		if cs.atomics%4 == 0 {
			cs.counts[counters.MachineClearsMO]++
			cs.cycle += BranchMissPenalty
		}
	}
	if w, hit := l3.peek(line); hit {
		l3.owner[w] = int16(core)
	}
	cs.counts[counters.AllStores]++
	cs.counts[counters.UopsRetired]++
	return lat + AtomicLockCycles
}

// Instr accounts n non-memory instructions (retiring 2 per cycle).
func (s *Sim) Instr(core int, n uint64) {
	cs := s.cores[core]
	cs.counts[counters.InstRetired] += n
	cs.counts[counters.UopsRetired] += n
	cs.cycle += (n + 1) / 2
}

// Branch executes a conditional branch at a static site.
func (s *Sim) Branch(core int, site uint16, taken bool) {
	cs := s.cores[core]
	cs.counts[counters.BranchRetired]++
	cs.counts[counters.InstRetired]++
	cs.counts[counters.UopsRetired]++
	predicted := cs.bp.predictAndUpdate(site, taken)
	if predicted != taken {
		cs.counts[counters.BranchMiss]++
		cs.cycle += BranchMissPenalty
		if taken {
			// Resolved late, executed non-speculatively.
			cs.counts[counters.SpecTakenJumps]++
		}
	} else if taken {
		// Correctly predicted taken jumps execute speculatively ahead
		// of retirement and again count at retirement.
		cs.counts[counters.SpecTakenJumps] += 2
	}
	cs.cycle++
}

// AddEvent adds n occurrences of an event on a core; the engine uses
// this for software events (page faults, allocations, barrier waits)
// that the hardware simulation does not produce itself.
func (s *Sim) AddEvent(core int, id counters.EventID, n uint64) {
	s.cores[core].counts[id] += n
}

// Cycles returns the current cycle count of a core.
func (s *Sim) Cycles(core int) uint64 { return s.cores[core].cycle }

// MaxCycles returns the makespan: the largest core cycle count.
func (s *Sim) MaxCycles() uint64 {
	var max uint64
	for _, cs := range s.cores {
		if cs.cycle > max {
			max = cs.cycle
		}
	}
	return max
}

// AdvanceTo moves an idle core's clock forward (used by the scheduler
// for barrier waits). It never moves a clock backwards.
func (s *Sim) AdvanceTo(core int, cycle uint64) {
	cs := s.cores[core]
	if cycle > cs.cycle {
		cs.counts[counters.StallsTotal] += cycle - cs.cycle
		cs.cycle = cycle
	}
}

// Finalize derives the end-of-run counters (cycle counts, instruction
// cache background misses, package energy) and must be called once
// after the workload completes.
func (s *Sim) Finalize() {
	for _, cs := range s.cores {
		cs.counts[counters.CPUCycles] = cs.cycle
		cs.counts[counters.RefCycles] = cs.cycle
		cs.counts[counters.ICacheMisses] = cs.counts[counters.InstRetired] / 50000
	}
	for n := range s.uncore {
		var cyc, mem uint64
		for _, cs := range s.cores {
			if cs.node == n {
				cyc += cs.cycle
			}
		}
		mem = s.uncore[n][counters.UncIMCRead] + s.uncore[n][counters.UncIMCWrite]
		// Package energy in µJ: static+dynamic core power plus DRAM
		// traffic, scaled to plausible Haswell-EX magnitudes.
		s.uncore[n][counters.UncPkgEnergy] = cyc/25 + mem/2
	}
}

// CoreCounts returns the live counter vector of one core (not a copy).
func (s *Sim) CoreCounts(core int) counters.Counts { return s.cores[core].counts }

// UncoreCounts returns the live uncore counter vector of one socket.
func (s *Sim) UncoreCounts(socket int) counters.Counts { return s.uncore[socket] }

// TotalCounts aggregates all core and uncore counters into one vector.
func (s *Sim) TotalCounts() counters.Counts {
	total := counters.NewCounts()
	for _, cs := range s.cores {
		total.Add(cs.counts)
	}
	for _, u := range s.uncore {
		total.Add(u)
	}
	return total
}

// String describes the simulator configuration.
func (s *Sim) String() string {
	return fmt.Sprintf("memsim(%s: %d cores, %d sockets)", s.mach.Name, s.mach.Cores(), s.mach.Sockets)
}
