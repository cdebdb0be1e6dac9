package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"numaperf/internal/counters"
	"numaperf/internal/topology"
)

// Cross-package invariants of the simulator, checked on randomised
// access streams.

// Load-source events partition all loads: L1 hits + LFB hits + L2 hits
// + L3 hits + DRAM loads = all loads.
func TestLoadSourcePartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(topology.TwoSocket())
		if err != nil {
			return false
		}
		for i := 0; i < 5000; i++ {
			addr := uint64(rng.Intn(1 << 22))
			s.Load(0, addr, rng.Intn(2), rng.Intn(4) == 0)
		}
		c := s.CoreCounts(0)
		sources := c.Get(counters.L1Hit) + c.Get(counters.HitLFB) +
			c.Get(counters.L2Hit) + c.Get(counters.L3Hit) +
			c.Get(counters.LocalDRAM) + c.Get(counters.RemoteDRAM)
		return sources == c.Get(counters.AllLoads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Miss hierarchies nest: L3 misses ≤ L2 misses ≤ L1 misses ≤ loads.
func TestMissHierarchyNesting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(topology.TwoSocket())
		if err != nil {
			return false
		}
		for i := 0; i < 5000; i++ {
			s.Load(0, uint64(rng.Intn(1<<24)), 0, false)
		}
		c := s.CoreCounts(0)
		l1, l2, l3 := c.Get(counters.L1Miss), c.Get(counters.L2Miss), c.Get(counters.L3Miss)
		return l3 <= l2 && l2 <= l1 && l1 <= c.Get(counters.AllLoads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// QPI flit accounting balances: total transmitted equals total
// received across all sockets.
func TestQPIFlitBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(topology.EightSocketGlueless())
		if err != nil {
			return false
		}
		for i := 0; i < 3000; i++ {
			core := rng.Intn(s.Machine().Cores())
			s.Load(core, uint64(rng.Intn(1<<25)), rng.Intn(8), false)
		}
		var tx, rx uint64
		for n := 0; n < s.Machine().Sockets; n++ {
			tx += s.UncoreCounts(n).Get(counters.UncQPITx)
			rx += s.UncoreCounts(n).Get(counters.UncQPIRx)
		}
		return tx == rx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Multi-hop latency ordering on the glueless 8-socket machine:
// local < 1-hop < 2-hop for dependent cold loads.
func TestMultiHopLatencyOrdering(t *testing.T) {
	s, err := New(topology.EightSocketGlueless())
	if err != nil {
		t.Fatal(err)
	}
	m := s.Machine()
	// Find a 1-hop and a 2-hop peer of node 0.
	oneHop, twoHop := -1, -1
	for n := 1; n < m.Sockets; n++ {
		switch m.NodeDistance(0, n) {
		case 21:
			oneHop = n
		case 31:
			twoHop = n
		}
	}
	if oneHop < 0 || twoHop < 0 {
		t.Fatal("topology lacks 1-hop/2-hop peers")
	}
	lat := func(home int, base uint64) uint64 {
		var sum uint64
		for i := uint64(0); i < 64; i++ {
			sum += s.Load(0, base+i*4096, home, true)
		}
		return sum
	}
	local := lat(0, 0)
	one := lat(oneHop, 1<<30)
	two := lat(twoHop, 1<<31)
	if !(local < one && one < two) {
		t.Errorf("latency ordering violated: local=%d 1hop=%d 2hop=%d", local, one, two)
	}
}

// Stores never change load-source counters.
func TestStoresDoNotCountAsLoads(t *testing.T) {
	s, err := New(topology.TwoSocket())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2048; i++ {
		s.Store(0, i*64, 0)
	}
	c := s.CoreCounts(0)
	for _, id := range []counters.EventID{
		counters.AllLoads, counters.L1Hit, counters.L1Miss,
		counters.L3Hit, counters.LocalDRAM, counters.RemoteDRAM,
	} {
		if c.Get(id) != 0 {
			t.Errorf("%s = %d after store-only stream", counters.Def(id).Name, c.Get(id))
		}
	}
}

// Cache occupancy never exceeds capacity.
func TestCacheOccupancyBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCache(8, 4, false)
		for i := 0; i < 500; i++ {
			insert(c, uint64(rng.Intn(4096)))
		}
		return c.occupancy() <= 8*4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// An inserted line is immediately findable; after filling its set with
// `ways` other lines it is gone (LRU with no touches).
func TestCacheInsertLookupEvict(t *testing.T) {
	c := newCache(16, 4, false)
	const line = 0x100 // set 0
	insert(c, line)
	if _, hit := c.peek(line); !hit {
		t.Fatal("inserted line not found")
	}
	for i := uint64(1); i <= 4; i++ {
		insert(c, line+i*16) // same set
	}
	if _, hit := c.peek(line); hit {
		t.Error("LRU line survived 4 insertions into a 4-way set")
	}
}

// Energy accounting is monotone in work.
func TestEnergyMonotone(t *testing.T) {
	run := func(n int) uint64 {
		s, _ := New(topology.TwoSocket())
		for i := 0; i < n; i++ {
			s.Load(0, uint64(i)*64, 0, false)
		}
		s.Finalize()
		return s.UncoreCounts(0).Get(counters.UncPkgEnergy)
	}
	if run(20000) <= run(2000) {
		t.Error("more work must consume more energy")
	}
}
