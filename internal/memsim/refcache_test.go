package memsim

// refCache is the reference model FuzzCacheEquivalence holds cache to:
// memsim's earlier cache, verbatim but for identifier names, with
// separate flag bytes, a lookup and an insert that each scan the set,
// and no memo. Do not optimise it; its worth is being the plain LRU.

// cacheFlags bit layout.
const (
	refLineValid      = 1 << 0
	refLinePrefetched = 1 << 1
	refLineDirty      = 1 << 2
)

// refCache is a set-associative cache with LRU replacement, stored as a
// structure of arrays to keep per-run allocation and reset cheap.
type refCache struct {
	tags    []uint64 // line address per way slot
	use     []uint32 // LRU timestamp per way slot
	flags   []uint8
	owner   []int16 // last writing core (LLC coherence approximation)
	sets    int
	ways    int
	setMask uint64
	clock   uint32
}

func newRefCache(sets, ways int) *refCache {
	n := sets * ways
	return &refCache{
		tags:    make([]uint64, n),
		use:     make([]uint32, n),
		flags:   make([]uint8, n),
		owner:   make([]int16, n),
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
	}
}

func (c *refCache) reset() {
	for i := range c.flags {
		c.flags[i] = 0
	}
	c.clock = 0
}

// lookup probes the cache for a line address and returns the way slot
// index on a hit (updating LRU state), or -1.
func (c *refCache) lookup(lineAddr uint64) int {
	base := int(lineAddr&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.flags[i]&refLineValid != 0 && c.tags[i] == lineAddr {
			c.clock++
			c.use[i] = c.clock
			return i
		}
	}
	return -1
}

// peek is lookup without the LRU update (used by prefetch probes that
// must not perturb replacement decisions).
func (c *refCache) peek(lineAddr uint64) int {
	base := int(lineAddr&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.flags[i]&refLineValid != 0 && c.tags[i] == lineAddr {
			return i
		}
	}
	return -1
}

// insert places a line into the cache, evicting the LRU way if the set
// is full. It returns the slot index and whether a valid line was
// evicted.
func (c *refCache) insert(lineAddr uint64, fl uint8, owner int16) (slot int, evicted bool) {
	base := int(lineAddr&c.setMask) * c.ways
	victim := base
	var victimUse uint32 = ^uint32(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.flags[i]&refLineValid == 0 {
			victim, evicted = i, false
			goto place
		}
		if c.use[i] < victimUse {
			victimUse = c.use[i]
			victim = i
		}
	}
	evicted = true
place:
	c.clock++
	c.tags[victim] = lineAddr
	c.use[victim] = c.clock
	c.flags[victim] = refLineValid | fl
	c.owner[victim] = owner
	return victim, evicted
}

// invalidate removes a line if present.
func (c *refCache) invalidate(lineAddr uint64) {
	if i := c.peek(lineAddr); i >= 0 {
		c.flags[i] = 0
	}
}

// occupancy returns the number of valid lines (test helper, O(n)).
func (c *refCache) occupancy() int {
	n := 0
	for _, f := range c.flags {
		if f&refLineValid != 0 {
			n++
		}
	}
	return n
}
