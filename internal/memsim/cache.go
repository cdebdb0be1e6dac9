// Package memsim is the execution-driven NUMA machine simulator that
// substitutes for the paper's Haswell-EX testbed. It models, per core,
// a set-associative L1/L2, a DTLB/STLB with page walks, line fill
// buffers with rejection, a page-bounded stream prefetcher and a 2-bit
// branch predictor; per socket, a shared L3 and uncore counters (LLC
// lookups, IMC traffic, QPI flits, package energy); and across sockets,
// DRAM latencies derived from the SLIT distance matrix. Every access
// updates the hardware event counters defined in internal/counters,
// which is what makes the paper's tools measurable without real PMU
// hardware.
//
// Two simplifications of the cache model are deliberate for now, since
// fixing either moves every recorded counter:
//
//   - The L3 is not inclusive: evicting a line from it leaves the L1
//     and L2 copies in place.
//   - A cache picks a set with line & (sets-1). Where the set count is
//     not a power of two, as for the 40960-set Haswell-EX L3, only the
//     sets whose index bits fall inside sets-1 (0x9FFF there: 16384 of
//     them) are ever used, so the 45 MiB L3 holds 18 MiB.
package memsim

import "math"

// Tag word layout: the line address (or page number, in a TLB; either
// is below 2⁶²) shifted left by two, above two state bits. A zero word
// is an empty way.
const (
	lineValid      = 1 << 0
	linePrefetched = 1 << 1
)

// cache is a set-associative cache with LRU replacement, stored as a
// structure of arrays to keep per-run allocation and reset cheap. It
// backs the L1, L2 and L3 (keyed by line address) and both TLB levels
// (keyed by virtual page number).
//
// A lookup is probe (or peek, which does not touch LRU state); on a
// miss it returns the way fill should replace, so the caller fills it
// without a second search once the lower levels have answered. That
// slot is good for a fill only until the cache is next probed, filled
// or invalidated.
type cache struct {
	tags    []uint64 // tag word per way slot
	use     []uint32 // LRU stamp per way slot; read only for valid ways
	owner   []int16  // last writing core per way slot (socket L3s only)
	ways    int
	setMask uint64
	clock   uint32 // last stamp handed out; 0 until the first since reset
	// last is the slot stamped last and lastLine the line it holds
	// (noLine: no memo). That slot holds the largest stamp, so a probe
	// of its line may skip the restamp: it would not change any LRU
	// comparison.
	last     int
	lastLine uint64
	// filled logs the first slot of every set filled while that set was
	// empty, so reset clears only those sets. A set gains its first line
	// in way 0 (a miss fills the first empty way), so the log names
	// every set that can hold a line; a refill of an invalidated way 0
	// logs its set again. The log holds a quarter of the sets and is
	// allocated at the first reset, so a cache used for one run
	// allocates nothing for it. overflow marks a log that ran out of
	// room, as one not allocated yet has none: fills stop logging, and
	// reset clears every set.
	filled   []int32
	overflow bool
}

// noLine is a lastLine no line address can equal.
const noLine = math.MaxUint64

func newCache(sets, ways int, owners bool) *cache {
	n := sets * ways
	c := &cache{
		tags:     make([]uint64, n),
		use:      make([]uint32, n),
		ways:     ways,
		setMask:  uint64(sets - 1),
		lastLine: noLine,
	}
	if owners {
		c.owner = make([]int16, n)
	}
	return c
}

// newTLB builds a translation buffer: a cache keyed by virtual page
// number.
func newTLB(entries, ways int) *cache {
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	return newCache(sets, ways, false)
}

// reset empties the cache. A cache not built yet (nil) or stamped
// nothing since the last reset holds no valid line and is left alone.
// Otherwise it clears the sets its log names, or every set once the
// log has overflowed, as it has in a cache never reset before.
func (c *cache) reset() {
	if c == nil || c.clock == 0 {
		return
	}
	if c.overflow {
		clear(c.tags)
	} else {
		for _, base := range c.filled {
			clear(c.tags[base : int(base)+c.ways])
		}
	}
	if c.filled == nil {
		c.filled = make([]int32, 0, len(c.tags)/c.ways/4)
	}
	c.filled, c.overflow = c.filled[:0], false
	c.clock = 0
	c.lastLine = noLine
}

// probe looks a line up. On a hit it marks the slot most recently used
// and returns it; on a miss it returns the slot fill should replace:
// the set's first invalid way, else its least recently used one.
func (c *cache) probe(line uint64) (int, bool) {
	if line != c.lastLine {
		return c.scan(line, true)
	}
	return c.last, true
}

// peek is probe without the LRU update (prefetch and ownership probes
// must not perturb replacement decisions).
func (c *cache) peek(line uint64) (int, bool) {
	if line != c.lastLine {
		return c.scan(line, false)
	}
	return c.last, true
}

// scan searches line's set, stamping a hit when stamp is set. On a
// miss it returns the victim. probe and peek check the memo themselves
// and stay small enough to inline, so a memo hit costs no call.
func (c *cache) scan(line uint64, stamp bool) (int, bool) {
	key := line<<2 | lineValid
	base := int(line&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	for w, t := range tags {
		if t&^linePrefetched == key {
			if stamp {
				c.roll()
				c.stamp(base+w, line)
			}
			return base + w, true
		}
	}
	// The victim search runs only on a miss, in a loop of its own: the
	// hit loop stays a bare compare. Its minimum is taken over
	// stamp<<32|way, which ties to the lower way as a strict < scan
	// would, and compiles to a conditional move instead of a branch
	// that the random stamp order of a full set keeps mispredicting.
	use := c.use[base : base+c.ways]
	oldest := uint64(math.MaxUint64)
	for w, t := range tags {
		if t&lineValid == 0 {
			return base + w, false
		}
		oldest = min(oldest, uint64(use[w])<<32|uint64(w))
	}
	return base + int(uint32(oldest)), false
}

// fill places a line in the slot a probe or peek of it returned on a
// miss, marks it most recently used and reports whether it evicted a
// valid line. bits is 0 or linePrefetched. An owner-tracking cache
// starts the line with no owner.
func (c *cache) fill(slot int, line, bits uint64) (evicted bool) {
	evicted = c.tags[slot]&lineValid != 0
	if !evicted && !c.overflow && slot == int(line&c.setMask)*c.ways {
		if len(c.filled) < cap(c.filled) {
			c.filled = append(c.filled, int32(slot))
		} else {
			c.overflow = true
		}
	}
	c.tags[slot] = line<<2 | bits | lineValid
	c.roll()
	c.stamp(slot, line)
	if c.owner != nil {
		c.owner[slot] = -1
	}
	return evicted
}

// stamp marks slot, which holds line, most recently used and makes it
// the memo. Call roll first: apart, the two inline into scan and fill
// (every probe's hit path and every miss), together they would not.
func (c *cache) stamp(slot int, line uint64) {
	c.clock++
	c.use[slot], c.last, c.lastLine = c.clock, slot, line
}

// roll renumbers the stamps when the clock has reached its maximum, so
// the next stamp cannot wrap it.
func (c *cache) roll() {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
}

// renumber replaces the stamps of each set's valid ways by their rank
// in the set (1 = least recently used) and restarts the clock above the
// largest rank. Only the order within a set decides a victim, so no
// LRU decision changes. It runs once every 2³² stamps, before the clock
// would wrap and make new stamps look older than old ones.
func (c *cache) renumber() {
	var top uint32
	rank := make([]uint32, c.ways)
	for base := 0; base < len(c.tags); base += c.ways {
		tags, use := c.tags[base:base+c.ways], c.use[base:base+c.ways]
		for w, t := range tags {
			rank[w] = 0
			if t&lineValid == 0 {
				continue
			}
			rank[w] = 1
			for v, u := range tags {
				if u&lineValid != 0 && use[v] < use[w] {
					rank[w]++
				}
			}
			top = max(top, rank[w])
		}
		copy(use, rank)
	}
	c.clock = top
	c.lastLine = noLine
}

// invalidate removes a line if present.
func (c *cache) invalidate(line uint64) {
	if slot, hit := c.peek(line); hit {
		c.tags[slot] = 0
		if slot == c.last {
			c.lastLine = noLine
		}
	}
}

// occupancy returns the number of valid lines (test helper, O(n)).
func (c *cache) occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t&lineValid != 0 {
			n++
		}
	}
	return n
}
