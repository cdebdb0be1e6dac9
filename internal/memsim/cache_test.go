package memsim

import (
	"math"
	"testing"
)

// 2³² stamps in one cache must not wrap its uint32 LRU clock: a wrapped
// stamp compares older than every other, and LRU would evict the line
// it had just brought in.
func TestCacheClockWrap(t *testing.T) {
	c := newCache(1, 2, false)
	c.clock = math.MaxUint32 - 1
	insert(c, 10)
	insert(c, 20) // the stamp that would wrap
	if !insert(c, 30) {
		t.Fatal("third line in a 2-way set must evict")
	}
	if _, hit := c.peek(20); !hit {
		t.Error("inserting 30 evicted 20, the line inserted just before it")
	}
	if _, hit := c.peek(10); hit {
		t.Error("10, the least recently used line, survived")
	}
}

// TestResetClearsFilledSets fills k sets of a 64-set cache, whose log
// holds 16 sets, with k below and above that, and requires every tag
// word to be zero after each reset. Way 0 of every third filled set is
// invalidated and refilled in between, so the log holds duplicates and
// can overflow before k reaches 16. The first reset of every cache must
// take the full clear.
func TestResetClearsFilledSets(t *testing.T) {
	const sets, ways = 64, 4
	logCap := sets / 4
	for _, k := range []int{0, 1, 5, 12, 13, 16, 17, 40, 64} {
		c := newCache(sets, ways, false)
		for run := 0; run < 3; run++ {
			logged := 0
			for s := 0; s < k; s++ {
				// ways+2 lines: the last two evict, which logs nothing.
				for j := 0; j < ways+2; j++ {
					insert(c, uint64(s+j*sets))
				}
				logged++
			}
			for s := 0; s < k; s += 3 {
				c.invalidate(uint64(s + 4*sets)) // the line in way 0
				insert(c, uint64(s))
				logged++
			}
			wantFull := k > 0 && (run == 0 || logged > logCap)
			if c.overflow != wantFull {
				t.Errorf("k=%d run %d: full clear=%v, want %v (%d fills logged, room for %d; first reset: %v)",
					k, run, c.overflow, wantFull, logged, logCap, run == 0)
			}
			if got := c.occupancy(); got != k*ways {
				t.Fatalf("k=%d run %d: %d lines before reset, want %d", k, run, got, k*ways)
			}
			c.reset()
			for i, tag := range c.tags {
				if tag != 0 {
					t.Fatalf("k=%d run %d: tag word %d (set %d) is %#x after reset", k, run, i, i/ways, tag)
				}
			}
		}
	}
}

// fuzzSets are the set counts FuzzCacheEquivalence draws from: one set,
// powers of two, and counts whose mask leaves sets unreachable, among
// them the Haswell-EX L3's 40960.
var fuzzSets = []int{1, 2, 3, 4, 5, 12, 16, 40, 64, 40960}

// FuzzCacheEquivalence drives one op stream through cache and through
// refCache, the cache it replaced, and requires that after every op
// both agree on hit or miss, the slot (the victim, on a miss), the
// evicted flag, and the touched set's valid lines, prefetched bits,
// owners and LRU order. Set and way counts, owner tracking and a start
// just below the clock's wrap come from the input; the reference model
// starts its clock at zero, so the wrap-time renumbering must keep every
// decision the same too.
//
// Each op takes three bytes. The line has its set bits from the second
// byte and a tag from the third, above bit 15 (outside every set mask),
// sometimes with bit 61 set to exercise the top of the tag word.
func FuzzCacheEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, []byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 6, 0, 0, 2, 0, 4})
	f.Add(uint8(0x89), uint8(17), true, []byte{0, 1, 1, 2, 1, 2, 3, 1, 1, 5, 1, 7, 4, 1, 2, 15, 0, 0, 0, 1, 3})
	f.Add(uint8(0x04), uint8(3), true, []byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 6, 0, 0, 0, 0, 0, 0, 0, 4})
	// 16 sets, whose log holds 4: a first reset (full clear), a reset of
	// three logged sets, one of a duplicate-holding log, and one of an
	// overflowed log, with fills that miss and evict in between.
	f.Add(uint8(0x06), uint8(1), false, []byte{
		0, 0, 1, 0, 1, 1, 7, 0, 0,
		0, 0, 1, 0, 1, 1, 0, 2, 1, 1, 0, 2, 7, 4, 0,
		0, 3, 1, 4, 3, 1, 0, 3, 2, 0, 3, 3, 7, 0, 0,
		0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 1, 7, 0, 0,
		0, 7, 1, 0, 7, 2, 0, 7, 3,
	})
	f.Fuzz(func(t *testing.T, geometry, ways uint8, nearWrap bool, ops []byte) {
		sets, nWays := fuzzSets[int(geometry&0x7f)%len(fuzzSets)], 1+int(ways)%18
		owners := geometry&0x80 != 0
		c, ref := newCache(sets, nWays, owners), newRefCache(sets, nWays)
		if nearWrap {
			c.clock = math.MaxUint32 - uint32(len(ops)%7)
		}
		var prev uint64
		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			line := uint64(a&7) | uint64(b&31)<<16 | uint64(a>>7)<<61
			if op%16 == 6 {
				line = prev // probe the line stamped last: the memo
			}
			prev = line
			switch op % 16 {
			case 0, 1, 6, 8, 9, 10:
				// Demand: probe, fill on a miss.
				slot, hit := c.probe(line)
				want := ref.lookup(line)
				if hit != (want >= 0) {
					t.Fatalf("op %d: probe(%#x) hit=%v, reference hit=%v", i/3, line, hit, want >= 0)
				}
				if !hit {
					var ev bool
					want, ev = ref.insert(line, 0, -1)
					if got := c.fill(slot, line, 0); got != ev {
						t.Fatalf("op %d: fill(%#x) evicted=%v, reference %v", i/3, line, got, ev)
					}
				}
				if slot != want {
					t.Fatalf("op %d: probe(%#x) slot %d, reference %d", i/3, line, slot, want)
				}
			case 2, 11:
				// Prefetch: peek, fill a miss with the prefetched bit.
				slot, hit := c.peek(line)
				want := ref.peek(line)
				if hit != (want >= 0) {
					t.Fatalf("op %d: peek(%#x) hit=%v, reference hit=%v", i/3, line, hit, want >= 0)
				}
				if !hit {
					var ev bool
					want, ev = ref.insert(line, refLinePrefetched, -1)
					if got := c.fill(slot, line, linePrefetched); got != ev {
						t.Fatalf("op %d: prefetch fill(%#x) evicted=%v, reference %v", i/3, line, got, ev)
					}
				}
				if slot != want {
					t.Fatalf("op %d: peek(%#x) slot %d, reference %d", i/3, line, slot, want)
				}
			case 3, 12:
				// Demand hit on a prefetched line clears the bit.
				slot, hit := c.probe(line)
				want := ref.lookup(line)
				if hit != (want >= 0) || hit && slot != want {
					t.Fatalf("op %d: probe(%#x) = %d/%v, reference %d", i/3, line, slot, hit, want)
				}
				if hit {
					c.tags[slot] &^= linePrefetched
					ref.flags[want] &^= refLinePrefetched
				}
			case 4, 13:
				c.invalidate(line)
				ref.invalidate(line)
			case 5, 14:
				// A store marks its core as the L3 owner.
				slot, hit := c.peek(line)
				want := ref.peek(line)
				if hit != (want >= 0) || hit && slot != want {
					t.Fatalf("op %d: peek(%#x) = %d/%v, reference %d", i/3, line, slot, hit, want)
				}
				if hit && owners {
					c.owner[slot] = int16(b >> 5)
					ref.owner[want] = int16(b >> 5)
				}
			case 7:
				if a%4 != 0 {
					continue
				}
				c.reset()
				ref.reset()
				if got, want := c.occupancy(), ref.occupancy(); got != want {
					t.Fatalf("op %d: occupancy %d after reset, reference %d", i/3, got, want)
				}
			}
			compareSet(t, i/3, c, ref, line, owners)
		}
		if got, want := c.occupancy(), ref.occupancy(); got != want {
			t.Fatalf("occupancy %d, reference %d", got, want)
		}
	})
}

// compareSet requires that line's set holds the same lines in the same
// ways with the same prefetched bits, owners and LRU order in c as in
// ref. Only that set can have changed since the last comparison.
func compareSet(t *testing.T, op int, c *cache, ref *refCache, line uint64, owners bool) {
	t.Helper()
	base := int(line&c.setMask) * c.ways
	for v := base; v < base+c.ways; v++ {
		valid := c.tags[v]&lineValid != 0
		if valid != (ref.flags[v]&refLineValid != 0) {
			t.Fatalf("op %d: slot %d valid=%v, reference %v", op, v, valid, !valid)
		}
		if !valid {
			continue
		}
		if c.tags[v]>>2 != ref.tags[v] {
			t.Fatalf("op %d: slot %d holds %#x, reference %#x", op, v, c.tags[v]>>2, ref.tags[v])
		}
		if pf := c.tags[v]&linePrefetched != 0; pf != (ref.flags[v]&refLinePrefetched != 0) {
			t.Fatalf("op %d: slot %d prefetched=%v, reference %v", op, v, pf, !pf)
		}
		if owners && c.owner[v] != ref.owner[v] {
			t.Fatalf("op %d: slot %d owner %d, reference %d", op, v, c.owner[v], ref.owner[v])
		}
		for w := base; w < base+c.ways; w++ {
			if c.tags[w]&lineValid != 0 && (c.use[v] < c.use[w]) != (ref.use[v] < ref.use[w]) {
				t.Fatalf("op %d: LRU order of slots %d and %d differs from the reference", op, v, w)
			}
		}
	}
}
