// Package workloads implements the programs the paper measures:
// the cache-miss micro-benchmarks of Listings 1 and 2, the parallel
// sort of Listing 3 (LCG-filled, GNU-parallel-mode style), a
// NUMA-optimised SIFT-like image pyramid, an Intel-mlc-like latency
// checker, and the phase-structured applications Phasenprüfer splits.
// Workload code emits operations through exec.Thread; it models the
// access patterns and branch behaviour of the originals rather than
// computing their actual results.
package workloads

import (
	"fmt"

	"numaperf/internal/exec"
)

// Workload is a runnable program for the engine.
type Workload interface {
	// Name identifies the workload (used by CLI tools and reports).
	Name() string
	// Body returns the SPMD thread body.
	Body() func(*exec.Thread)
}

// lcg is the BSD linear congruential engine from Listing 3, reused
// wherever the originals use pseudo-random data.
type lcg struct{ state uint32 }

func newLCG(seed uint32) *lcg { return &lcg{state: seed} }

func (l *lcg) next() uint32 {
	l.state = l.state*1103515245 + 12345
	return l.state
}

// bits returns the top 16 bits, the usable part of an LCG.
func (l *lcg) bits() uint32 { return l.next() >> 16 }

// chance returns true with probability p/256.
func (l *lcg) chance(p uint32) bool { return l.bits()%256 < p }

// sattoloWalk calls visit for hops lines of a dependent pointer chase
// over [0, lines). The chase follows a single-cycle permutation
// (Sattolo's algorithm, driven by an LCG from seed), so it visits every
// line exactly once per lap in an unpredictable order. A chase through
// next[perm[i]] = perm[i+1] from perm[0] visits perm in order, so the
// walk reads perm with an index that wraps at lines.
func sattoloWalk(lines uint64, seed uint32, hops int, visit func(line uint64)) {
	perm := make([]uint64, lines)
	for i := range perm {
		perm[i] = uint64(i)
	}
	rng := newLCG(seed)
	for i := lines - 1; i > 0; i-- {
		j := uint64(rng.next()) % i
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, k := 0, 0; i < hops; i++ {
		visit(perm[k])
		if k++; k == len(perm) {
			k = 0
		}
	}
}

// Branch site IDs. Keeping them distinct per logical branch mirrors
// PC-indexed prediction; unrelated workloads may share IDs without harm
// because the engine resets predictor state between runs.
const (
	siteAltSum     = 1 // the y%2 / x%2 alternating-sum branch
	siteLoopBound  = 2 // inner loop back-edge
	siteSortLocal  = 3 // comparison during thread-local sort passes
	siteSortMerge  = 4 // comparison during cross-thread merges
	siteSiftThresh = 5 // DoG extremum threshold test
	sitePhaseIO    = 6 // ramp-up I/O readiness poll
)

func label(name string, kv ...any) string {
	s := name
	for i := 0; i+1 < len(kv); i += 2 {
		s += fmt.Sprintf(" %v=%v", kv[i], kv[i+1])
	}
	return s
}
