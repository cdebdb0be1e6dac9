package workloads

import "numaperf/internal/exec"

// The reference models TestChaseBodiesMatchReference and FuzzChaseOrder
// hold the chase workloads to: MLC.Body and PointerChase.Body as they
// were before sattoloWalk, verbatim, building a next array and chasing
// it on the host. Do not optimise them; their worth is being the plain
// pointer chase.

func refMLCBody(m MLC) func(*exec.Thread) {
	size := m.bufferBytes()
	chases := m.chases()
	remote := m.Remote
	remoteNode := m.RemoteNode
	return func(t *exec.Thread) {
		if t.ID() != 0 {
			return // mlc idle latency is single threaded
		}
		buf := t.Alloc(size)
		// First-touch every page locally, then optionally migrate the
		// buffer to a remote node — the way mlc binds memory with
		// numactl.
		t.Begin("touch")
		for off := uint64(0); off < size; off += 4096 {
			t.Store(buf.Addr(off))
		}
		t.End()
		if remote {
			target := remoteNode
			if target <= 0 || target >= t.NodeCount() {
				target = (t.Node() + 1) % t.NodeCount()
			}
			t.MovePages(buf, target)
		}

		// Build a single-cycle permutation over cache lines (Sattolo's
		// algorithm) so the chase visits every line exactly once per
		// lap in an unpredictable order.
		lines := size / 64
		perm := make([]uint64, lines)
		for i := range perm {
			perm[i] = uint64(i)
		}
		rng := newLCG(12345)
		for i := lines - 1; i > 0; i-- {
			j := uint64(rng.next()) % i
			perm[i], perm[j] = perm[j], perm[i]
		}
		next := make([]uint64, lines)
		for i := uint64(0); i < lines-1; i++ {
			next[perm[i]] = perm[i+1]
		}
		next[perm[lines-1]] = perm[0]

		cur := perm[0]
		t.Begin("chase")
		for i := 0; i < chases; i++ {
			t.LoadDep(buf.Addr(cur * 64))
			cur = next[cur]
			t.Instr(1) // pointer dereference bookkeeping
		}
		t.End()
	}
}

func refPointerChaseBody(pc PointerChase) func(*exec.Thread) {
	lines := pc.lines()
	hops := pc.hops()
	return func(t *exec.Thread) {
		if t.ID() != 0 {
			return
		}
		buf := t.Alloc(lines * 64)
		perm := make([]uint64, lines)
		for i := range perm {
			perm[i] = uint64(i)
		}
		rng := newLCG(99)
		for i := lines - 1; i > 0; i-- {
			j := uint64(rng.next()) % i
			perm[i], perm[j] = perm[j], perm[i]
		}
		next := make([]uint64, lines)
		for i := uint64(0); i < lines-1; i++ {
			next[perm[i]] = perm[i+1]
		}
		next[perm[lines-1]] = perm[0]
		cur := perm[0]
		for i := 0; i < hops; i++ {
			t.LoadDep(buf.Addr(cur * 64))
			cur = next[cur]
			t.Instr(1)
		}
	}
}

// refChaseOrder is the two bodies' chase with the engine taken out: the
// lines a next-array chase over a Sattolo cycle from seed loads, in
// order.
func refChaseOrder(lines uint64, seed uint32, hops int) []uint64 {
	perm := make([]uint64, lines)
	for i := range perm {
		perm[i] = uint64(i)
	}
	rng := newLCG(seed)
	for i := lines - 1; i > 0; i-- {
		j := uint64(rng.next()) % i
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]uint64, lines)
	for i := uint64(0); i < lines-1; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[lines-1]] = perm[0]
	cur := perm[0]
	var order []uint64
	for i := 0; i < hops; i++ {
		order = append(order, cur)
		cur = next[cur]
	}
	return order
}
