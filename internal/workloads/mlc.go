package workloads

import "numaperf/internal/exec"

// MLC models the Intel Memory Latency Checker used in the paper both
// to verify Memhist's peaks and to induce the remote accesses of
// Fig. 10b. Its idle-latency mode is a dependent pointer chase over a
// page-randomised permutation (so neither the prefetcher nor
// memory-level parallelism can hide latency); Remote forces the chased
// buffer onto another NUMA node.
type MLC struct {
	// BufferBytes is the chased working set; default 64 MiB (DRAM
	// resident). Smaller values measure cache levels.
	BufferBytes uint64
	// Remote homes the buffer on a node other than the chasing
	// thread's (mlc --latency_matrix remote case).
	Remote bool
	// RemoteNode selects the target node when Remote is set; values
	// ≤ 0 pick the next node after the chasing thread's.
	RemoteNode int
	// Chases is the number of dependent loads; default 200k.
	Chases int
}

// Name identifies the configuration.
func (m MLC) Name() string {
	loc := "local"
	if m.Remote {
		loc = "remote"
	}
	return label("mlc-"+loc, "buf", m.bufferBytes())
}

func (m MLC) bufferBytes() uint64 {
	if m.BufferBytes == 0 {
		return 64 << 20
	}
	return m.BufferBytes
}

func (m MLC) chases() int {
	if m.Chases <= 0 {
		return 200_000
	}
	return m.Chases
}

// Body allocates the buffer, homes it, and chases line-granular
// pointers through a Sattolo-shuffled permutation cycle.
func (m MLC) Body() func(*exec.Thread) {
	size := m.bufferBytes()
	lines := max(size/64, 1) // a buffer smaller than a line still holds one
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

		t.Begin("chase")
		sattoloWalk(lines, 12345, chases, func(line uint64) {
			t.LoadDep(buf.Addr(line * 64))
			t.Instr(1) // pointer dereference bookkeeping
		})
		t.End()
	}
}
