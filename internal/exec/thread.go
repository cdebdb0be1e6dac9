package exec

import (
	"fmt"

	"numaperf/internal/oslite"
)

// Buffer re-exports the oslite allocation handle so workloads only
// import exec.
type Buffer = oslite.Buffer

// Thread is the handle a workload body uses to emit work. All methods
// must be called from the body goroutine that owns the thread.
type Thread struct {
	id      int
	core    int
	node    int
	threads int
	e       *Engine
	// regions and barrierAddr are the run's own: a body a budget abort
	// left draining keeps using them while the engine's next run builds
	// its own.
	regions     *regionTable
	barrierAddr uint64
	ops         []Op
	// spare is the previously sent chunk's buffer, recycled once the
	// engine is done with it: the engine simulates chunk N before
	// receiving chunk N+1, so when a send completes the buffer sent
	// before it is free again. Two buffers therefore cover the whole
	// run, instead of one allocation per chunk, and the engine keeps
	// them for its next run (Engine.opBufs).
	spare []Op
	ch    chan chunk
	reply chan ctlReply
}

// ID returns the thread index in [0, Threads()).
func (t *Thread) ID() int { return t.id }

// Threads returns the number of threads in the team.
func (t *Thread) Threads() int { return t.threads }

// Core returns the core the thread is pinned to.
func (t *Thread) Core() int { return t.core }

// Node returns the NUMA node of the thread's core.
func (t *Thread) Node() int { return t.node }

// NodeCount returns the number of NUMA nodes of the machine.
func (t *Thread) NodeCount() int { return t.e.cfg.Machine.Sockets }

func (t *Thread) emit(op Op) {
	t.ops = append(t.ops, op)
	if len(t.ops) == cap(t.ops) {
		t.flush(ctlNone)
	}
}

// flush sends the accumulated operations plus an optional control
// request to the engine and starts a fresh chunk on the recycled
// spare buffer.
func (t *Thread) flush(ctl ctlKind) {
	c := chunk{ops: t.ops, ctl: ctl}
	t.ch <- c
	t.ops = t.spare[:0]
	t.spare = c.ops
}

func (t *Thread) control(c chunk) ctlReply {
	c.ops = t.ops
	t.ch <- c
	t.ops = t.spare[:0]
	t.spare = c.ops
	return <-t.reply
}

// Load emits an independent load of the cache line backing addr.
func (t *Thread) Load(addr uint64) { t.emit(Op{Arg: addr, Kind: OpLoad}) }

// LoadDep emits a dependent (serialised) load, as in a pointer chase.
func (t *Thread) LoadDep(addr uint64) { t.emit(Op{Arg: addr, Kind: OpLoadDep}) }

// Store emits a store to addr.
func (t *Thread) Store(addr uint64) { t.emit(Op{Arg: addr, Kind: OpStore}) }

// Atomic emits a locked read-modify-write on addr.
func (t *Thread) Atomic(addr uint64) { t.emit(Op{Arg: addr, Kind: OpAtomic}) }

// Instr accounts n non-memory instructions.
func (t *Thread) Instr(n uint64) {
	if n == 0 {
		return
	}
	t.emit(Op{Arg: n, Kind: OpInstr})
}

// Branch emits a conditional branch at the static site with the given
// outcome. Sites identify static branch locations, like the program
// counter does for a real predictor.
func (t *Thread) Branch(site uint16, taken bool) {
	arg := uint64(site) << 1
	if taken {
		arg |= 1
	}
	t.emit(Op{Arg: arg, Kind: OpBranch})
}

// Alloc reserves size bytes in the process address space. Placement
// follows the engine's page policy on first touch. Alloc panics on
// allocation failure (out of simulated DRAM), which the engine reports
// as a run error.
func (t *Thread) Alloc(size uint64) Buffer {
	r := t.control(chunk{ctl: ctlAlloc, size: size})
	if r.err != nil {
		panic(fmt.Sprintf("exec: Alloc(%d): %v", size, r.err))
	}
	return r.buf
}

// Free releases a buffer, shrinking the process footprint.
func (t *Thread) Free(buf Buffer) {
	if r := t.control(chunk{ctl: ctlFree, buf: buf}); r.err != nil {
		panic(fmt.Sprintf("exec: Free: %v", r.err))
	}
}

// MovePages rebinds the touched pages of buf to the given NUMA node.
func (t *Thread) MovePages(buf Buffer, node int) {
	if r := t.control(chunk{ctl: ctlMove, buf: buf, node: node}); r.err != nil {
		panic(fmt.Sprintf("exec: MovePages: %v", r.err))
	}
}

// Barrier blocks until every live thread of the team has reached a
// barrier, then synchronises all core clocks to the slowest thread —
// BSP superstep semantics. The barrier also emits the atomic traffic a
// real barrier implementation would (one locked update plus a flag
// load), which is what makes synchronisation visible in the counters.
func (t *Thread) Barrier() {
	// Synchronisation traffic on a team-shared line.
	t.Atomic(t.barrierAddr)
	t.Load(t.barrierAddr + 64)
	t.control(chunk{ctl: ctlBarrier})
}

// Begin enters a named code region: all events emitted until the
// matching End are attributed to it in Result.Regions. Regions nest;
// events always belong to the innermost open region. This is the
// event-to-code-location mapping the paper's outlook calls for.
func (t *Thread) Begin(name string) {
	t.emit(Op{Arg: uint64(t.regions.intern(name)), Kind: OpRegionBegin})
}

// End leaves the innermost open region.
func (t *Thread) End() { t.emit(Op{Kind: OpRegionEnd}) }
