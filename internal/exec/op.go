// Package exec is the execution engine between workload code and the
// machine simulator. Workloads run as SPMD thread bodies (one function
// executed by every thread, OpenMP style); each thread emits memory,
// instruction and branch operations that are simulated on its pinned
// core. Threads run as goroutines but the engine consumes their
// operation chunks in deterministic round-robin order, so a given
// (workload, machine, seed) triple always produces identical counters.
//
// A body must emit the same operations on every run. The seed then
// drives only the measurement noise, and a run's exact counters depend
// on the body and the configuration alone, so Engine.Repeat can stand
// for one more run of a body by re-drawing only its noise. Every
// registered workload keeps this contract; a body that changes with
// each call (captured state, a counter, a random source) breaks it.
package exec

// OpKind discriminates the operations a thread can emit.
type OpKind uint8

const (
	// OpLoad is an independent (overlappable) load.
	OpLoad OpKind = iota
	// OpLoadDep is a dependent load (pointer chase): the core stalls
	// for its full use latency.
	OpLoadDep
	// OpStore is a store.
	OpStore
	// OpAtomic is a locked read-modify-write.
	OpAtomic
	// OpInstr accounts Arg non-memory instructions.
	OpInstr
	// OpBranch is a conditional branch; Arg packs site<<1|taken.
	OpBranch
	// OpRegionBegin enters a named code region (Arg = interned ID);
	// subsequent events are attributed to it.
	OpRegionBegin
	// OpRegionEnd leaves the current region.
	OpRegionEnd
)

// Op is one operation in a thread's instruction stream. Arg is the
// virtual address for memory operations, the instruction count for
// OpInstr, and the packed site/outcome for OpBranch.
type Op struct {
	Arg  uint64
	Kind OpKind
}

type ctlKind uint8

const (
	ctlNone ctlKind = iota
	ctlBarrier
	ctlAlloc
	ctlFree
	ctlMove
	ctlDone
	ctlPanic
)

// chunk is the unit of communication between a thread goroutine and the
// engine: a batch of operations, optionally followed by one control
// request that needs an engine-side action.
type chunk struct {
	ops  []Op
	ctl  ctlKind
	size uint64 // ctlAlloc: requested bytes
	buf  Buffer // ctlFree / ctlMove
	node int    // ctlMove target
	err  error  // ctlPanic payload
}

type ctlReply struct {
	buf Buffer
	err error
}
