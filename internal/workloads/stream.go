package workloads

import "numaperf/internal/exec"

// Triad is a STREAM-style bandwidth kernel (a[i] = b[i] + s·c[i]) used
// as a size-parameterised workload family for the two-step strategy's
// code-to-indicator extrapolation: its counters scale linearly with
// Elements, which a regression over small sizes must discover.
type Triad struct {
	// Elements per array; default 256 Ki (3 MiB working set).
	Elements int
	// Passes over the arrays; default 2.
	Passes int
}

// Name identifies the workload.
func (tr Triad) Name() string { return label("triad", "n", tr.elements()) }

func (tr Triad) elements() int {
	if tr.Elements <= 0 {
		return 256 << 10
	}
	return tr.Elements
}

func (tr Triad) passes() int {
	if tr.Passes <= 0 {
		return 2
	}
	return tr.Passes
}

// Body emits the triad sweeps, parallelised over threads.
func (tr Triad) Body() func(*exec.Thread) {
	n := uint64(tr.elements())
	passes := tr.passes()
	return func(t *exec.Thread) {
		share := n / uint64(t.Threads())
		if share == 0 {
			share = 1
		}
		a := t.Alloc(share * 4)
		b := t.Alloc(share * 4)
		c := t.Alloc(share * 4)
		for p := 0; p < passes; p++ {
			for i := uint64(0); i < share; i++ {
				t.Load(b.Addr(i * 4))
				t.Load(c.Addr(i * 4))
				t.Store(a.Addr(i * 4))
				t.Instr(2) // multiply + add
			}
		}
	}
}

// PointerChase is a size-parameterised dependent-load family whose
// counters scale super-linearly in working-set size once the set
// outgrows each cache level; it gives the two-step strategy a family
// whose indicator-to-cost relation is dominated by memory latency.
type PointerChase struct {
	// Lines is the number of chased cache lines; default 4096 (256 KiB).
	Lines uint64
	// Hops is the number of dependent loads; default 4·Lines.
	Hops int
}

// Name identifies the workload.
func (pc PointerChase) Name() string { return label("chase", "lines", pc.lines()) }

func (pc PointerChase) lines() uint64 {
	if pc.Lines == 0 {
		return 4096
	}
	return pc.Lines
}

func (pc PointerChase) hops() int {
	if pc.Hops <= 0 {
		return int(4 * pc.lines())
	}
	return pc.Hops
}

// Body builds the permutation and chases it.
func (pc PointerChase) Body() func(*exec.Thread) {
	lines := pc.lines()
	hops := pc.hops()
	return func(t *exec.Thread) {
		if t.ID() != 0 {
			return
		}
		buf := t.Alloc(lines * 64)
		sattoloWalk(lines, 99, hops, func(line uint64) {
			t.LoadDep(buf.Addr(line * 64))
			t.Instr(1)
		})
	}
}
