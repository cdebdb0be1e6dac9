package workloads

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/topology"
)

// chaseLoad is one retired load as the load observer reports it.
type chaseLoad struct {
	core           int
	vaddr, latency uint64
}

// chaseTrace is what one run shows of its op stream: every retired
// load in order, the number of loads retired at the end of each chunk,
// and the run's result.
type chaseTrace struct {
	loads  []chaseLoad
	chunks []int
	res    *exec.Result
}

// traceChase runs body on a fresh engine with Fig. 10b's 256-op chunks.
func traceChase(t *testing.T, m *topology.Machine, body func(*exec.Thread)) chaseTrace {
	t.Helper()
	e, err := exec.NewEngine(exec.Config{Machine: m, Threads: 1, Seed: 1, Chunk: 256})
	if err != nil {
		t.Fatal(err)
	}
	var tr chaseTrace
	e.Sim().SetLoadObserver(func(core int, vaddr, latency uint64) {
		tr.loads = append(tr.loads, chaseLoad{core, vaddr, latency})
	})
	e.SetPostChunkHook(func() { tr.chunks = append(tr.chunks, len(tr.loads)) })
	if tr.res, err = e.Run(body); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestChaseBodiesMatchReference: the chase bodies emit the stream the
// next-array chase emitted, load for load and chunk for chunk, for
// chases shorter than one lap, exactly one lap and past it.
func TestChaseBodiesMatchReference(t *testing.T) {
	for _, lines := range []uint64{1, 2, 3, 1000, 4096} {
		hops := []int{int(lines), int(2*lines + 1)}
		if lines > 1 {
			hops = append(hops, int(lines-1))
		}
		for _, n := range hops {
			type chaseCase struct {
				machine   string
				name      string
				body, ref func(*exec.Thread)
			}
			var cases []chaseCase
			for _, m := range []string{"dl580", "2s"} {
				for _, remote := range []bool{false, true} {
					w := MLC{BufferBytes: lines * 64, Chases: n, Remote: remote}
					cases = append(cases, chaseCase{m, w.Name(), w.Body(), refMLCBody(w)})
				}
			}
			pc := PointerChase{Lines: lines, Hops: n}
			cases = append(cases, chaseCase{"uma", pc.Name(), pc.Body(), refPointerChaseBody(pc)})
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s/%s/hops=%d", c.machine, c.name, n), func(t *testing.T) {
					m, _ := topology.ByName(c.machine)
					got, want := traceChase(t, m, c.body), traceChase(t, m, c.ref)
					if len(got.loads) != n {
						t.Fatalf("%d loads retired, want %d", len(got.loads), n)
					}
					for i := range got.loads {
						if got.loads[i] != want.loads[i] {
							t.Fatalf("load %d is %+v, the reference's %+v", i, got.loads[i], want.loads[i])
						}
					}
					for _, f := range []struct {
						name      string
						got, want any
					}{
						{"chunk boundaries", got.chunks, want.chunks},
						{"Raw", got.res.Raw, want.res.Raw},
						{"Cycles", got.res.Cycles, want.res.Cycles},
						{"Regions", got.res.Regions, want.res.Regions},
					} {
						if !reflect.DeepEqual(f.got, f.want) {
							t.Errorf("%s differ from the reference's", f.name)
						}
					}
				})
			}
		}
	}
}

// TestSubLineMLCChasesLineZero: a buffer smaller than a cache line still
// holds one line, so its chase loads the buffer's first line every hop,
// as a one-line buffer's chase does.
func TestSubLineMLCChasesLineZero(t *testing.T) {
	m, _ := topology.ByName("2s")
	got := traceChase(t, m, MLC{BufferBytes: 32, Chases: 10}.Body())
	want := traceChase(t, m, MLC{BufferBytes: 64, Chases: 10}.Body())
	if len(got.loads) != 10 {
		t.Fatalf("%d loads retired, want 10", len(got.loads))
	}
	first := want.loads[0].vaddr
	for i, l := range got.loads {
		if l != want.loads[i] || l.vaddr != first {
			t.Fatalf("load %d is %+v, want %+v on the buffer's first line %#x", i, l, want.loads[i], first)
		}
	}
	if !reflect.DeepEqual(got.res.Raw, want.res.Raw) {
		t.Error("Raw differs from the one-line buffer's")
	}
}

// FuzzChaseOrder holds sattoloWalk, with no engine, to the next-array
// chase it replaces: for any line count, hop count and seed it visits
// the same lines in the same order.
func FuzzChaseOrder(f *testing.F) {
	f.Add(uint16(0), uint32(5), uint32(12345))     // one line, many laps
	f.Add(uint16(1), uint32(7), uint32(99))        // two lines
	f.Add(uint16(4095), uint32(16384), uint32(99)) // PointerChase's default
	f.Add(uint16(65535), uint32(70000), uint32(12345))
	f.Add(uint16(999), uint32(0), uint32(1))
	f.Fuzz(func(t *testing.T, l uint16, h, seed uint32) {
		lines, hops := uint64(l)+1, int(h%(1<<18))
		want := refChaseOrder(lines, seed, hops)
		got := make([]uint64, 0, hops)
		sattoloWalk(lines, seed, hops, func(line uint64) { got = append(got, line) })
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("lines=%d seed=%d: the walk's %d visits part from the chase's %d at hop %d",
				lines, seed, len(got), len(want), i)
		}
	})
}

// chaseRunAllowance bounds what one re-seeded engine run allocates
// besides the chase's permutation: the process's page table and the
// result (the engine keeps its op buffers across runs). Measured on
// go1.24, plain and under -race: 44 KiB for the MLC run below on dl580,
// 10 KiB for the PointerChase run on uma. The permutation is 512 KiB
// in both, so a second per-line host array, such as the next array of a
// host-side pointer chase, breaks the budget.
const chaseRunAllowance = 384 << 10

// TestChaseBodyAllocBudget: a chase run allocates its permutation, 8 B
// per line, and the engine's per-run buffers, nothing else per line.
func TestChaseBodyAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		w       Workload
		machine string
		lines   uint64
	}{
		{MLC{BufferBytes: 4 << 20, Chases: 100_000}, "dl580", 65536},
		{PointerChase{Lines: 65536}, "uma", 65536},
	} {
		m, _ := topology.ByName(tc.machine)
		e, err := exec.NewEngine(exec.Config{Machine: m, Threads: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		body := tc.w.Body()
		// The first run builds the caches and the first reset their
		// fill logs; neither recurs on a re-seeded engine.
		if _, err := e.Run(body); err != nil {
			t.Fatal(err)
		}
		e.Reseed(2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(body); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		perm := 8 * tc.lines
		t.Logf("%s on %s: %d KiB allocated, %d KiB of them besides the permutation (allowance %d KiB)",
			tc.w.Name(), tc.machine, got>>10, (got-min(got, perm))>>10, chaseRunAllowance>>10)
		if budget := perm + chaseRunAllowance; got > budget {
			t.Errorf("%s: %d bytes allocated in one run, budget %d: the body allocates more than its permutation",
				tc.w.Name(), got, budget)
		}
	}
}
