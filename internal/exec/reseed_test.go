package exec_test

import (
	"reflect"
	"runtime"
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// reseedBodies are the workloads FuzzEngineReseed runs, small enough
// that its seed corpus replays in about two seconds. threads, when set,
// overrides the input's team size.
var reseedBodies = []struct {
	name    string
	body    func(*exec.Thread)
	threads int
}{
	{"chase", workloads.PointerChase{Lines: 512}.Body(), 0},
	{"triad", workloads.Triad{Elements: 2048, Passes: 1}.Body(), 0},
	{"cachemiss", workloads.CacheMissA(64).Body(), 0},
	{"sort", workloads.ParallelSort{Elements: 1 << 10}.Body(), 2},
	{"regions", regionBody, 0},
}

// regionBody opens nested regions around loads, branches, stores and
// atomics, then meets the team at a barrier and frees its buffer.
func regionBody(t *exec.Thread) {
	buf := t.Alloc(16 << 10)
	t.Begin("outer")
	for off := uint64(0); off < buf.Size; off += 64 {
		t.Load(buf.Addr(off))
		t.Branch(uint16(off>>6&7), off&128 != 0)
	}
	t.Begin("inner")
	for off := uint64(0); off < buf.Size; off += 256 {
		t.Store(buf.Addr(off))
		t.Atomic(buf.Addr(0))
	}
	t.End()
	t.End()
	t.Barrier()
	t.Free(buf)
	t.Instr(100)
}

// FuzzEngineReseed is the differential proof that a re-seeded engine is
// a fresh one. The input drives a sequence of runs, three bytes each:
// a workload and a machine, a seed, and a team size of 1 or 2. Each
// (machine, threads) pair keeps one engine that Reseed returns to its
// starting state before every run, and every run's Result must equal,
// field for field, that of a NewEngine built for the same config and
// seed. A set bit 1 in the third byte installs a post-chunk hook, a load
// observer and a one-op budget before the Reseed, which must clear all
// three. Bits 2 and 3 of the third byte ask for that many Repeats of the
// run and then one more Run, each of which must equal the fresh
// engine's next Run.
func FuzzEngineReseed(f *testing.F) {
	// The first byte of a run is 5·machine + workload, machines in
	// topology.MachineNames order: dl580, 2s, 8s, uma.
	f.Add([]byte{15, 1, 0, 15, 2, 0, 15, 1, 2, 15, 3, 0})                     // chase on uma, re-seeded three times
	f.Add([]byte{5, 7, 1, 6, 7, 1, 7, 9, 1, 8, 9, 3, 9, 2, 1, 5, 7, 1})       // every workload on one 2s engine at 2 threads
	f.Add([]byte{0, 4, 0, 4, 5, 1, 2, 6, 0, 3, 2, 1, 1, 4, 2})                // dl580 at 1 and 2 threads, interleaved
	f.Add([]byte{10, 1, 1, 14, 1, 1, 19, 9, 0, 17, 3, 0, 12, 1, 3, 18, 5, 1}) // 8s and uma
	f.Add([]byte{15, 1, 4, 9, 2, 13, 0, 3, 8, 17, 1, 14})                     // Repeats on three machines, then on the re-seeded uma engine
	f.Fuzz(func(t *testing.T, in []byte) {
		machines := topology.MachineNames()
		type key struct {
			machine string
			threads int
		}
		reused := map[key]*exec.Engine{}
		for i := 0; i+2 < len(in) && i < 3*8; i += 3 {
			w := reseedBodies[int(in[i])%len(reseedBodies)]
			name := machines[int(in[i])/len(reseedBodies)%len(machines)]
			mach, _ := topology.ByName(name)
			seed, threads := int64(in[i+1]), 1+int(in[i+2]&1)
			if w.threads > 0 {
				threads = w.threads
			}
			cfg := exec.Config{Machine: mach, Threads: threads, Seed: seed}
			k := key{name, threads}
			e := reused[k]
			var stale int
			switch {
			case e == nil:
				var err error
				if e, err = exec.NewEngine(cfg); err != nil {
					t.Fatal(err)
				}
				reused[k] = e
			default:
				if in[i+2]&2 != 0 {
					e.SetPostChunkHook(func() { stale++ })
					e.Sim().SetLoadObserver(func(int, uint64, uint64) { stale++ })
					e.SetOpBudget(1)
				}
				e.Reseed(seed)
				if e.OpBudget() != 0 || e.Proc() != nil || e.Config().Seed != seed {
					t.Fatalf("run %d: after Reseed(%d): op budget %d, process %v, seed %d",
						i/3, seed, e.OpBudget(), e.Proc() != nil, e.Config().Seed)
				}
			}
			got, err := e.Run(w.body)
			if err != nil {
				t.Fatalf("run %d (%s on %s, %d threads, seed %d): reused engine: %v", i/3, w.name, k.machine, threads, seed, err)
			}
			if stale != 0 {
				t.Fatalf("run %d: Reseed left the post-chunk hook or the load observer installed (%d calls)", i/3, stale)
			}
			fresh, err := exec.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(w.body)
			if err != nil {
				t.Fatalf("run %d: fresh engine: %v", i/3, err)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Raw", got.Raw, want.Raw},
				{"Total", got.Total, want.Total},
				{"PerCore", got.PerCore, want.PerCore},
				{"Uncore", got.Uncore, want.Uncore},
				{"Cycles", got.Cycles, want.Cycles},
				{"Seed", got.Seed, want.Seed},
				{"Footprint", got.Footprint, want.Footprint},
				{"Regions", got.Regions, want.Regions},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("run %d (%s on %s, %d threads, seed %d): reused engine's %s differs from a fresh engine's",
						i/3, w.name, k.machine, threads, seed, f.name)
				}
			}
			repeats := int(in[i+2]>>2) & 3
			for j := 1; repeats > 0 && j <= repeats+1; j++ {
				if j <= repeats {
					got = e.Repeat(got)
				} else if got, err = e.Run(w.body); err != nil {
					t.Fatal(err)
				}
				if want, err = fresh.Run(w.body); err != nil {
					t.Fatal(err)
				}
				if f := differingField(got, want); f != "" {
					t.Fatalf("run %d (%s on %s, %d threads, seed %d): the %s %d steps after it differs from a fresh engine's next run in %s",
						i/3, w.name, k.machine, threads, seed, kind(j, repeats), j, f)
				}
			}
		}
	})
}

// reusedRunBudget bounds what one run of a reused engine allocates: its
// Result, its process and page table, its threads and channels, and the
// body's own allocations, here a 4 KiB chase permutation. Measured on
// go1.24: 12.2 KiB per run, with or without a Reseed before it, and
// 11.7–12.2 KiB under -race. Each thread's two op buffers are 128 KiB,
// which the engine allocates once and keeps; a run that allocated them
// again measured 145 KiB.
const reusedRunBudget = 32 << 10

// TestReusedEngineRunAllocs: a run on an engine that has run before
// allocates its result and little else, whether or not Reseed precedes
// it.
func TestReusedEngineRunAllocs(t *testing.T) {
	m, _ := topology.ByName("uma")
	e, err := exec.NewEngine(exec.Config{Machine: m, Threads: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := workloads.PointerChase{Lines: 512}.Body()
	// The first run builds the caches, the second's reset their fill
	// logs; neither recurs.
	for i := 0; i < 2; i++ {
		if _, err := e.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	for _, reseed := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if reseed {
			e.Reseed(2)
		}
		if _, err := e.Run(body); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("reseed=%v: %d B allocated in one run (budget %d B)", reseed, got, reusedRunBudget)
		if got > reusedRunBudget {
			t.Errorf("reseed=%v: %d bytes allocated in one run of a reused engine, budget %d: a run rebuilds what the engine could keep",
				reseed, got, reusedRunBudget)
		}
	}
}
