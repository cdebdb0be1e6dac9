package memsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/recorded_counts.json")

// recordedPhase is the simulator's observable state after one phase of
// a random stream: every non-zero counter of TotalCounts and each
// core's cycle clock.
type recordedPhase struct {
	Counts map[string]uint64 `json:"counts"`
	Cycles []uint64          `json:"cycles"`
}

// randomStream drives ops operations over a few cores of s. The
// addresses mix sequential scans (prefetcher, repeated lines), page
// strides (TLB walks), lines that alias one L3 set beyond its
// associativity (LRU evictions at every level) and a small shared pool
// that several cores store to and lock (owners, cache-to-cache
// transfers, machine clears). Home nodes include out-of-range values,
// which the simulator treats as local.
func randomStream(s *Sim, rng *rand.Rand, ops int) {
	m := s.Machine()
	cores := []int{0, 1, m.Cores() / 2, m.Cores() - 1}
	cursor := make([]uint64, len(cores))
	for i := range cursor {
		cursor[i] = uint64(i) << 28
	}
	for i := 0; i < ops; {
		k := rng.Intn(len(cores))
		core := cores[k]
		home := rng.Intn(m.Sockets+2) - 1
		// A burst of sequential accesses on one core, so its L1 misses
		// form the consecutive lines the stream prefetcher follows, or
		// of independent loads cycling through ten lines of one L1 set,
		// so lines leave the L1 while their fills are still pending.
		burst, stride, cycling := 1, uint64(0), false
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			burst, stride = 1+rng.Intn(64), uint64(4<<rng.Intn(5))
			if rng.Intn(64) == 0 {
				cursor[k] = uint64(rng.Intn(1<<16)) << 12
			}
		case 4:
			burst, cycling = 10+rng.Intn(10), true
		}
		for j := 0; j < burst; j++ {
			var addr uint64
			switch p := rng.Intn(6); {
			case cycling:
				addr = uint64(j%10) << 22
				s.Load(core, addr, home, false)
				i++
				continue
			case stride != 0:
				cursor[k] += stride
				addr = cursor[k]
			case p < 2:
				addr = uint64(rng.Intn(4096)) << 12
			case p < 4:
				// Lines that differ only above bit 15 share an L3 set
				// on every modelled machine.
				addr = (uint64(rng.Intn(4)) | uint64(rng.Intn(40))<<16) << 6
			default:
				addr = 1<<32 | uint64(rng.Intn(16))<<6
			}
			switch op := rng.Intn(20); {
			case op < 11:
				s.Load(core, addr, home, rng.Intn(4) == 0)
			case op < 16:
				s.Store(core, addr, home)
			case op < 18:
				s.Atomic(core, addr, home)
			case op < 19:
				s.Branch(core, uint16(rng.Intn(64)), rng.Intn(3) != 0)
			default:
				s.Instr(core, uint64(rng.Intn(64)))
			}
			i++
		}
	}
}

func snapshot(s *Sim) recordedPhase {
	s.Finalize()
	p := recordedPhase{Counts: map[string]uint64{}}
	for id, v := range s.TotalCounts() {
		if v != 0 {
			p.Counts[counters.Def(counters.EventID(id)).Name] = v
		}
	}
	for c := 0; c < s.Machine().Cores(); c++ {
		p.Cycles = append(p.Cycles, s.Cycles(c))
	}
	return p
}

// TestRecordedCounters replays seeded random Load/Store/Atomic/Branch
// streams on every predefined machine and compares the counters and
// core clocks with the vectors in testdata/recorded_counts.json. Each
// case runs two phases with a Reset between them, so a Reset that
// leaves state behind shows in the second. Any change to the model's
// behaviour moves these vectors; a change meant to be invisible (a
// faster cache, say) must not. Rewrite them with -update only for a
// deliberate model change.
func TestRecordedCounters(t *testing.T) {
	const ops = 40000
	got := map[string][]recordedPhase{}
	for _, name := range topology.MachineNames() {
		m, _ := topology.ByName(name)
		s, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s.Reset()
			randomStream(s, rng, ops)
			first := snapshot(s)
			s.Reset()
			randomStream(s, rng, ops)
			got[fmt.Sprintf("%s/seed%d", name, seed)] = []recordedPhase{first, snapshot(s)}
		}
	}
	path := filepath.Join("testdata", "recorded_counts.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]recordedPhase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("recorded %d cases, ran %d", len(want), len(got))
	}
	for key, phases := range got {
		for i, p := range phases {
			if i >= len(want[key]) {
				t.Errorf("%s: phase %d not recorded", key, i+1)
				continue
			}
			w := want[key][i]
			if !reflect.DeepEqual(p.Cycles, w.Cycles) {
				t.Errorf("%s phase %d: core cycles differ from the recording", key, i+1)
			}
			for ev, v := range p.Counts {
				if w.Counts[ev] != v {
					t.Errorf("%s phase %d: %s = %d, recorded %d", key, i+1, ev, v, w.Counts[ev])
				}
			}
			for ev, v := range w.Counts {
				if _, ok := p.Counts[ev]; !ok {
					t.Errorf("%s phase %d: %s = 0, recorded %d", key, i+1, ev, v)
				}
			}
		}
	}
}
