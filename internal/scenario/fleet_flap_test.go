package scenario

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"numaperf/internal/fleet"
)

// TestFlapGateHoldsOnlyForFlappers pins when the rest of a fleet holds
// its requests: only with a flapper, another probe, and more cells than
// other probes, so a flapper always has a cell to crash on.
func TestFlapGateHoldsOnlyForFlappers(t *testing.T) {
	var cur atomic.Pointer[fleet.Coordinator]
	cur.Store(fleet.NewCoordinator(fleet.Options{}))
	reliable := func(id string) *probePlan { return &probePlan{id: id} }
	flapper := func(id string) *probePlan { return &probePlan{id: id, flaps: true} }
	for _, tc := range []struct {
		name  string
		plans []*probePlan
		cells int
		hold  bool
	}{
		{"no flapper", []*probePlan{reliable("a"), reliable("b")}, 4, false},
		{"only flappers", []*probePlan{flapper("a"), flapper("b")}, 4, false},
		{"every cell held", []*probePlan{reliable("a"), reliable("b"), flapper("c")}, 2, false},
		{"a cell to crash on", []*probePlan{reliable("a"), reliable("b"), flapper("c")}, 3, true},
	} {
		gate, release := flapGate(&cur, tc.plans, tc.cells)
		if got := gate != nil; got != tc.hold {
			t.Errorf("%s: holds = %v, want %v", tc.name, got, tc.hold)
		}
		release()
		if gate != nil {
			<-gate // release opened it
		}
	}
}

// seedWithoutFlapper returns the first seed from 1 whose roster stamps
// no flapping probe.
func seedWithoutFlapper(t *testing.T, sc *Scenario) int64 {
	t.Helper()
	for seed := int64(1); seed <= 1000; seed++ {
		if !slices.ContainsFunc(resolveFleet(sc.Fleet, seed), func(p *probePlan) bool { return p.flaps }) {
			return seed
		}
	}
	t.Fatal("every seed in 1..1000 draws a flapper")
	return 0
}

// TestFleetGenWithoutFlapperHoldsNothing runs the quarantine scenario
// at a seed that draws no flapper. Nothing holds, so the campaign
// completes well inside one 5 s cell timeout, which a held request
// would have to wait out, and only the quarantine assertion fails.
func TestFleetGenWithoutFlapperHoldsNothing(t *testing.T) {
	sc := loadScenario(t, "fleet-gen-quarantine")
	seed := seedWithoutFlapper(t, sc)
	start := time.Now()
	res, err := Run(sc, RunOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 5*time.Second {
		t.Errorf("seed %d: the run took %v; a fleet without a flapper must not hold its answers", seed, d)
	}
	out := findOutcome(t, res, "fleet").(fleetOutcomeRec)
	if !out.Complete || len(out.Quarantined) != 0 {
		t.Errorf("seed %d: complete=%v quarantined=%v, want a complete campaign and no quarantine", seed, out.Complete, out.Quarantined)
	}
	if res.Failed != 1 {
		t.Errorf("seed %d: %d assertions failed, want only assert.quarantined:\n%s", seed, res.Failed, res.Summary())
	}
}

// slowFlapper is a fleet of one steady probe and two flappers, one of
// which stalls 30 ms before each crash, so it reaches its strike limit
// well after the other. The coordinator offers a cell to healthy probes
// in ID order, so the steady probe, named first, would take most cells
// if it did not hold.
const slowFlapper = `name: slow-flapper
mode: fleet
seed: 1
fleet:
  probes: [a-steady, b-flap-fast, c-flap-slow]
  keep_going: true
  campaign:
    workload: scenario-tiny
    machine: 2s
    bounds: [4, 64, 256, 512]
    cells: 4
events:
  - at: 0s
    action: fleet.flap
    target: b-flap-fast
  - at: 0s
    action: fleet.flap
    target: c-flap-slow
  - at: 0s
    action: fleet.delay_every_request
    target: c-flap-slow
    delay: 30ms
  - at: 5s
    action: assert.complete
  - at: 5s
    action: assert.matches_reference
  - at: 5s
    action: assert.quarantined
    target: b-flap-fast
  - at: 5s
    action: assert.quarantined
    target: c-flap-slow
`

// TestFleetHoldsUntilEveryFlapperIsQuarantined checks that the steady
// probe holds until the slow flapper is quarantined too, not only the
// first flapper: released early, it would finish the four cells before
// the slow flapper's third strike.
func TestFleetHoldsUntilEveryFlapperIsQuarantined(t *testing.T) {
	sc, err := Parse([]byte(slowFlapper))
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc, RunOptions{})
}
