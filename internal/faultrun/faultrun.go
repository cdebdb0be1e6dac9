// Package faultrun injects scripted run-level faults into a campaign —
// the sibling of faultnet, one layer up: where faultnet corrupts bytes
// on a wire, faultrun makes whole measurement runs hang, panic, exit
// nonzero, crawl, or report corrupt counter values. It exists so the
// campaign chaos suite can prove that every such fault yields either a
// complete measurement, a typed per-event gap, or a typed campaign
// error — never a hang and never silent sample loss.
//
// Faults are scripted per cell key and per attempt, so a failing chaos
// run replays exactly. Hung runs block on a script-owned channel;
// Release unblocks every abandoned goroutine so tests exit clean under
// -race.
package faultrun

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/fault"
)

// ErrInjected marks every error fabricated by this package, so tests
// can tell injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faultrun: injected fault")

// Kind enumerates the run-level faults.
type Kind int

const (
	// Hang blocks the run until the script's Release — the abandoned-
	// goroutine case a run timeout must bound.
	Hang Kind = iota
	// Panic makes the run panic.
	Panic
	// Exit fails the run with a nonzero-exit-style error.
	Exit
	// Corrupt replaces one event's value (negative by default, or NaN).
	Corrupt
	// Slow delays the run, then lets it proceed normally.
	Slow
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case Hang:
		return "hang"
	case Panic:
		return "panic"
	case Exit:
		return "exit"
	case Corrupt:
		return "corrupt"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scripted failure.
type Fault struct {
	Kind Kind
	// Times bounds how many attempts the fault fires on (0 = every
	// attempt). A Times=1 Exit models a transient failure a retry
	// heals; Times=0 models a deterministic one.
	Times int
	// ExitCode labels Exit faults (the "nonzero exit").
	ExitCode int
	// Event names the counter a Corrupt fault poisons; empty poisons
	// the first event of the run (lowest ID).
	Event string
	// NaN makes Corrupt inject NaN instead of a negated value.
	NaN bool
	// Delay is the Slow fault's stall (also applied before Exit/Panic
	// when set, modelling a run that limps before dying).
	Delay time.Duration
}

// pointRun is the one fault.Plan point a Script scripts: a run
// attempt, targeted by cell key.
const pointRun = "run"

// Script maps cell keys to faults and implements the campaign's Wrap
// seam. Cells without an entry run clean. A Script is safe for
// concurrent use, so the same instance can fault cells running on
// parallel campaign workers. The zero Script injects nothing.
type Script struct {
	plan fault.Plan[Fault]

	mu      sync.Mutex
	release chan struct{}
	// inFlight counts runs currently inside the wrap; maxInFlight is
	// its high-water mark — the chaos suite's proof that a parallel
	// campaign really overlapped cell execution.
	inFlight, maxInFlight int
}

// NewScript builds an empty script.
func NewScript() *Script {
	return &Script{}
}

// On schedules a fault for the cell with the given key (campaign
// Cell.Key form, e.g. "p0/r1/b2") and returns the script for chaining.
// When several faults are due on one attempt, the one scheduled last
// applies.
func (s *Script) On(key string, f Fault) *Script {
	s.plan.Add(fault.Rule[Fault]{Point: pointRun, Target: key, Times: f.Times, Do: f})
	return s
}

// Runs returns how many run attempts passed through the script.
func (s *Script) Runs() int {
	return s.plan.Seen(pointRun)
}

// MaxInFlight returns the largest number of run attempts that were ever
// inside the script at the same moment — 1 for a serial campaign, > 1
// once a worker pool overlaps cells.
func (s *Script) MaxInFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxInFlight
}

// releaseCh returns the channel hung runs block on. Caller holds s.mu.
func (s *Script) releaseCh() chan struct{} {
	if s.release == nil {
		s.release = make(chan struct{})
	}
	return s.release
}

// Release unblocks every run hung by the script, letting abandoned
// goroutines exit. Call it from test cleanup; it is idempotent.
func (s *Script) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.releaseCh():
	default:
		close(s.release)
	}
}

// Wrap is the campaign.Middleware injecting the scripted faults.
func (s *Script) Wrap(next campaign.RunFunc) campaign.RunFunc {
	return func(c campaign.Cell) (map[counters.EventID]float64, error) {
		s.mu.Lock()
		s.inFlight++
		s.maxInFlight = max(s.maxInFlight, s.inFlight)
		release := s.releaseCh()
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			s.inFlight--
			s.mu.Unlock()
		}()

		due := s.plan.Next(pointRun, c.Key())
		if len(due) == 0 {
			return next(c)
		}
		f := due[len(due)-1]
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		switch f.Kind {
		case Hang:
			<-release
			return nil, fmt.Errorf("%w: hung run released in cell %s", ErrInjected, c.Key())
		case Panic:
			panic(fmt.Sprintf("faultrun: injected panic in cell %s", c.Key()))
		case Exit:
			return nil, fmt.Errorf("%w: run exited with code %d in cell %s", ErrInjected, f.ExitCode, c.Key())
		case Corrupt:
			out, err := next(c)
			if err != nil {
				return out, err
			}
			s.corrupt(out, &f)
			return out, nil
		case Slow:
			return next(c)
		default:
			return nil, fmt.Errorf("%w: unknown fault kind %v", ErrInjected, f.Kind)
		}
	}
}

// corrupt poisons one event's value in a run result.
func (s *Script) corrupt(out map[counters.EventID]float64, f *Fault) {
	target, found := counters.EventID(0), false
	if f.Event != "" {
		if id, ok := counters.Lookup(f.Event); ok {
			if _, present := out[id]; present {
				target, found = id, true
			}
		}
	} else {
		for id := range out {
			if !found || id < target {
				target, found = id, true
			}
		}
	}
	if !found {
		return
	}
	if f.NaN {
		out[target] = math.NaN()
		return
	}
	v := out[target]
	if v == 0 {
		v = 1
	}
	out[target] = -v
}
