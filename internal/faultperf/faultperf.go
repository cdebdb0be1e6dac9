// Package faultperf injects scripted faults into the simulated PEBS
// sampling facility — the sibling of faultrun, faultnet and faultdata,
// one layer down: where faultrun fails whole measurement runs,
// faultperf disturbs the sampler itself the way real PMUs do. It
// models the four fidelity hazards of hardware load-latency sampling:
// sample-buffer overruns (records lost before the PMI handler drains
// them), interrupt-throttle storms (the kernel suppresses the sampling
// interrupt), threshold starvation (a programmed threshold never gets
// its dwell), and observer stalls (the drain handler is wedged, so the
// buffer stays full).
//
// Faults are scripted over absolute simulated-cycle windows, so a
// failing chaos run replays exactly: the engine is deterministic and
// every Disruptor callback fires on its single simulation goroutine in
// cycle order. A Script's rules and counts nevertheless live in a
// lock-protected fault.Plan, because the chaos suite runs under -race
// and inspects counters from the test goroutine while a measurement is
// in flight.
package faultperf

import (
	"errors"
	"fmt"
	"strconv"

	"numaperf/internal/fault"
)

// ErrInjected marks the summary error a Script reports for faults it
// actually fired, so tests can tell injected disturbance from real
// failures with errors.Is.
var ErrInjected = errors.New("faultperf: injected fault")

// The sampler seams a Script scripts, one fault.Plan point each.
const (
	pointOverrun  = "overrun"
	pointThrottle = "throttle"
	pointStall    = "stall"
	pointStarve   = "starve"
)

// Script schedules sampler faults and implements perf.Disruptor. Each
// rule's payload is the end of its cycle window, which a throttle
// storm lasts until. The zero Script injects nothing; scripts compose
// by chaining. All counters are introspectable after (or during) a
// run.
type Script struct {
	plan fault.Plan[uint64]
}

// NewScript builds an empty script.
func NewScript() *Script {
	return &Script{}
}

func (s *Script) window(point string, from, to uint64) *Script {
	s.plan.Add(fault.Rule[uint64]{Point: point, From: from, To: to, Do: to})
	return s
}

// OverrunBurst schedules a buffer-overrun burst: every record arriving
// in cycles [from, to) is dropped as if the sample buffer were full
// (to == 0 means until the end of the run). Returns the script for
// chaining.
func (s *Script) OverrunBurst(from, to uint64) *Script {
	return s.window(pointOverrun, from, to)
}

// ThrottleStorm schedules a forced interrupt throttle: the first record
// arriving in cycles [from, to) trips a throttle lasting until cycle
// to, exactly like a kernel whose interrupt budget is exhausted. The
// window must be bounded (to > from); an unbounded one never fires.
func (s *Script) ThrottleStorm(from, to uint64) *Script {
	if to == 0 {
		return s
	}
	return s.window(pointThrottle, from, to)
}

// ObserverStall schedules a drain stall: PMI drains in cycles [from,
// to) do not empty the sample buffer, so a bounded buffer overruns
// (to == 0 means until the end of the run).
func (s *Script) ObserverStall(from, to uint64) *Script {
	return s.window(pointStall, from, to)
}

// Starve schedules dwell starvation: the next `slices` slices of the
// given threshold index record nothing and count entirely as throttled
// dwell — the hazard the adaptive cycler exists to repair.
func (s *Script) Starve(threshold, slices int) *Script {
	if slices > 0 {
		s.plan.Add(fault.Rule[uint64]{Point: pointStarve, Target: strconv.Itoa(threshold), Times: slices})
	}
	return s
}

// SliceStarved implements perf.Disruptor.
func (s *Script) SliceStarved(threshold int, startCycle uint64) bool {
	return len(s.plan.At(pointStarve, strconv.Itoa(threshold), startCycle)) > 0
}

// DropRecord implements perf.Disruptor.
func (s *Script) DropRecord(cycle uint64, threshold int) bool {
	return len(s.plan.At(pointOverrun, "", cycle)) > 0
}

// ThrottleUntil implements perf.Disruptor.
func (s *Script) ThrottleUntil(cycle uint64, threshold int) uint64 {
	if due := s.plan.At(pointThrottle, "", cycle); len(due) > 0 {
		return due[0]
	}
	return 0
}

// DrainStalled implements perf.Disruptor.
func (s *Script) DrainStalled(cycle uint64) bool {
	return len(s.plan.At(pointStall, "", cycle)) > 0
}

// RecordsDropped returns how many records the script destroyed via
// overrun bursts.
func (s *Script) RecordsDropped() int { return s.plan.Fired(pointOverrun) }

// ThrottlesFired returns how many forced throttles the script tripped.
func (s *Script) ThrottlesFired() int { return s.plan.Fired(pointThrottle) }

// SlicesStarved returns how many threshold slices the script starved.
func (s *Script) SlicesStarved() int { return s.plan.Fired(pointStarve) }

// DrainsStalled returns how many PMI drains the script wedged.
func (s *Script) DrainsStalled() int { return s.plan.Fired(pointStall) }

// Err summarises the faults that actually fired as an error wrapping
// ErrInjected, or nil when the script never disturbed the run — the
// chaos suite's proof that a "faulted" measurement was really faulted.
func (s *Script) Err() error {
	if s.plan.Fired() == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d records dropped, %d throttles, %d slices starved, %d drains stalled",
		ErrInjected, s.RecordsDropped(), s.ThrottlesFired(), s.SlicesStarved(), s.DrainsStalled())
}
