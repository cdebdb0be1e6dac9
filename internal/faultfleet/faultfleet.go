// Package faultfleet scripts probe-agent misbehaviour for the fleet
// chaos suite: crashed probes, heartbeat loss, slow and flapping
// probes, partitioned registration. A Script implements
// fleet.Disruptor; its setters chain, and its counters let tests assert
// that the scripted faults actually fired. The zero Script disrupts
// nothing. All methods are safe for concurrent use — the heartbeat loop
// and the request loop of an agent consult the script concurrently.
package faultfleet

import (
	"time"

	"numaperf/internal/fault"
	"numaperf/internal/fleet"
)

// The agent seams a Script scripts, one fault.Plan point each.
const (
	pointConnect   = "connect"   // dial attempts, 0-based
	pointHeartbeat = "heartbeat" // beacon sequence numbers, 1-based
	pointRequest   = "request"   // delayed or crashed requests, 1-based
	pointOverload  = "overload"  // requests answered with backpressure, 1-based
)

// Script is a scripted fleet.Disruptor.
type Script struct {
	plan fault.Plan[fleet.Fault]
}

// New builds an empty script (no disruptions).
func New() *Script {
	return &Script{}
}

// add schedules f at point for coordinates [from, to) (to == 0: no
// upper bound).
func (s *Script) add(point string, from, to uint64, f fleet.Fault) *Script {
	s.plan.Add(fault.Rule[fleet.Fault]{Point: point, From: from, To: to, Do: f})
	return s
}

// RefuseFirstConnects partitions the probe from the coordinator for its
// first n dial attempts — registration succeeds only on attempt n.
func (s *Script) RefuseFirstConnects(n int) *Script {
	if n <= 0 {
		return s
	}
	return s.add(pointConnect, 0, uint64(n), fleet.Fault{})
}

// RefuseReconnects lets the initial registration through but refuses
// every reconnect — a probe that dies once and never comes back.
func (s *Script) RefuseReconnects() *Script {
	return s.add(pointConnect, 1, 0, fleet.Fault{})
}

// DropHeartbeat drops the beacon with the given sequence number
// (1-based, per connection).
func (s *Script) DropHeartbeat(seq uint64) *Script {
	return s.add(pointHeartbeat, seq, seq+1, fleet.Fault{})
}

// SilenceHeartbeatsFrom drops every beacon with sequence >= seq: the
// probe stays connected but falls silent — the suspect → dead path.
func (s *Script) SilenceHeartbeatsFrom(seq uint64) *Script {
	return s.add(pointHeartbeat, seq, 0, fleet.Fault{})
}

// DelayRequest stalls the n-th request (1-based, across reconnects) by
// d before serving it — a slow probe.
func (s *Script) DelayRequest(n int, d time.Duration) *Script {
	return s.add(pointRequest, uint64(n), uint64(n)+1, fleet.Fault{Delay: d})
}

// CrashOnRequest drops the connection instead of answering the n-th
// request; the agent reconnects as a new instance.
func (s *Script) CrashOnRequest(n int) *Script {
	return s.add(pointRequest, uint64(n), uint64(n)+1, fleet.Fault{Crash: true})
}

// CrashOnRequestStayDown crashes on the n-th request and terminates the
// agent — a probe process that died and was never restarted.
func (s *Script) CrashOnRequestStayDown(n int) *Script {
	return s.add(pointRequest, uint64(n), uint64(n)+1, fleet.Fault{Crash: true, StayDown: true})
}

// OverloadRequests answers requests from through from+count-1 (1-based,
// across reconnects) with a request-scoped "overloaded" ERROR carrying
// the given retry-after hint instead of serving them — an overload
// storm. The connection stays up, so the coordinator must treat the
// answers as backpressure, not probe death.
func (s *Script) OverloadRequests(from, count int, retryAfter time.Duration) *Script {
	if count <= 0 {
		return s
	}
	return s.add(pointOverload, uint64(from), uint64(from+count),
		fleet.Fault{Overload: true, RetryAfterMillis: retryAfter.Milliseconds()})
}

// DelayEveryRequest stalls every request by d — a uniformly slow probe,
// useful to stretch a campaign long enough for other scripts to play
// out.
func (s *Script) DelayEveryRequest(d time.Duration) *Script {
	return s.add(pointRequest, 0, 0, fleet.Fault{Delay: d})
}

// CrashAlways crashes on every request — a flapping probe that
// registers fine but never finishes a cell.
func (s *Script) CrashAlways() *Script {
	return s.add(pointRequest, 0, 0, fleet.Fault{Crash: true})
}

// RefuseConnect implements fleet.Disruptor.
func (s *Script) RefuseConnect(attempt int) bool {
	return len(s.plan.At(pointConnect, "", uint64(attempt))) > 0
}

// SkipHeartbeat implements fleet.Disruptor.
func (s *Script) SkipHeartbeat(seq uint64) bool {
	return len(s.plan.At(pointHeartbeat, "", seq)) > 0
}

// OnRequest implements fleet.Disruptor: every fault due on request n
// applies, the longest delay winning.
func (s *Script) OnRequest(n int) fleet.Fault {
	var f fleet.Fault
	for _, d := range s.plan.At(pointRequest, "", uint64(n)) {
		f.Delay = max(f.Delay, d.Delay)
		f.Crash = f.Crash || d.Crash
		f.StayDown = f.StayDown || d.StayDown
	}
	for _, d := range s.plan.At(pointOverload, "", uint64(n)) {
		f.Overload, f.RetryAfterMillis = true, d.RetryAfterMillis
	}
	return f
}

// ConnectsRefused counts dial attempts the script refused.
func (s *Script) ConnectsRefused() int { return s.plan.Fired(pointConnect) }

// HeartbeatsDropped counts beacons the script suppressed.
func (s *Script) HeartbeatsDropped() int { return s.plan.Fired(pointHeartbeat) }

// OverloadsFired counts requests the script answered with backpressure.
func (s *Script) OverloadsFired() int { return s.plan.Fired(pointOverload) }

// Faulted counts the request disruptions the script delivered: delays
// and crashes, plus overload answers.
func (s *Script) Faulted() int { return s.plan.Fired(pointRequest, pointOverload) }
