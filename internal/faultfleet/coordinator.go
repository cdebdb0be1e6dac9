package faultfleet

import (
	"numaperf/internal/fault"
	"numaperf/internal/fleet"
)

// The coordinator seams a CoordinatorScript scripts.
const (
	pointDispatch = "dispatch" // cell dispatches, 1-based across the campaign
	pointCommit   = "commit"   // cell indexes reaching their commit point
)

// CoordinatorScript is a scripted fleet.CoordinatorDisruptor: it kills
// the coordinator at one precise point of the campaign — mid-scatter,
// or in one of the three crash windows of a cell's commit — so the
// chaos suite can restart against the journal the crash left behind
// and prove the resume path. The zero script never faults. All methods
// are safe for concurrent use.
type CoordinatorScript struct {
	plan fault.Plan[fleet.CommitFault]
}

// NewCoordinatorScript builds an empty script (no faults).
func NewCoordinatorScript() *CoordinatorScript {
	return &CoordinatorScript{}
}

// KillOnDispatch kills the coordinator immediately before its n-th
// cell dispatch (1-based, counted across the whole campaign): earlier
// dispatches are already on the wire, so their responses land on a
// dead coordinator.
func (s *CoordinatorScript) KillOnDispatch(n int) *CoordinatorScript {
	if n > 0 {
		s.plan.Add(fault.Rule[fleet.CommitFault]{Point: pointDispatch, From: uint64(n)})
	}
	return s
}

func (s *CoordinatorScript) onCommit(cell int, f fleet.CommitFault) *CoordinatorScript {
	s.plan.Add(fault.Rule[fleet.CommitFault]{Point: pointCommit, From: uint64(cell), To: uint64(cell) + 1, Do: f})
	return s
}

// KillBeforeCommit kills the coordinator when cell reaches its
// canonical commit point, before anything is written: the cell's
// result is lost and must be re-measured after resume.
func (s *CoordinatorScript) KillBeforeCommit(cell int) *CoordinatorScript {
	return s.onCommit(cell, fleet.CommitKillBefore)
}

// KillAfterWrite kills the coordinator after cell's record is written
// but before the explicit fsync — the record survives on any
// filesystem that kept the write, so resume must honour it.
func (s *CoordinatorScript) KillAfterWrite(cell int) *CoordinatorScript {
	return s.onCommit(cell, fleet.CommitKillAfterWrite)
}

// TearCommit kills the coordinator midway through writing cell's
// record, leaving a torn final journal line — the crash-mid-write
// signature resume must drop and truncate.
func (s *CoordinatorScript) TearCommit(cell int) *CoordinatorScript {
	return s.onCommit(cell, fleet.CommitTear)
}

// OnDispatch implements fleet.CoordinatorDisruptor.
func (s *CoordinatorScript) OnDispatch(cell, attempt int) bool {
	return len(s.plan.Next(pointDispatch, "")) > 0
}

// OnCommit implements fleet.CoordinatorDisruptor. When several faults
// are scheduled for one cell, the one scheduled last applies.
func (s *CoordinatorScript) OnCommit(cell int) fleet.CommitFault {
	due := s.plan.At(pointCommit, "", uint64(cell))
	if len(due) == 0 {
		return fleet.CommitNone
	}
	return due[len(due)-1]
}

// Fired counts coordinator kills the script delivered.
func (s *CoordinatorScript) Fired() int {
	return s.plan.Fired()
}
