package fault_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/faultdisk"
	"numaperf/internal/faultfleet"
	"numaperf/internal/faultperf"
	"numaperf/internal/faultrun"
	"numaperf/internal/fleet"
)

// TestZeroScriptsInjectNothing covers the five scripts built on Plan:
// each zero value passes every seam through untouched, and its builder
// methods work without a constructor.
func TestZeroScriptsInjectNothing(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"faultdisk.Script", func(t *testing.T) {
			var s faultdisk.Script
			fs := s.FS(nil)
			dir := t.TempDir()
			path := filepath.Join(dir, "j")
			f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("record\n")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if raw, err := fs.ReadFile(path); err != nil || string(raw) != "record\n" {
				t.Fatalf("read back (%q, %v)", raw, err)
			}
			if err := fs.SyncDir(dir); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename(path, path+".old"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(path + ".old"); err != nil {
				t.Fatal(err)
			}
			if s.Fired() != 0 {
				t.Errorf("Fired = %d", s.Fired())
			}

			var armed faultdisk.Script
			armed.FailSync(1)
			g, err := armed.FS(nil).OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if g.Sync() == nil || armed.Fired() != 1 {
				t.Errorf("zero-value script armed with FailSync(1) did not fire (Fired %d)", armed.Fired())
			}
		}},
		{"faultrun.Script", func(t *testing.T) {
			clean := func(campaign.Cell) (map[counters.EventID]float64, error) {
				return map[counters.EventID]float64{counters.AllLoads: 1}, nil
			}
			var s faultrun.Script
			if out, err := s.Wrap(clean)(campaign.Cell{}); err != nil || out[counters.AllLoads] != 1 {
				t.Errorf("zero script disturbed the run: (%v, %v)", out, err)
			}
			if s.Runs() != 1 || s.MaxInFlight() != 1 {
				t.Errorf("Runs = %d, MaxInFlight = %d, want 1 and 1", s.Runs(), s.MaxInFlight())
			}
			s.Release()
			s.Release()

			var armed faultrun.Script
			armed.On("p0/r0/b0", faultrun.Fault{Kind: faultrun.Exit})
			if _, err := armed.Wrap(clean)(campaign.Cell{}); !errors.Is(err, faultrun.ErrInjected) {
				t.Errorf("zero-value script armed with On did not fire: %v", err)
			}
		}},
		{"faultperf.Script", func(t *testing.T) {
			var s faultperf.Script
			if s.SliceStarved(0, 0) || s.DropRecord(0, 0) || s.ThrottleUntil(0, 0) != 0 || s.DrainStalled(0) {
				t.Error("zero script disturbed the sampler")
			}
			if err := s.Err(); err != nil {
				t.Errorf("Err = %v", err)
			}

			var armed faultperf.Script
			armed.Starve(2, 1)
			if !armed.SliceStarved(2, 0) || armed.SliceStarved(2, 1) || armed.SlicesStarved() != 1 {
				t.Errorf("zero-value script armed with Starve(2, 1) starved %d slices, want exactly 1", armed.SlicesStarved())
			}
		}},
		{"faultfleet.Script", func(t *testing.T) {
			var s faultfleet.Script
			for _, attempt := range []int{0, 1, 5} {
				if s.RefuseConnect(attempt) {
					t.Errorf("zero script refused dial attempt %d", attempt)
				}
			}
			if s.SkipHeartbeat(1) || s.OnRequest(1) != (fleet.Fault{}) {
				t.Error("zero script disturbed heartbeats or requests")
			}
			if s.ConnectsRefused()+s.HeartbeatsDropped()+s.OverloadsFired()+s.Faulted() != 0 {
				t.Error("zero script counted faults")
			}
		}},
		{"faultfleet.CoordinatorScript", func(t *testing.T) {
			var s faultfleet.CoordinatorScript
			if s.OnDispatch(0, 1) || s.OnCommit(0) != fleet.CommitNone || s.Fired() != 0 {
				t.Error("zero script killed the coordinator")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
