package faultdisk

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/fleet"
	"numaperf/internal/journal"
	"numaperf/internal/memhist"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// The disk chaos suite drives real campaign and fleet runs over a
// scripted filesystem and asserts the durability contract end to end:
// a kill in any crash window — a record write, the fsync after it, or
// anywhere inside a segment rotation — resumes to results
// byte-identical to an uninterrupted run, and a plain disk failure
// (ENOSPC, fsync error) costs at most the journal, never the
// measurements: the run finishes in memory with the report honestly
// marked JOURNAL DEGRADED.

// ---- campaign harness -------------------------------------------------

func campScanBody(t *exec.Thread) {
	buf := t.Alloc(16 << 10)
	for off := uint64(0); off < buf.Size; off += 64 {
		t.Load(buf.Addr(off))
	}
}

func campPoint(threads int, param float64) campaign.Point {
	return campaign.Point{
		Param: param,
		Mk: func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
			e, err := exec.NewEngine(exec.Config{
				Machine: topology.TwoSocket(),
				Threads: threads,
				Seed:    seed,
			})
			if err != nil {
				return nil, nil, err
			}
			return e, campScanBody, nil
		},
	}
}

func campSpec() campaign.Spec {
	return campaign.Spec{
		ParamName: "threads",
		Points:    []campaign.Point{campPoint(1, 1), campPoint(2, 2)},
		Events:    []counters.EventID{counters.AllLoads, counters.L1Miss},
		Reps:      2,
		Mode:      perf.Batched,
		Seed:      11,
	}
}

// campBytes serializes every point measurement — the byte-identity
// currency of the campaign suite.
func campBytes(t *testing.T, rep *campaign.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range rep.Points {
		if err := evsel.SaveMeasurement(&buf, p.M); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func assertJournalClean(t *testing.T, path string) {
	t.Helper()
	vr, err := journal.Verify(journal.OSFS, path)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got := vr.Worst(); got != journal.VerdictClean {
		for _, f := range vr.Files {
			t.Logf("  %s: %s (%s)", f.Path, f.Verdict, f.Detail)
		}
		t.Fatalf("journal verdict %v, want clean", got)
	}
}

// TestCampaignDiskKillWindowsResumeByteIdentical is the acceptance
// test on the campaign side: with rotation after every record
// (SegmentBytes=1), a scripted crash in each distinct disk window —
// record write, post-write-pre-fsync, torn write, record fsync, and
// every window inside a rotation (create, dir fsync, header write,
// checkpoint write, torn checkpoint, final fsync) — resumes with the
// same script to measurements byte-identical to an uninterrupted run,
// and leaves a journal that fscks clean.
func TestCampaignDiskKillWindowsResumeByteIdentical(t *testing.T) {
	// Op numbering with SegmentBytes=1: fresh open is create#1,
	// syncdir#1, write#1 (header), sync#1. The first cell append is
	// write#2/sync#2, whose rotation is read#1, create#2, syncdir#2,
	// write#3 (new header), write#4 (checkpoint), sync#3.
	cases := []struct {
		name   string
		script func() *Script
	}{
		{"kill-record-write", func() *Script { return NewScript().KillOnWrite(2) }},
		{"kill-post-write-pre-fsync", func() *Script { return NewScript().KillAfterWrite(2) }},
		{"torn-record", func() *Script { return NewScript().TearOnWrite(2) }},
		{"kill-record-fsync", func() *Script { return NewScript().KillOnSync(2) }},
		{"kill-rotation-create", func() *Script { return NewScript().KillOnCreate(2) }},
		{"kill-rotation-dir-fsync", func() *Script { return NewScript().KillOnSyncDir(2) }},
		{"kill-rotation-header-write", func() *Script { return NewScript().KillOnWrite(3) }},
		{"kill-rotation-checkpoint-write", func() *Script { return NewScript().KillOnWrite(4) }},
		{"torn-rotation-checkpoint", func() *Script { return NewScript().TearOnWrite(4) }},
		{"kill-rotation-fsync", func() *Script { return NewScript().KillOnSync(3) }},
	}
	spec := campSpec()
	ref, err := (&campaign.Runner{Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := campBytes(t, ref)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.journal")
			script := tc.script()
			_, err := (&campaign.Runner{Spec: spec, Opts: campaign.Options{
				JournalPath: path, JournalSegmentBytes: 1, JournalFS: script.FS(nil),
			}}).Run()
			if !errors.Is(err, journal.ErrCrashed) {
				t.Fatalf("first life returned %v, want ErrCrashed", err)
			}
			if script.Fired() == 0 {
				t.Fatal("disk fault script never fired")
			}

			rep, err := (&campaign.Runner{Spec: spec, Opts: campaign.Options{
				JournalPath: path, JournalSegmentBytes: 1, JournalFS: script.FS(nil),
				Resume: true,
			}}).Run()
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !rep.Complete() {
				t.Fatalf("resumed campaign incomplete: %s", rep.Summary())
			}
			if rep.JournalDegraded {
				t.Fatalf("resume degraded: %s", rep.Summary())
			}
			if got := campBytes(t, rep); !bytes.Equal(got, want) {
				t.Error("resumed measurements differ from the uninterrupted run")
			}
			assertJournalClean(t, path)
		})
	}
}

// A plain disk failure in the default mode costs the journal, not the
// campaign: the run finishes in memory with identical measurements and
// the report marked JOURNAL DEGRADED.
func TestCampaignDiskFaultDegradesByDefault(t *testing.T) {
	cases := []struct {
		name     string
		segBytes int
		script   func() *Script
	}{
		{"enospc-on-record-write", 0, func() *Script { return NewScript().ENOSPCOnWrite(2) }},
		{"fsync-failure", 0, func() *Script { return NewScript().FailSync(2) }},
		{"short-write", 0, func() *Script { return NewScript().ShortWriteOnWrite(2) }},
		{"enospc-on-rotation-create", 1, func() *Script { return NewScript().FailCreate(2) }},
	}
	spec := campSpec()
	ref, err := (&campaign.Runner{Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := campBytes(t, ref)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.journal")
			script := tc.script()
			rep, err := (&campaign.Runner{Spec: spec, Opts: campaign.Options{
				JournalPath: path, JournalSegmentBytes: tc.segBytes,
				JournalFS: script.FS(nil),
			}}).Run()
			if err != nil {
				t.Fatalf("degraded campaign errored: %v", err)
			}
			if !rep.Complete() {
				t.Fatalf("degraded campaign incomplete: %s", rep.Summary())
			}
			if !rep.JournalDegraded || rep.JournalFault == "" {
				t.Fatalf("fault not reported: degraded=%v fault=%q", rep.JournalDegraded, rep.JournalFault)
			}
			if !strings.Contains(rep.Summary(), "JOURNAL DEGRADED") {
				t.Errorf("summary missing degradation notice:\n%s", rep.Summary())
			}
			if script.Fired() == 0 {
				t.Error("disk fault script never fired")
			}
			if got := campBytes(t, rep); !bytes.Equal(got, want) {
				t.Error("degraded run measurements differ from the fault-free run")
			}
		})
	}
}

func TestCampaignStrictJournalFailsFast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	script := NewScript().ENOSPCOnWrite(2)
	_, err := (&campaign.Runner{Spec: campSpec(), Opts: campaign.Options{
		JournalPath: path, JournalFS: script.FS(nil), StrictJournal: true,
	}}).Run()
	if !errors.Is(err, campaign.ErrJournalDegraded) {
		t.Fatalf("err = %v, want ErrJournalDegraded", err)
	}
}

// ---- fleet harness ----------------------------------------------------

type diskTinyWorkload struct{}

func (diskTinyWorkload) Name() string { return "disk-tiny" }
func (diskTinyWorkload) Body() func(*exec.Thread) {
	return func(t *exec.Thread) {
		buf := t.Alloc(1 << 14)
		for i := uint64(0); i < 512; i++ {
			t.Load(buf.Addr(i * 64 % (1 << 14)))
		}
	}
}

var registerDiskTiny = sync.OnceFunc(func() {
	workloads.Register("disk-tiny", func() workloads.Workload { return diskTinyWorkload{} })
})

func fleetSpec(cells int) fleet.Spec {
	registerDiskTiny()
	return fleet.Spec{
		Workload:    "disk-tiny",
		Machine:     "2s",
		Bounds:      []uint64{4, 64, 256, 512},
		Cells:       cells,
		RepsPerCell: 1,
		Seed:        42,
	}
}

func fleetReference(t *testing.T, spec fleet.Spec) []byte {
	t.Helper()
	var hs []*memhist.Histogram
	for i := 0; i < spec.Cells; i++ {
		h, err := memhist.HandleRequest(spec.CellRequest(i))
		if err != nil {
			t.Fatalf("reference cell %d: %v", i, err)
		}
		hs = append(hs, h)
	}
	m, err := memhist.MergeHistograms(hs)
	if err != nil {
		t.Fatalf("reference merge: %v", err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fleetOpts() fleet.Options {
	return fleet.Options{
		SuspectAfter: 120 * time.Millisecond,
		DeadAfter:    240 * time.Millisecond,
		ProbeStrikes: 3,
		CellTimeout:  5 * time.Second,
		MaxRetries:   8,
		NoProbeGrace: 400 * time.Millisecond,
		Tick:         5 * time.Millisecond,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   15 * time.Millisecond,
		BackoffSeed:  7,
	}
}

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-listen on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func startCoordinatorOn(t *testing.T, opts fleet.Options, ln net.Listener) *fleet.Coordinator {
	t.Helper()
	c := fleet.NewCoordinator(opts)
	go c.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c
}

func crashCoordinator(t *testing.T, c *fleet.Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("shutting down killed coordinator: %v", err)
	}
}

func startAgent(t *testing.T, addr, id string) {
	t.Helper()
	a := &fleet.ProbeAgent{
		ID:                id,
		Coordinator:       addr,
		HeartbeatInterval: 10 * time.Millisecond,
		BackoffBase:       5 * time.Millisecond,
		BackoffMax:        15 * time.Millisecond,
		BackoffSeed:       int64(len(id)),
	}
	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	go func() {
		_ = a.Run(ctx)
		close(finished)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			t.Error("agent did not stop")
		}
	})
}

func waitProbes(t *testing.T, c *fleet.Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitForProbes(ctx, n); err != nil {
		t.Fatal(err)
	}
}

func runFleet(t *testing.T, c *fleet.Coordinator, spec fleet.Spec) *fleet.Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := c.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return rep
}

func assertFleetByteIdentical(t *testing.T, rep *fleet.Report, want []byte) {
	t.Helper()
	if !rep.Complete() {
		t.Fatalf("campaign incomplete: %d/%d cells, gaps %+v", rep.Completed, rep.Cells, rep.Gaps)
	}
	got, err := json.Marshal(rep.Histogram)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gathered report differs from fault-free reference\ngot:  %s\nwant: %s", got, want)
	}
}

// TestFleetDiskKillWindowsResumeByteIdentical is the acceptance test:
// a journaled fleet campaign with rotation after every record, killed
// by a scripted disk fault in each distinct crash window — a commit
// write, the post-write-pre-fsync window, a torn commit, and the
// create / checkpoint-write / dir-fsync windows inside a rotation —
// resumes on a fresh coordinator to a merged report byte-identical to
// the uninterrupted run, with a journal that fscks clean.
func TestFleetDiskKillWindowsResumeByteIdentical(t *testing.T) {
	// Fresh segmented open is create#1, syncdir#1, write#1 (header),
	// sync#1; the first commit is write#2, whose rotation is read#1,
	// create#2, syncdir#2, write#3 (header), write#4 (checkpoint).
	cases := []struct {
		name   string
		script func() *Script
	}{
		{"kill-commit-write", func() *Script { return NewScript().KillOnWrite(2) }},
		{"kill-post-write-pre-fsync", func() *Script { return NewScript().KillAfterWrite(2) }},
		{"torn-commit", func() *Script { return NewScript().TearOnWrite(2) }},
		{"kill-rotation-create", func() *Script { return NewScript().KillOnCreate(2) }},
		{"kill-rotation-dir-fsync", func() *Script { return NewScript().KillOnSyncDir(2) }},
		{"kill-rotation-checkpoint-write", func() *Script { return NewScript().KillOnWrite(4) }},
	}
	spec := fleetSpec(4)
	want := fleetReference(t, spec)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "fleet.journal")
			script := tc.script()

			ln := listenLoopback(t)
			addr := ln.Addr().String()
			opts := fleetOpts()
			opts.JournalPath = jpath
			opts.JournalSegmentBytes = 1
			opts.JournalFS = script.FS(nil)
			c1 := startCoordinatorOn(t, opts, ln)
			startAgent(t, addr, "probe-a")
			startAgent(t, addr, "probe-b")
			waitProbes(t, c1, 2)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_, err := c1.RunCampaign(ctx, spec)
			cancel()
			if !errors.Is(err, journal.ErrCrashed) {
				t.Fatalf("first life returned %v, want ErrCrashed", err)
			}
			if script.Fired() == 0 {
				t.Fatal("disk fault script never fired")
			}
			crashCoordinator(t, c1)

			// A fresh coordinator resumes on the same address over the
			// same script: counts carry over, the one-shot fault does
			// not refire, and the agents reconnect on their own.
			opts2 := fleetOpts()
			opts2.JournalPath = jpath
			opts2.JournalSegmentBytes = 1
			opts2.JournalFS = script.FS(nil)
			opts2.Resume = true
			c2 := startCoordinatorOn(t, opts2, relisten(t, addr))
			waitProbes(t, c2, 2)

			rep := runFleet(t, c2, spec)
			assertFleetByteIdentical(t, rep, want)
			if rep.JournalDegraded {
				t.Fatalf("resume degraded: %s", rep.Summary())
			}
			assertJournalClean(t, jpath)
		})
	}
}

func TestFleetDiskFaultDegradesByDefault(t *testing.T) {
	spec := fleetSpec(4)
	want := fleetReference(t, spec)
	jpath := filepath.Join(t.TempDir(), "fleet.journal")
	script := NewScript().ENOSPCOnWrite(2)

	ln := listenLoopback(t)
	opts := fleetOpts()
	opts.JournalPath = jpath
	opts.JournalFS = script.FS(nil)
	c := startCoordinatorOn(t, opts, ln)
	startAgent(t, ln.Addr().String(), "probe-a")
	startAgent(t, ln.Addr().String(), "probe-b")
	waitProbes(t, c, 2)

	rep := runFleet(t, c, spec)
	assertFleetByteIdentical(t, rep, want)
	if !rep.JournalDegraded || rep.JournalFault == "" {
		t.Fatalf("fault not reported: degraded=%v fault=%q", rep.JournalDegraded, rep.JournalFault)
	}
	if !strings.Contains(rep.Summary(), "JOURNAL DEGRADED") {
		t.Errorf("summary missing degradation notice:\n%s", rep.Summary())
	}
	if script.Fired() == 0 {
		t.Error("disk fault script never fired")
	}
}

func TestFleetStrictDiskFaultAborts(t *testing.T) {
	spec := fleetSpec(4)
	jpath := filepath.Join(t.TempDir(), "fleet.journal")
	script := NewScript().ENOSPCOnWrite(2)

	ln := listenLoopback(t)
	opts := fleetOpts()
	opts.JournalPath = jpath
	opts.JournalFS = script.FS(nil)
	opts.StrictJournal = true
	c := startCoordinatorOn(t, opts, ln)
	startAgent(t, ln.Addr().String(), "probe-a")
	waitProbes(t, c, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := c.RunCampaign(ctx, spec)
	if !errors.Is(err, fleet.ErrJournalDegraded) {
		t.Fatalf("err = %v, want ErrJournalDegraded", err)
	}
}

// TestFleetDiskBatchSyncWindows puts sync faults on the fsync that
// makes a loop turn's cell records durable. With the journal in one
// file, the coordinator writes the cells a turn commits and fsyncs them
// together, handling the answers that arrive meanwhile; how many cells
// one fsync covers varies with scheduling. The fresh journal's header
// is fsync#1 and the first batch's fsync is #2.
func TestFleetDiskBatchSyncWindows(t *testing.T) {
	spec := fleetSpec(4)
	want := fleetReference(t, spec)
	// start runs a coordinator on ln over the script and waits for the
	// probes, starting them unless they are reconnecting.
	start := func(t *testing.T, ln net.Listener, jpath string, script *Script, probes int, strict, resume bool) *fleet.Coordinator {
		opts := fleetOpts()
		opts.JournalPath = jpath
		opts.JournalFS = script.FS(nil)
		opts.StrictJournal = strict
		opts.Resume = resume
		c := startCoordinatorOn(t, opts, ln)
		for i := 0; i < probes && !resume; i++ {
			startAgent(t, ln.Addr().String(), fmt.Sprintf("probe-%d", i))
		}
		waitProbes(t, c, probes)
		return c
	}

	t.Run("kill-batch-fsync", func(t *testing.T) {
		jpath := filepath.Join(t.TempDir(), "fleet.journal")
		script := NewScript().KillOnSync(2)
		ln := listenLoopback(t)
		addr := ln.Addr().String()
		c1 := start(t, ln, jpath, script, 2, false, false)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err := c1.RunCampaign(ctx, spec)
		cancel()
		if !errors.Is(err, journal.ErrCrashed) {
			t.Fatalf("first life returned %v, want ErrCrashed", err)
		}
		crashCoordinator(t, c1)

		rep := runFleet(t, start(t, relisten(t, addr), jpath, script, 2, false, true), spec)
		assertFleetByteIdentical(t, rep, want)
		// The batch's writes landed before the kill, so the resumed
		// coordinator replays every cell of that turn.
		t.Logf("resumed with %d cell(s) replayed", rep.Replayed)
		if rep.Replayed < 1 {
			t.Errorf("replayed %d cells, want the killed batch's (at least 1)", rep.Replayed)
		}
		if rep.JournalDegraded {
			t.Fatalf("resume degraded: %s", rep.Summary())
		}
		assertJournalClean(t, jpath)
	})

	for _, tc := range []struct {
		name   string
		cells  int
		sync   int // the fsync that fails
		probes int
		strict bool
	}{
		{"failed-batch-fsync-degrades", 4, 2, 2, false},
		{"failed-batch-fsync-strict", 4, 2, 2, true},
		// A one-cell campaign commits its cell only after the loop, so
		// the header is fsync#1 and #2 follows the final commit. How many
		// fsyncs a longer campaign issues depends on how many answers
		// arrive while one runs.
		{"failed-final-fsync-strict", 1, 2, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			script := NewScript().FailSync(tc.sync)
			c := start(t, listenLoopback(t), filepath.Join(t.TempDir(), "fleet.journal"), script, tc.probes, tc.strict, false)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rep, err := c.RunCampaign(ctx, fleetSpec(tc.cells))
			if script.Fired() == 0 {
				t.Fatal("disk fault script never fired")
			}
			if tc.strict {
				if !errors.Is(err, fleet.ErrJournalDegraded) {
					t.Fatalf("err = %v, want ErrJournalDegraded", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
			assertFleetByteIdentical(t, rep, want)
			if !rep.JournalDegraded || !strings.Contains(rep.Summary(), "JOURNAL DEGRADED") {
				t.Fatalf("fault not reported: %s", rep.Summary())
			}
		})
	}
}
