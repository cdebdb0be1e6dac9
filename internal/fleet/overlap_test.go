package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"numaperf/internal/exec"
	"numaperf/internal/faultfleet"
	"numaperf/internal/fleet"
	"numaperf/internal/journal"
	"numaperf/internal/memhist"
	"numaperf/internal/probenet"
	"numaperf/internal/workloads"
)

// The overlap tests hold one journal fsync of a campaign open and
// script what arrives meanwhile: the coordinator handles answers that
// arrive during a turn's fsync and dispatches the freed probes' next
// cells at once, but sends nothing after a strike until the strike's
// record is on disk. Every wait is bounded, so a failure never hangs.

const overlapWait = 5 * time.Second

type overlapWorkload struct{}

func (overlapWorkload) Name() string { return "fleet-overlap-tiny" }
func (overlapWorkload) Body() func(*exec.Thread) {
	return func(t *exec.Thread) {
		buf := t.Alloc(1 << 12)
		for i := uint64(0); i < 64; i++ {
			t.Load(buf.Addr(i * 64))
		}
	}
}

var registerOverlap = sync.OnceFunc(func() {
	workloads.Register("fleet-overlap-tiny", func() workloads.Workload { return overlapWorkload{} })
})

func overlapSpec(cells int) fleet.Spec {
	registerOverlap()
	return fleet.Spec{Workload: "fleet-overlap-tiny", Machine: "uma", Bounds: []uint64{4, 64, 256}, Cells: cells, Seed: 5}
}

// opLog orders what the coordinator does: journal record writes and
// completed fsyncs (from heldFS) and cell dispatches (from
// dispatchLog).
type opLog struct {
	mu  sync.Mutex
	ops []string
}

func (l *opLog) add(op string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

func (l *opLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ops...)
}

// heldFS is the real filesystem with one fsync held: the hold-th fsync
// (1-based, the fresh journal's header is #1) waits until the test
// releases it. Writes and completed fsyncs go to log.
type heldFS struct {
	journal.FS
	log     *opLog
	hold    int
	syncs   int // only the committing goroutine syncs
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func newHeldFS(t *testing.T, log *opLog, hold int) *heldFS {
	f := &heldFS{FS: journal.OSFS, log: log, hold: hold, held: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(f.releaseSync)
	return f
}

// waitHeld returns once the held fsync has started.
func (f *heldFS) waitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-f.held:
	case <-time.After(overlapWait):
		t.Fatalf("fsync #%d never started", f.hold)
	}
}

// releaseSync lets the held fsync run; it may be called more than once.
func (f *heldFS) releaseSync() { f.once.Do(func() { close(f.release) }) }

func (f *heldFS) OpenFile(path string, flag int, perm os.FileMode) (journal.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return heldFile{file, f}, nil
}

type heldFile struct {
	journal.File
	fs *heldFS
}

func (f heldFile) Write(p []byte) (int, error) {
	op := "write"
	if bytes.Contains(p, []byte(`"kind":"probe"`)) {
		op = "write probe"
	}
	f.fs.log.add(op)
	return f.File.Write(p)
}

func (f heldFile) Sync() error {
	if f.fs.syncs++; f.fs.syncs == f.fs.hold {
		close(f.fs.held)
		<-f.fs.release
	}
	err := f.File.Sync()
	f.fs.log.add("fsync")
	return err
}

// dispatchLog is a coordinator disruptor that logs every dispatch and
// never faults.
type dispatchLog struct{ log *opLog }

func (d dispatchLog) OnDispatch(cell, attempt int) bool {
	d.log.add(fmt.Sprintf("dispatch %d", cell))
	return false
}

func (d dispatchLog) OnCommit(int) fleet.CommitFault { return fleet.CommitNone }

// startOverlap serves a coordinator with a journal over fs on a fresh
// loopback listener. Probes never miss a heartbeat during a test.
func startOverlap(t *testing.T, opts fleet.Options, fs journal.FS, jpath string) (*fleet.Coordinator, string) {
	t.Helper()
	opts.JournalPath, opts.JournalFS = jpath, fs
	opts.SuspectAfter, opts.DeadAfter = 30*time.Second, 60*time.Second
	opts.BackoffBase, opts.BackoffMax = time.Millisecond, time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewCoordinator(opts)
	go c.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), overlapWait)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c, ln.Addr().String()
}

// runAsync runs the campaign on its own goroutine. Its cleanup releases
// the held fsync and cancels the campaign, so a failed test ends it.
func runAsync(t *testing.T, c *fleet.Coordinator, spec fleet.Spec, fs *heldFS) <-chan error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	done, ended := make(chan error, 1), make(chan struct{})
	go func() {
		defer close(ended)
		_, err := c.RunCampaign(ctx, spec)
		done <- err
	}()
	t.Cleanup(func() {
		fs.releaseSync()
		cancel()
		select {
		case <-ended:
		case <-time.After(overlapWait):
			t.Error("campaign did not end")
		}
	})
	return done
}

// scriptedProbe registers a raw connection as probe id, so the test
// decides when each answer arrives.
func scriptedProbe(t *testing.T, addr, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(overlapWait))
	if err := probenet.WriteFrame(conn, probenet.FrameHello, &probenet.Hello{Version: probenet.Version, ProbeID: id, Instance: 1}); err != nil {
		t.Fatal(err)
	}
	if ft, payload, err := probenet.ReadFrame(conn); err != nil || ft != probenet.FrameHello {
		t.Fatalf("registration: %s %s %v", ft, payload, err)
	}
	return conn
}

// serve reads the next cell request on conn within a bounded wait and
// answers it with body; it returns the cell.
func serve(t *testing.T, conn net.Conn, spec fleet.Spec, body []byte, what string) int {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(overlapWait))
	ft, payload, err := probenet.ReadFrame(conn)
	if err != nil || ft != probenet.FrameRequest {
		t.Fatalf("%s: no cell request (%s %v)", what, ft, err)
	}
	var req probenet.Request
	var pr memhist.ProbeRequest
	if err := probenet.Decode(ft, payload, &req); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(req.Body, &pr); err != nil {
		t.Fatal(err)
	}
	if err := probenet.WriteFrame(conn, probenet.FrameResponse, &probenet.Response{ID: req.ID, Body: body}); err != nil {
		t.Fatal(err)
	}
	return int(pr.Seed - spec.Seed - 1)
}

// histogramBody is a valid answer for every cell of spec: a memhist
// histogram does not depend on the seed.
func histogramBody(t *testing.T, spec fleet.Spec) []byte {
	t.Helper()
	h, err := memhist.HandleRequest(spec.CellRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	return mustMarshal(t, h)
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func wait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(overlapWait); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: timed out", what)
		}
	}
}

// TestOverlapDispatchesDuringFsync: an answer that arrives while a
// turn's fsync is held is handled at once, and its probe receives its
// next cell before the fsync returns.
func TestOverlapDispatchesDuringFsync(t *testing.T) {
	spec := overlapSpec(3)
	body := histogramBody(t, spec)
	// Fsync #2 makes cell 0's record durable, after cell 1 went out.
	fs := newHeldFS(t, nil, 2)
	c, addr := startOverlap(t, fleet.Options{}, fs, filepath.Join(t.TempDir(), "fleet.journal"))
	conn := scriptedProbe(t, addr, "p1")
	done := runAsync(t, c, spec, fs)

	serve(t, conn, spec, body, "cell 0")
	fs.waitHeld(t)
	if cell := serve(t, conn, spec, body, "cell 1"); cell != 1 {
		t.Fatalf("second request is cell %d, want 1", cell)
	}
	// Only the test releases the fsync, so it is still held here.
	if cell := serve(t, conn, spec, body, "next cell while the fsync is held"); cell != 2 {
		t.Fatalf("third request is cell %d, want 2", cell)
	}
	fs.releaseSync()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(overlapWait):
		t.Fatal("campaign did not finish")
	}
}

// TestOverlapStrikeFsyncedBeforeDispatch: a malformed answer that
// arrives while a turn's fsync is held strikes its probe, and no cell
// is dispatched until the strike record's Append has fsynced.
func TestOverlapStrikeFsyncedBeforeDispatch(t *testing.T) {
	spec := overlapSpec(3)
	body := histogramBody(t, spec)
	malformed := mustMarshal(t, &memhist.Histogram{Bounds: []uint64{4, 4}, Counts: []float64{1, 1}, Uncertain: []bool{false, false}})
	log := &opLog{}
	fs := newHeldFS(t, log, 2)
	c, addr := startOverlap(t, fleet.Options{Disruptor: dispatchLog{log}, ProbeStrikes: 10}, fs, filepath.Join(t.TempDir(), "fleet.journal"))
	conn := scriptedProbe(t, addr, "p1")
	done := runAsync(t, c, spec, fs)

	serve(t, conn, spec, body, "cell 0")
	fs.waitHeld(t)
	if cell := serve(t, conn, spec, malformed, "cell 1"); cell != 1 {
		t.Fatalf("second request is cell %d, want 1", cell)
	}
	strikes := func() int {
		for _, p := range c.Tracker().Snapshot() {
			if p.ID == "p1" {
				return p.Strikes
			}
		}
		return 0
	}
	wait(t, "strike while the fsync is held", func() bool { return strikes() == 1 })
	fs.releaseSync()
	served := map[int]bool{}
	for i := 0; i < 2; i++ {
		served[serve(t, conn, spec, body, "after the strike")] = true
	}
	if !served[1] || !served[2] {
		t.Fatalf("served cells %v after the strike, want 1 and 2", served)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(overlapWait):
		t.Fatal("campaign did not finish")
	}

	// After cell 1 went out, the next dispatch follows the strike
	// record's write and an fsync after it.
	ops := log.snapshot()
	at := func(op string, from int) int {
		for i := from; i < len(ops); i++ {
			if ops[i] == op {
				return i
			}
		}
		return len(ops)
	}
	out := at("dispatch 1", 0)
	next := out + 1
	for next < len(ops) && !strings.HasPrefix(ops[next], "dispatch ") {
		next++
	}
	probe := at("write probe", out)
	if next == len(ops) || probe > next || at("fsync", probe) > next {
		t.Fatalf("a cell went out before the strike record was fsynced: %q", ops)
	}
}

// TestOverlapKillOnDispatchResumes: a scripted kill on a dispatch the
// coordinator makes while a turn's fsync is held aborts the campaign
// with ErrCoordinatorKilled, and a resumed campaign reports what a
// fault-free run does, byte for byte.
func TestOverlapKillOnDispatchResumes(t *testing.T) {
	spec := overlapSpec(4)
	h, err := memhist.DecodeHistogram(histogramBody(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := memhist.MergeHistograms([]*memhist.Histogram{h, h, h, h})
	if err != nil {
		t.Fatal(err)
	}
	want := mustMarshal(t, ref)
	jpath := filepath.Join(t.TempDir(), "fleet.journal")

	// Dispatch #3 is cell 2's, which the answer to cell 1 frees while
	// fsync #2 is held.
	script := faultfleet.NewCoordinatorScript().KillOnDispatch(3)
	fs := newHeldFS(t, nil, 2)
	c1, addr1 := startOverlap(t, fleet.Options{Disruptor: script}, fs, jpath)
	startOverlapAgent(t, addr1)
	waitOverlapProbes(t, c1)
	done := runAsync(t, c1, spec, fs)
	fs.waitHeld(t)
	wait(t, "kill while the fsync is held", func() bool { return script.Fired() > 0 })
	fs.releaseSync()
	select {
	case err := <-done:
		if !errors.Is(err, fleet.ErrCoordinatorKilled) {
			t.Fatalf("campaign returned %v, want ErrCoordinatorKilled", err)
		}
	case <-time.After(overlapWait):
		t.Fatal("killed campaign did not return")
	}
	ctx, cancel := context.WithTimeout(context.Background(), overlapWait)
	defer cancel()
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	c2, addr2 := startOverlap(t, fleet.Options{Resume: true}, nil, jpath)
	startOverlapAgent(t, addr2)
	waitOverlapProbes(t, c2)
	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()
	rep, err := c2.RunCampaign(rctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || len(rep.Gaps) != 0 {
		t.Fatalf("resumed campaign: %s", rep.Summary())
	}
	if got := mustMarshal(t, rep.Histogram); !bytes.Equal(got, want) {
		t.Errorf("resumed report differs from the fault-free merge\ngot:  %s\nwant: %s", got, want)
	}
	// Cell 0 was fsynced by the held fsync; cell 1, handled in its
	// window, was never written.
	if rep.Replayed != 1 {
		t.Errorf("resume replayed %d cells, want 1", rep.Replayed)
	}
}

func startOverlapAgent(t *testing.T, addr string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	a := &fleet.ProbeAgent{ID: "p1", Coordinator: addr, HeartbeatInterval: 50 * time.Millisecond}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = a.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

func waitOverlapProbes(t *testing.T, c *fleet.Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), overlapWait)
	defer cancel()
	if err := c.WaitForProbes(ctx, 1); err != nil {
		t.Fatal(err)
	}
}
