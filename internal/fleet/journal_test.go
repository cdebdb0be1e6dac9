package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"numaperf/internal/journal"
	"numaperf/internal/memhist"
)

func testFleetSpec(cells int) Spec {
	registerPkgTiny()
	return Spec{
		Workload:    "fleet-pkg-tiny",
		Machine:     "2s",
		Bounds:      []uint64{4, 64, 256, 512},
		Cells:       cells,
		RepsPerCell: 1,
		Seed:        42,
	}
}

// cellBody computes the raw response bytes a probe would return for
// cell i — the same pure function of the spec the fleet relies on.
func cellBody(t *testing.T, spec Spec, i int) json.RawMessage {
	t.Helper()
	h, err := memhist.HandleRequest(spec.CellRequest(i))
	if err != nil {
		t.Fatalf("cell %d: %v", i, err)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeFleetJournal frames records into a fresh file as they are, so
// tests can build any structure, valid or not.
func writeFleetJournal(t *testing.T, records ...any) string {
	t.Helper()
	var raw []byte
	for _, r := range records {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, journal.Frame(payload)...)
	}
	path := filepath.Join(t.TempDir(), "fleet.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadFleetJournal recovers the fleet journal at path the way a
// resuming coordinator does.
func loadFleetJournal(fsys journal.FS, path string) (*fleetJournalState, error) {
	seg, err := journal.LoadSegmented(fsys, path, fleetJournalVersion)
	if err != nil || seg == nil {
		return nil, journalOwner.Reflavour(err)
	}
	return convertFleetJournal(seg.State, nil)
}

func TestFleetJournalRoundTrip(t *testing.T) {
	spec := testFleetSpec(3)
	path := writeFleetJournal(t,
		fleetHeaderFor(spec),
		&fleetCellRecord{Kind: "cell", Cell: 0, Probe: "probe-a", Hist: cellBody(t, spec, 0)},
		&fleetProbeRecord{Kind: "probe", ID: "probe-b", Strikes: 1, Reasons: []string{"flap"}},
		&fleetGapRecord{Kind: "gap", Cell: 1, Reason: "fleet: no live probes"},
		&fleetProbeRecord{Kind: "probe", ID: "probe-b", Strikes: 3, Reasons: []string{"flap"}, Quarantined: true},
	)
	st, err := loadFleetJournal(journal.OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	if st.truncated {
		t.Error("clean journal reported truncated")
	}
	if err := st.header.matches(fleetHeaderFor(spec)); err != nil {
		t.Errorf("header mismatch against itself: %v", err)
	}
	if len(st.committed) != 2 {
		t.Fatalf("committed = %d, want 2", len(st.committed))
	}
	if c := st.committed[0].cell; c == nil || c.Probe != "probe-a" {
		t.Errorf("cell 0 = %+v", st.committed[0])
	}
	if g := st.committed[1].gap; g == nil || g.Reason != "fleet: no live probes" {
		t.Errorf("cell 1 = %+v", st.committed[1])
	}
	// The last probe record wins: probe-b's final ledger shows the
	// quarantine, not the intermediate single strike.
	pb := st.probes["probe-b"]
	if pb == nil || pb.Strikes != 3 || !pb.Quarantined {
		t.Errorf("probe-b ledger = %+v", pb)
	}
	if ids := st.probeIDs(); len(ids) != 1 || ids[0] != "probe-b" {
		t.Errorf("probeIDs = %v", ids)
	}
}

func TestFleetJournalMissingAndEmpty(t *testing.T) {
	st, err := loadFleetJournal(journal.OSFS, filepath.Join(t.TempDir(), "nope"))
	if st != nil || err != nil {
		t.Errorf("missing file: (%v, %v)", st, err)
	}
	st, err = parseFleetJournal(nil)
	if st != nil || err != nil {
		t.Errorf("empty input: (%v, %v)", st, err)
	}
}

func TestFleetJournalTornTail(t *testing.T) {
	spec := testFleetSpec(3)
	path := writeFleetJournal(t,
		fleetHeaderFor(spec),
		&fleetCellRecord{Kind: "cell", Cell: 0, Probe: "probe-a", Hist: cellBody(t, spec, 0)},
		&fleetCellRecord{Kind: "cell", Cell: 1, Probe: "probe-a", Hist: cellBody(t, spec, 1)},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseFleetJournal(raw[:len(raw)-7])
	if err != nil {
		t.Fatal(err)
	}
	if !st.truncated || len(st.committed) != 1 {
		t.Errorf("torn tail: truncated=%v committed=%d", st.truncated, len(st.committed))
	}
	// The verified prefix must itself re-parse cleanly — that is what
	// the resume path truncates to before appending.
	generic, err := journal.Parse(raw[:len(raw)-7], fleetJournalVersion)
	if err != nil {
		t.Fatal(err)
	}
	again, err := parseFleetJournal(raw[:generic.ValidLen])
	if err != nil {
		t.Fatal(err)
	}
	if again.truncated || len(again.committed) != 1 {
		t.Errorf("verified prefix: truncated=%v committed=%d", again.truncated, len(again.committed))
	}
}

func TestFleetJournalCorruptMidFile(t *testing.T) {
	spec := testFleetSpec(2)
	path := writeFleetJournal(t,
		fleetHeaderFor(spec),
		&fleetCellRecord{Kind: "cell", Cell: 0, Probe: "probe-a", Hist: cellBody(t, spec, 0)},
		&fleetCellRecord{Kind: "cell", Cell: 1, Probe: "probe-a", Hist: cellBody(t, spec, 1)},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x01
	lines[1] = string(mid)
	if _, err := parseFleetJournal([]byte(strings.Join(lines, ""))); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("err = %v, want ErrJournalCorrupt", err)
	}
}

func TestFleetJournalCanonicalOrderEnforced(t *testing.T) {
	spec := testFleetSpec(3)
	cases := []struct {
		name string
		rec  any
	}{
		{"skipped index", &fleetCellRecord{Kind: "cell", Cell: 1, Probe: "p", Hist: cellBody(t, spec, 1)}},
		{"out-of-range gap", &fleetGapRecord{Kind: "gap", Cell: 7, Reason: "x"}},
		{"duplicate index", nil}, // handled below
	}
	for _, tc := range cases[:2] {
		path := writeFleetJournal(t, fleetHeaderFor(spec), tc.rec)
		if _, err := loadFleetJournal(journal.OSFS, path); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", tc.name, err)
		}
	}
	path := writeFleetJournal(t, fleetHeaderFor(spec),
		&fleetCellRecord{Kind: "cell", Cell: 0, Probe: "p", Hist: cellBody(t, spec, 0)},
		&fleetGapRecord{Kind: "gap", Cell: 0, Reason: "x"},
	)
	if _, err := loadFleetJournal(journal.OSFS, path); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("duplicate index: err = %v, want ErrJournalCorrupt", err)
	}
}

func TestFleetJournalVersionSkewNamesBothVersions(t *testing.T) {
	spec := testFleetSpec(2)
	h := fleetHeaderFor(spec)
	h.Version = fleetJournalVersion + 3
	path := writeFleetJournal(t, h)
	_, err := loadFleetJournal(journal.OSFS, path)
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("err = %v, want ErrJournalMismatch", err)
	}
	msg := err.Error()
	for _, want := range []string{"version 4", "want 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q does not contain %q", msg, want)
		}
	}
}

func TestFleetHeaderMatches(t *testing.T) {
	spec := testFleetSpec(4)
	mutations := []struct {
		name   string
		mutate func(*fleetHeader)
	}{
		{"workload", func(h *fleetHeader) { h.Workload = "other" }},
		{"machine", func(h *fleetHeader) { h.Machine = "4s" }},
		{"threads", func(h *fleetHeader) { h.Threads = 9 }},
		{"bound count", func(h *fleetHeader) { h.Bounds = h.Bounds[:2] }},
		{"bound value", func(h *fleetHeader) { h.Bounds[1] = 99 }},
		{"slice", func(h *fleetHeader) { h.SliceCycles = 77 }},
		{"adaptive", func(h *fleetHeader) { h.Adaptive = true }},
		{"exact", func(h *fleetHeader) { h.Exact = true }},
		{"cells", func(h *fleetHeader) { h.Cells = 11 }},
		{"reps", func(h *fleetHeader) { h.RepsPerCell = 5 }},
		{"seed", func(h *fleetHeader) { h.Seed = 1 }},
	}
	for _, m := range mutations {
		h := fleetHeaderFor(spec)
		m.mutate(h)
		if err := h.matches(fleetHeaderFor(spec)); !errors.Is(err, ErrJournalMismatch) {
			t.Errorf("%s: err = %v, want ErrJournalMismatch", m.name, err)
		}
	}
}

func TestRestoreStrikes(t *testing.T) {
	tr := NewTracker(TrackerOptions{StrikeLimit: 3})
	// A probe unknown to the restarted coordinator enters dead: it owes
	// a registration before it serves cells again.
	if st := tr.RestoreStrikes("probe-a", 2, []string{"blown deadline"}, false); st != Dead {
		t.Errorf("restored unknown probe state = %s, want dead", st)
	}
	// Journaled strikes add to session strikes: one more fault tips it.
	if st := tr.Strike("probe-a", "another fault"); st != Quarantined {
		t.Errorf("strike after restore = %s, want quarantined (2 journaled + 1)", st)
	}
	// A journaled quarantine is reinstated outright, even at zero
	// session strikes.
	if st := tr.RestoreStrikes("probe-b", 5, []string{"flap"}, true); st != Quarantined {
		t.Errorf("restored quarantine = %s", st)
	}
	qs := tr.Quarantines()
	if len(qs) != 2 || qs[0].ID != "probe-a" || qs[1].ID != "probe-b" {
		t.Errorf("quarantines = %+v", qs)
	}
	if qs[1].Strikes != 5 || !strings.Contains(qs[1].Reason, "flap") {
		t.Errorf("probe-b verdict = %+v", qs[1])
	}
}

// TestLedgerSyncSkipsUnchangedLedger: a ledger sync journals each
// strike once, and with the ledger unchanged since the last sync it
// takes no snapshot and allocates nothing.
func TestLedgerSyncSkipsUnchangedLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	jnl, err := journalOwner.Open(journal.Config{Path: path, Segments: journal.SegmentedOptions{
		Version: fleetJournalVersion, Header: fleetHeaderFor(testFleetSpec(1)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	tr := NewTracker(TrackerOptions{StrikeLimit: -1})
	if err := tr.Register("p1", 1, time.Now()); err != nil {
		t.Fatal(err)
	}
	led := &ledger{tracker: tr, jnl: jnl, last: make(map[string]fleetProbeRecord)}
	records := func() int {
		t.Helper()
		st, err := loadFleetJournal(journal.OSFS, path)
		if err != nil {
			t.Fatal(err)
		}
		return st.probes["p1"].Strikes
	}
	for want := 1; want <= 2; want++ {
		tr.Strike("p1", "exceeded cell deadline")
		if err := led.sync(); err != nil {
			t.Fatal(err)
		}
		if got := records(); got != want {
			t.Fatalf("journaled %d strikes, want %d", got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := led.sync(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("sync of an unchanged ledger allocated %.0f times", allocs)
		}
	}
}

// A journal from a previous run must refuse a fresh (non-resume)
// campaign instead of being clobbered.
func TestRunCampaignRefusesExistingJournal(t *testing.T) {
	spec := testFleetSpec(2)
	path := writeFleetJournal(t, fleetHeaderFor(spec))
	c := NewCoordinator(Options{JournalPath: path})
	if _, err := c.RunCampaign(context.Background(), spec); !errors.Is(err, ErrJournalExists) {
		t.Errorf("err = %v, want ErrJournalExists", err)
	}
}

// Resuming against a journal whose header describes another campaign
// must fail with a typed mismatch before touching the fleet.
func TestRunCampaignResumeSpecMismatch(t *testing.T) {
	other := testFleetSpec(2)
	other.Seed = 1234
	path := writeFleetJournal(t, fleetHeaderFor(other))
	c := NewCoordinator(Options{JournalPath: path, Resume: true})
	if _, err := c.RunCampaign(context.Background(), testFleetSpec(2)); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("err = %v, want ErrJournalMismatch", err)
	}
}

// A fully journaled campaign resumes to a complete report with zero
// probes and zero dispatches: every cell replays from the journal, and
// the merged histogram is byte-identical to the local ground truth.
func TestRunCampaignResumeFullyJournaled(t *testing.T) {
	spec := testFleetSpec(3)
	path := writeFleetJournal(t,
		fleetHeaderFor(spec),
		&fleetCellRecord{Kind: "cell", Cell: 0, Probe: "probe-a", Hist: cellBody(t, spec, 0)},
		&fleetCellRecord{Kind: "cell", Cell: 1, Probe: "probe-b", Hist: cellBody(t, spec, 1)},
		&fleetCellRecord{Kind: "cell", Cell: 2, Probe: "probe-a", Hist: cellBody(t, spec, 2)},
	)
	c := NewCoordinator(Options{JournalPath: path, Resume: true})
	rep, err := c.RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Replayed != 3 || rep.Dispatches != 0 {
		t.Fatalf("report = %+v, want 3 replayed cells and no dispatches", rep)
	}
	var hs []*memhist.Histogram
	for i := 0; i < spec.Cells; i++ {
		h, err := memhist.HandleRequest(spec.CellRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	want, err := memhist.MergeHistograms(hs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(rep.Histogram)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("replayed report differs from ground truth\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
	if rep.ProbeCells["probe-a"] != 2 || rep.ProbeCells["probe-b"] != 1 {
		t.Errorf("replayed per-probe accounting = %+v", rep.ProbeCells)
	}
}

// A journaled cell whose histogram bytes do not decode is corruption:
// the resume refuses rather than fabricating a cell.
func TestRunCampaignResumeRejectsMalformedCell(t *testing.T) {
	spec := testFleetSpec(2)
	path := writeFleetJournal(t,
		fleetHeaderFor(spec),
		&fleetCellRecord{Kind: "cell", Cell: 0, Probe: "p", Hist: json.RawMessage(`{"bounds":[1]}`)},
	)
	c := NewCoordinator(Options{JournalPath: path, Resume: true})
	if _, err := c.RunCampaign(context.Background(), spec); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("err = %v, want ErrJournalCorrupt", err)
	}
}

// The empty/header-only contract, unified with the campaign journal: a
// zero-byte file is "no journal" — a fresh campaign may claim it and a
// resume starts from scratch — while a header-only journal is existing
// state: fresh campaigns refuse it, resumes replay zero cells. With no
// probes registered the runs end in ErrNoProbes, which is exactly the
// point: the journal layer let them through.
func TestFleetJournalEmptyAndHeaderOnlyRunSemantics(t *testing.T) {
	spec := testFleetSpec(1)
	opts := func(path string, resume bool) Options {
		return Options{JournalPath: path, Resume: resume,
			NoProbeGrace: 50 * time.Millisecond, Tick: 5 * time.Millisecond}
	}
	run := func(t *testing.T, path string, resume bool) error {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := NewCoordinator(opts(path, resume)).RunCampaign(ctx, spec)
		return err
	}

	t.Run("empty/fresh", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(t, path, false); !errors.Is(err, ErrNoProbes) {
			t.Fatalf("err = %v, want the journal ignored and ErrNoProbes", err)
		}
	})
	t.Run("empty/resume", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(t, path, true); !errors.Is(err, ErrNoProbes) {
			t.Fatalf("err = %v, want a from-scratch run and ErrNoProbes", err)
		}
	})
	t.Run("header-only/fresh", func(t *testing.T) {
		path := writeFleetJournal(t, fleetHeaderFor(spec))
		if err := run(t, path, false); !errors.Is(err, ErrJournalExists) {
			t.Fatalf("err = %v, want ErrJournalExists", err)
		}
	})
	t.Run("header-only/resume", func(t *testing.T) {
		path := writeFleetJournal(t, fleetHeaderFor(spec))
		if err := run(t, path, true); !errors.Is(err, ErrNoProbes) {
			t.Fatalf("err = %v, want zero replays and ErrNoProbes", err)
		}
	})
}
