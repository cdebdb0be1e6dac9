package campaign

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numaperf/internal/journal"
)

func testHeader() *journalHeader {
	return &journalHeader{
		Kind: "header", Version: journalVersion,
		ParamName: "threads", Params: []float64{1, 2},
		Events: []string{"A", "B"}, Reps: 2, Mode: "batched", Seed: 7,
	}
}

// writeJournal frames records into a fresh file as they are, so tests
// can build any structure, valid or not.
func writeJournal(t *testing.T, records ...any) string {
	t.Helper()
	var raw []byte
	for _, r := range records {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, journal.Frame(payload)...)
	}
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadJournal recovers the journal at path the way a resuming Run does.
func loadJournal(fsys journal.FS, path string) (*journalState, error) {
	seg, err := journal.LoadSegmented(fsys, path, journalVersion)
	if err != nil || seg == nil {
		return nil, journalOwner.Reflavour(err)
	}
	return convertJournal(seg.State, nil)
}

func TestJournalRoundTrip(t *testing.T) {
	path := writeJournal(t,
		testHeader(),
		&cellRecord{Kind: "cell", Key: "p0/r0/b0",
			Samples: map[string]float64{"A": 1.5}, Bad: map[string]string{"B": "impossible"}},
		&gapRecord{Kind: "gap", Key: "p0/r1/b0", Error: "boom", Events: []string{"A", "B"}},
	)
	st, err := loadJournal(journal.OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	if st.truncated {
		t.Error("clean journal reported truncated")
	}
	if st.completed() != 2 {
		t.Errorf("completed = %d, want 2", st.completed())
	}
	c := st.cells["p0/r0/b0"]
	if c == nil || c.Samples["A"] != 1.5 || c.Bad["B"] != "impossible" {
		t.Errorf("cell record = %+v", c)
	}
	g := st.gaps["p0/r1/b0"]
	if g == nil || g.Error != "boom" || len(g.Events) != 2 {
		t.Errorf("gap record = %+v", g)
	}
	if err := st.header.matches(testHeader()); err != nil {
		t.Errorf("header mismatch against itself: %v", err)
	}
}

func TestJournalMissingAndEmpty(t *testing.T) {
	st, err := loadJournal(journal.OSFS, filepath.Join(t.TempDir(), "nope"))
	if st != nil || err != nil {
		t.Errorf("missing file: (%v, %v)", st, err)
	}
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = loadJournal(journal.OSFS, path)
	if st != nil || err != nil {
		t.Errorf("empty file: (%v, %v)", st, err)
	}
}

func TestJournalTornFinalRecord(t *testing.T) {
	path := writeJournal(t, testHeader(),
		&cellRecord{Kind: "cell", Key: "p0/r0/b0", Samples: map[string]float64{"A": 1}},
		&cellRecord{Kind: "cell", Key: "p0/r1/b0", Samples: map[string]float64{"A": 2}},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final record mid-payload: the crash-mid-write signature.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := loadJournal(journal.OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.truncated {
		t.Error("torn tail not flagged")
	}
	if st.completed() != 1 {
		t.Errorf("completed = %d, want 1 (torn record dropped)", st.completed())
	}
	if _, ok := st.cells["p0/r1/b0"]; ok {
		t.Error("torn record was kept")
	}
}

// A verified final record that merely lost its trailing newline is
// kept: only an actually-damaged tail is dropped.
func TestJournalFinalRecordWithoutNewline(t *testing.T) {
	path := writeJournal(t, testHeader(),
		&cellRecord{Kind: "cell", Key: "p0/r0/b0", Samples: map[string]float64{"A": 1}},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := loadJournal(journal.OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	if st.truncated || st.completed() != 1 {
		t.Errorf("intact newline-less tail: truncated=%v completed=%d", st.truncated, st.completed())
	}
}

func TestJournalCorruptionFailsLoudly(t *testing.T) {
	path := writeJournal(t, testHeader(),
		&cellRecord{Kind: "cell", Key: "p0/r0/b0", Samples: map[string]float64{"A": 1}},
		&cellRecord{Kind: "cell", Key: "p0/r1/b0", Samples: map[string]float64{"A": 2}},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle record's payload: CRC must catch it.
	lines := strings.SplitAfter(string(raw), "\n")
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x01
	lines[1] = string(mid)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadJournal(journal.OSFS, path); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("err = %v, want ErrJournalCorrupt", err)
	}
}

func TestJournalMissingHeader(t *testing.T) {
	path := writeJournal(t,
		&cellRecord{Kind: "cell", Key: "p0/r0/b0", Samples: map[string]float64{"A": 1}},
	)
	if _, err := loadJournal(journal.OSFS, path); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("err = %v, want ErrJournalCorrupt", err)
	}
}

func TestJournalVersionMismatch(t *testing.T) {
	h := testHeader()
	h.Version = journalVersion + 1
	path := writeJournal(t, h)
	if _, err := loadJournal(journal.OSFS, path); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("err = %v, want ErrJournalMismatch", err)
	}
}

func TestHeaderMatches(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*journalHeader)
	}{
		{"param name", func(h *journalHeader) { h.ParamName = "sizes" }},
		{"point count", func(h *journalHeader) { h.Params = h.Params[:1] }},
		{"point value", func(h *journalHeader) { h.Params[1] = 99 }},
		{"reps", func(h *journalHeader) { h.Reps = 5 }},
		{"mode", func(h *journalHeader) { h.Mode = "unlimited" }},
		{"seed", func(h *journalHeader) { h.Seed = 8 }},
		{"event count", func(h *journalHeader) { h.Events = h.Events[:1] }},
		{"event name", func(h *journalHeader) { h.Events[0] = "C" }},
	}
	for _, m := range mutations {
		h := testHeader()
		m.mutate(h)
		err := h.matches(testHeader())
		if !errors.Is(err, ErrJournalMismatch) {
			t.Errorf("%s: err = %v, want ErrJournalMismatch", m.name, err)
		}
	}
}

// The empty/header-only contract, unified with the fleet journal: a
// zero-byte file is "no journal" — a fresh run may claim it and a
// resume starts from scratch — while a header-only journal is existing
// state: fresh runs refuse it, resumes replay zero cells.
func TestJournalEmptyAndHeaderOnlyRunSemantics(t *testing.T) {
	spec := testSpec(testPoint(1, 1))

	t.Run("empty/fresh", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := (&Runner{Spec: spec, Opts: Options{JournalPath: path}}).Run()
		if err != nil {
			t.Fatalf("fresh run refused a zero-byte journal: %v", err)
		}
		if !rep.Complete() {
			t.Fatalf("incomplete: %s", rep.Summary())
		}
	})
	t.Run("empty/resume", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := (&Runner{Spec: spec, Opts: Options{JournalPath: path, Resume: true}}).Run()
		if err != nil {
			t.Fatalf("resume over a zero-byte journal: %v", err)
		}
		if rep.Replayed != 0 || !rep.Complete() {
			t.Fatalf("replayed %d, complete %v; want a from-scratch run", rep.Replayed, rep.Complete())
		}
	})
	headerOnly := func(t *testing.T) string {
		t.Helper()
		return writeJournal(t, (&Runner{Spec: spec}).header())
	}
	t.Run("header-only/fresh", func(t *testing.T) {
		path := headerOnly(t)
		if _, err := (&Runner{Spec: spec, Opts: Options{JournalPath: path}}).Run(); !errors.Is(err, ErrJournalExists) {
			t.Fatalf("err = %v, want ErrJournalExists", err)
		}
	})
	t.Run("header-only/resume", func(t *testing.T) {
		path := headerOnly(t)
		rep, err := (&Runner{Spec: spec, Opts: Options{JournalPath: path, Resume: true}}).Run()
		if err != nil {
			t.Fatalf("resume over a header-only journal: %v", err)
		}
		if rep.Replayed != 0 || !rep.Complete() {
			t.Fatalf("replayed %d, complete %v; want zero replays", rep.Replayed, rep.Complete())
		}
	})
}
