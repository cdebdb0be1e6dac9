package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

type segTestHeader struct {
	Kind string `json:"kind"`
	V    int    `json:"v"`
	Name string `json:"name"`
}

type segTestRec struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

const segTestVersion = 3

func segHeader() *segTestHeader { return &segTestHeader{Kind: "header", V: segTestVersion, Name: "t"} }

func segOpts(segmentBytes int) SegmentedOptions {
	return SegmentedOptions{SegmentBytes: segmentBytes, Version: segTestVersion, Header: segHeader()}
}

func mustOpen(t *testing.T, base string, prior *SegmentedState, segmentBytes int) *SegmentedWriter {
	t.Helper()
	w, err := OpenSegmented(OSFS, base, prior, segOpts(segmentBytes))
	if err != nil {
		t.Fatalf("OpenSegmented: %v", err)
	}
	return w
}

func mustLoad(t *testing.T, base string) *SegmentedState {
	t.Helper()
	st, err := LoadSegmented(OSFS, base, segTestVersion)
	if err != nil {
		t.Fatalf("LoadSegmented: %v", err)
	}
	return st
}

// recordNs extracts the N fields of every record, in order.
func recordNs(t *testing.T, st *SegmentedState) []int {
	t.Helper()
	if st == nil {
		return nil
	}
	var ns []int
	for _, rec := range st.Records {
		var r segTestRec
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			t.Fatalf("record %d: %v", rec.Line, err)
		}
		ns = append(ns, r.N)
	}
	return ns
}

func wantNs(t *testing.T, st *SegmentedState, want int) {
	t.Helper()
	ns := recordNs(t, st)
	if len(ns) != want {
		t.Fatalf("got %d records (%v), want %d", len(ns), ns, want)
	}
	for i, n := range ns {
		if n != i {
			t.Fatalf("record order %v, want 0..%d", ns, want-1)
		}
	}
}

func TestSegmentedFreshRotateAndReload(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 128)
	const total = 40
	for i := 0; i < total; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := listSegments(OSFS, base)
	if len(segs) != 1 {
		t.Fatalf("live segments = %v, want exactly one", segs)
	}
	if segs[0].idx < 2 {
		t.Fatalf("no rotation happened: live segment %d", segs[0].idx)
	}
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Fatalf("legacy file present in segmented layout: %v", err)
	}
	st := mustLoad(t, base)
	wantNs(t, st, total)
	if st.Seg != segs[0].idx {
		t.Errorf("recovered from segment %d, want %d", st.Seg, segs[0].idx)
	}
	// The whole journal verifies clean.
	vr, err := Verify(OSFS, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := vr.Worst(); got != VerdictClean {
		t.Errorf("Worst() = %v, want clean", got)
	}
}

func TestSegmentedResumeContinuesTail(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 200)
	for i := 0; i < 10; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	st := mustLoad(t, base)
	wantNs(t, st, 10)
	w = mustOpen(t, base, st, 200)
	for i := 10; i < 30; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	wantNs(t, mustLoad(t, base), 30)
}

func TestLegacyMigrationToSegments(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	// A legacy single-file journal (no rotation requested).
	w := mustOpen(t, base, nil, 0)
	for i := 0; i < 5; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	st := mustLoad(t, base)
	if st.Seg != 0 {
		t.Fatalf("legacy journal recovered as segment %d", st.Seg)
	}
	wantNs(t, st, 5)

	// Resuming with rotation enabled migrates to segment 1 and removes
	// the legacy file.
	w = mustOpen(t, base, st, 1<<20)
	for i := 5; i < 8; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Fatalf("legacy file survived migration: %v", err)
	}
	st = mustLoad(t, base)
	if st.Seg != 1 {
		t.Fatalf("migrated journal recovered from segment %d, want 1", st.Seg)
	}
	wantNs(t, st, 8)
}

func TestSegmentedTornTailTruncatedOnResume(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 1<<20)
	for i := 0; i < 3; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Tear a fourth record mid-payload through the raw seam.
	payload, _ := json.Marshal(&segTestRec{Kind: "rec", N: 3})
	frame := Frame(payload)
	if err := w.WriteRaw(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	w.Close()

	st := mustLoad(t, base)
	if !st.Truncated {
		t.Fatal("torn tail not flagged")
	}
	wantNs(t, st, 3)
	w = mustOpen(t, base, st, 1<<20)
	if err := w.Append(&segTestRec{Kind: "rec", N: 3}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st = mustLoad(t, base)
	if st.Truncated {
		t.Fatal("still truncated after resume")
	}
	wantNs(t, st, 4)
}

// A verified final record that lost only its trailing newline is kept,
// and resume restores the byte so the on-disk journal converges with an
// uninterrupted run.
func TestSegmentedNewlineLossRestored(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 1<<20)
	for i := 0; i < 2; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	path := segmentPath(base, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustLoad(t, base)
	if st.Truncated || !st.NeedsNewline {
		t.Fatalf("truncated=%v needsNewline=%v", st.Truncated, st.NeedsNewline)
	}
	wantNs(t, st, 2)
	w = mustOpen(t, base, st, 1<<20)
	if err := w.Append(&segTestRec{Kind: "rec", N: 2}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	wantNs(t, mustLoad(t, base), 3)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(raw)+lineLen(mustFrame(t, &segTestRec{Kind: "rec", N: 2})) {
		t.Errorf("resumed journal is %d bytes, want %d", len(got),
			len(raw)+lineLen(mustFrame(t, &segTestRec{Kind: "rec", N: 2})))
	}
}

func mustFrame(t *testing.T, v any) []byte {
	t.Helper()
	p, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A crash in the rotation window can leave a newer segment without its
// checkpoint (entry durable, content not): recovery must ignore it,
// recover from the older checkpointed segment, and clean it up on open.
func TestRotationCasualtyIgnoredAndRemoved(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 1<<20)
	for i := 0; i < 4; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"empty", nil},
		{"torn header", []byte("deadbeef {\"kind\":\"hea")},
		{"header only", Frame(mustJSON(t, segHeader()))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			casualty := segmentPath(base, 2)
			if err := os.WriteFile(casualty, tc.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			st := mustLoad(t, base)
			if st.Seg != 1 {
				t.Fatalf("recovered from segment %d, want 1", st.Seg)
			}
			wantNs(t, st, 4)
			if len(st.Dead) != 1 || st.Dead[0] != casualty {
				t.Fatalf("Dead = %v, want [%s]", st.Dead, casualty)
			}
			w := mustOpen(t, base, st, 1<<20)
			w.Close()
			if _, err := os.Stat(casualty); !os.IsNotExist(err) {
				t.Fatalf("casualty not removed: %v", err)
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	p, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// If the migration's first segment never became durable, the legacy
// file is still the truth.
func TestMigrationCrashFallsBackToLegacy(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 0)
	for i := 0; i < 3; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Half-written segment 1: header landed, checkpoint did not.
	if err := os.WriteFile(segmentPath(base, 1), Frame(mustJSON(t, segHeader())), 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustLoad(t, base)
	if st.Seg != 0 {
		t.Fatalf("recovered from segment %d, want legacy", st.Seg)
	}
	wantNs(t, st, 3)
	if len(st.Dead) != 1 {
		t.Fatalf("Dead = %v, want the half-migrated segment", st.Dead)
	}
}

// Corruption in the middle of the recovery-root segment fails loudly —
// a casualty classification must never swallow real damage.
func TestSegmentCorruptionFailsLoudly(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 1<<20)
	for i := 0; i < 4; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	path := segmentPath(base, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, lerr := LoadSegmented(OSFS, base, segTestVersion)
	if !errors.Is(lerr, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", lerr)
	}
}

func TestSummarizeHookCompactsCheckpoint(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	opts := segOpts(64)
	opts.Summarize = func(payloads []json.RawMessage) ([]json.RawMessage, error) {
		// Keep only even-N records.
		var out []json.RawMessage
		for _, p := range payloads {
			var r segTestRec
			if err := json.Unmarshal(p, &r); err != nil {
				return nil, err
			}
			if r.N%2 == 0 {
				out = append(out, p)
			}
		}
		return out, nil
	}
	w, err := OpenSegmented(OSFS, base, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	st := mustLoad(t, base)
	for _, n := range recordNs(t, st) {
		if n%2 != 0 && n < 18 {
			// Odd records can only survive in the live tail (not yet
			// checkpointed); anything older must have been dropped.
			t.Fatalf("odd record %d survived a summarized checkpoint", n)
		}
	}
}

// S1: empty (zero-byte) and header-only journals read the same way
// everywhere: empty = nothing to resume and nothing to clobber;
// header-only = an existing journal that resumes to zero records.
func TestEmptyAndHeaderOnlySemantics(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if hasState(OSFS, empty) {
		t.Error("zero-byte journal reported as existing state")
	}
	if st := mustLoad(t, empty); st != nil {
		t.Errorf("zero-byte journal loaded as %+v, want nil", st)
	}

	headerOnly := filepath.Join(dir, "header-only")
	w := mustOpen(t, headerOnly, nil, 0)
	w.Close()
	if !hasState(OSFS, headerOnly) {
		t.Error("header-only journal reported as no state")
	}
	st := mustLoad(t, headerOnly)
	if st == nil || len(st.Records) != 0 || st.Truncated {
		t.Errorf("header-only journal loaded as %+v", st)
	}

	missing := filepath.Join(dir, "missing")
	if hasState(OSFS, missing) {
		t.Error("missing journal reported as existing state")
	}
	if st := mustLoad(t, missing); st != nil {
		t.Errorf("missing journal loaded as %+v, want nil", st)
	}

	// Segmented layout: a zero-byte segment is no state either.
	segBase := filepath.Join(dir, "seg")
	if err := os.WriteFile(segmentPath(segBase, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if hasState(OSFS, segBase) {
		t.Error("zero-byte segment reported as existing state")
	}
	if st := mustLoad(t, segBase); st != nil {
		t.Errorf("zero-byte segment loaded as %+v, want nil", st)
	}
}

// Creating a journal fsyncs its directory, so a crash right after the
// create cannot lose the entry; re-opening an existing file to resume
// it does not fsync the directory again.
func TestOpenAppendFsyncsDirOnCreate(t *testing.T) {
	dir := t.TempDir()
	rec := &opRecorder{FS: OSFS}
	path := filepath.Join(dir, "j")
	w, err := OpenSegmented(rec, path, nil, segOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	want := []string{"create:j", "syncdir", "write:j", "sync:j"}
	if fmt.Sprint(rec.ops) != fmt.Sprint(want) {
		t.Errorf("create ops = %v, want %v", rec.ops, want)
	}
	rec.ops = nil
	w, err = OpenSegmented(rec, path, mustLoad(t, path), segOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if fmt.Sprint(rec.ops) != fmt.Sprint([]string{"create:j"}) {
		t.Errorf("reopen ops = %v, want [create:j]", rec.ops)
	}
}
