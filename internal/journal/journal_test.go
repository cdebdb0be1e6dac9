package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type header struct {
	Kind    string `json:"kind"`
	Version int    `json:"v"`
	Label   string `json:"label"`
}

type item struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
}

// writeRecords frames records into a fresh file as they are — no
// header of the writer's own — so tests can build any structure.
func writeRecords(t *testing.T, records ...any) string {
	t.Helper()
	var raw []byte
	for _, r := range records {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, Frame(payload)...)
	}
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadFile parses the file at path.
func loadFile(t *testing.T, path string, wantVersion int) (*State, error) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return Parse(raw, wantVersion)
}

func TestRoundTrip(t *testing.T) {
	path := writeRecords(t,
		&header{Kind: "header", Version: 1, Label: "x"},
		&item{Kind: "cell", Key: "a"},
		&item{Kind: "gap", Key: "b"},
	)
	st, err := loadFile(t, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Error("clean journal reported truncated")
	}
	if st.Version != 1 {
		t.Errorf("Version = %d, want 1", st.Version)
	}
	if st.Header.Kind != "header" || st.Header.Line != 1 {
		t.Errorf("header record = %+v", st.Header)
	}
	if len(st.Records) != 2 || st.Records[0].Kind != "cell" || st.Records[1].Kind != "gap" {
		t.Errorf("records = %+v", st.Records)
	}
	if st.Records[1].Line != 3 {
		t.Errorf("third record line = %d, want 3", st.Records[1].Line)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.ValidLen != len(raw) {
		t.Errorf("ValidLen = %d, want full %d bytes", st.ValidLen, len(raw))
	}
}

func TestMissingAndEmpty(t *testing.T) {
	ss, err := LoadSegmented(OSFS, filepath.Join(t.TempDir(), "nope"), 1)
	if ss != nil || err != nil {
		t.Errorf("missing file: (%v, %v)", ss, err)
	}
	st, err := Parse(nil, 1)
	if st != nil || err != nil {
		t.Errorf("empty input: (%v, %v)", st, err)
	}
}

func TestTornFinalRecord(t *testing.T) {
	path := writeRecords(t,
		&header{Kind: "header", Version: 1},
		&item{Kind: "cell", Key: "a"},
		&item{Kind: "cell", Key: "b"},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := raw[:len(raw)-5]
	st, err := Parse(torn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated {
		t.Error("torn tail not flagged")
	}
	if len(st.Records) != 1 {
		t.Errorf("records = %d, want 1 (torn record dropped)", len(st.Records))
	}
	// ValidLen must point at the end of the last intact record, so that
	// truncate-then-append resumes cleanly: the verified prefix itself
	// must re-parse without truncation.
	again, err := Parse(torn[:st.ValidLen], 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Truncated || len(again.Records) != 1 {
		t.Errorf("verified prefix re-parse: truncated=%v records=%d", again.Truncated, len(again.Records))
	}
}

// A verified final record that merely lost its trailing newline is
// kept: only an actually-damaged tail is dropped.
func TestFinalRecordWithoutNewline(t *testing.T) {
	path := writeRecords(t,
		&header{Kind: "header", Version: 1},
		&item{Kind: "cell", Key: "a"},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Parse(raw[:len(raw)-1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated || len(st.Records) != 1 {
		t.Errorf("intact newline-less tail: truncated=%v records=%d", st.Truncated, len(st.Records))
	}
}

func TestCorruptionFailsLoudly(t *testing.T) {
	path := writeRecords(t,
		&header{Kind: "header", Version: 1},
		&item{Kind: "cell", Key: "a"},
		&item{Kind: "cell", Key: "b"},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x01
	lines[1] = string(mid)
	_, err = Parse([]byte(strings.Join(lines, "")), 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Line != 2 {
		t.Errorf("corrupt error = %#v, want line 2", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("message %q does not name the damaged line", err.Error())
	}
}

func TestMissingHeader(t *testing.T) {
	path := writeRecords(t, &item{Kind: "cell", Key: "a"})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Parse(raw, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDuplicateHeader(t *testing.T) {
	path := writeRecords(t,
		&header{Kind: "header", Version: 1},
		&header{Kind: "header", Version: 1},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Parse(raw, 1)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "duplicate header") {
		t.Errorf("err = %v, want duplicate-header ErrCorrupt", err)
	}
}

// A future-versioned header — written by a newer build — is refused
// with a typed *VersionError whose message names both the journal's
// version and the version this build speaks, so an operator can tell
// which side is stale.
func TestFutureVersionRejectedNamingBothVersions(t *testing.T) {
	path := writeRecords(t, &header{Kind: "header", Version: 7})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Parse(raw, 1)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *VersionError", err)
	}
	if ve.Got != 7 || ve.Want != 1 {
		t.Errorf("VersionError = %+v, want Got=7 Want=1", ve)
	}
	for _, n := range []string{"7", "1"} {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("message %q does not name version %s", err.Error(), n)
		}
	}
	if errors.Is(err, ErrCorrupt) {
		t.Error("version skew must not read as corruption")
	}
}

func TestFrameParseLineRoundTrip(t *testing.T) {
	payload := []byte(`{"kind":"cell","key":"a"}`)
	line := Frame(payload)
	if !bytes.HasSuffix(line, []byte("\n")) {
		t.Fatalf("frame %q lacks newline", line)
	}
	kind, got, err := ParseLine(strings.TrimSuffix(string(line), "\n"))
	if err != nil || kind != "cell" || !bytes.Equal(got, payload) {
		t.Errorf("round trip: kind=%q payload=%q err=%v", kind, got, err)
	}
}

func TestParseLineRejects(t *testing.T) {
	cases := []string{
		"short",
		"deadbeef{}",
		"zzzzzzzz {}",
		fmt.Sprintf("%08x %s", uint32(0), "{}"), // CRC mismatch
		strings.TrimSuffix(string(Frame([]byte("not json"))), "\n"),
	}
	for _, line := range cases {
		if _, _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) accepted", line)
		}
	}
}

// A nil writer (journaling disabled) must accept every call.
func TestNilWriterIsNoOp(t *testing.T) {
	var w *SegmentedWriter
	if err := w.Append(&item{Kind: "cell"}); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if err := w.WriteRaw([]byte("x")); err != nil {
		t.Errorf("nil WriteRaw: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if f := w.Fault(); f != "" {
		t.Errorf("nil Fault = %q", f)
	}
}

// WriteRaw of a half frame models a crash mid-write; the torn tail must
// be dropped on the next load, and resuming truncates it away.
func TestWriteRawTearAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	opts := SegmentedOptions{Version: 1, Header: &header{Kind: "header", Version: 1}}
	w, err := OpenSegmented(OSFS, path, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	frame := Frame([]byte(`{"kind":"cell","key":"a"}`))
	if err := w.WriteRaw(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := LoadSegmented(OSFS, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || len(st.Records) != 0 {
		t.Fatalf("torn journal: truncated=%v records=%d", st.Truncated, len(st.Records))
	}
	w, err = OpenSegmented(OSFS, path, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&item{Kind: "cell", Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := loadFile(t, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Truncated || len(again.Records) != 1 {
		t.Errorf("after truncate+append: truncated=%v records=%d", again.Truncated, len(again.Records))
	}
}
