package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numaperf/internal/journal"
)

type rec struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

type hdr struct {
	Kind string `json:"kind"`
	V    int    `json:"v"`
}

// buildJournal writes a journal with the given rotation budget and
// returns its base path.
func buildJournal(t *testing.T, segBytes, records int) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "run.jnl")
	w, err := journal.OpenSegmented(nil, base, nil, journal.SegmentedOptions{
		SegmentBytes: segBytes, Version: 1, Header: &hdr{Kind: "header", V: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := w.Append(&rec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return base
}

// livePath returns the file currently holding the journal's tail.
func livePath(t *testing.T, base string) string {
	t.Helper()
	st, err := journal.LoadSegmented(nil, base, journal.AnyVersion)
	if err != nil || st == nil {
		t.Fatalf("load: (%v, %v)", st, err)
	}
	return st.Path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-verify"},
		{"-verify", "-repair", "x"},
		{"x"},
		{"-bogus", "x"},
	} {
		if code, _, _ := runCLI(t, args...); code != exitUsage {
			t.Errorf("args %v: exit %d, want %d", args, code, exitUsage)
		}
	}
	if code, _, _ := runCLI(t, "-verify", filepath.Join(t.TempDir(), "nope")); code != exitUsage {
		t.Error("missing journal did not exit with a usage/IO error")
	}
}

func TestVerifyCleanJournals(t *testing.T) {
	for _, tc := range []struct {
		name     string
		segBytes int
	}{{"legacy", 0}, {"segmented", 96}} {
		t.Run(tc.name, func(t *testing.T) {
			base := buildJournal(t, tc.segBytes, 12)
			code, out, _ := runCLI(t, "-verify", base)
			if code != exitClean {
				t.Fatalf("exit %d, want clean\n%s", code, out)
			}
			if !strings.Contains(out, "clean") {
				t.Errorf("output missing verdict:\n%s", out)
			}
		})
	}
}

func TestVerifyVersionSkew(t *testing.T) {
	base := buildJournal(t, 0, 3)
	if code, _, _ := runCLI(t, "-verify", "-version", "1", base); code != exitClean {
		t.Errorf("matching -version: exit %d, want clean", code)
	}
	code, out, _ := runCLI(t, "-verify", "-version", "9", base)
	if code != exitVersion {
		t.Errorf("skewed -version: exit %d, want %d\n%s", code, exitVersion, out)
	}
	// Without -version the tool is version-soft.
	if code, _, _ := runCLI(t, "-verify", base); code != exitClean {
		t.Errorf("version-soft verify: exit %d, want clean", code)
	}
}

func TestVerifyTornTailAndRepair(t *testing.T) {
	base := buildJournal(t, 96, 12)
	live := livePath(t, base)
	raw, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(live, append(raw, []byte("deadbeef {\"to")...), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, _ := runCLI(t, "-verify", base)
	if code != exitRepair {
		t.Fatalf("torn tail: exit %d, want %d\n%s", code, exitRepair, out)
	}
	if !strings.Contains(out, "torn-tail") {
		t.Errorf("output missing torn-tail verdict:\n%s", out)
	}

	code, out, _ = runCLI(t, "-repair", base)
	if code != exitClean {
		t.Fatalf("repair: exit %d, want clean\n%s", code, out)
	}
	if !strings.Contains(out, "truncated") {
		t.Errorf("repair did not report the truncation:\n%s", out)
	}
	if code, _, _ := runCLI(t, "-verify", base); code != exitClean {
		t.Error("journal not clean after repair")
	}
}

func TestVerifyCasualtyAndRepairQuarantines(t *testing.T) {
	base := buildJournal(t, 96, 12)
	st, err := journal.LoadSegmented(nil, base, journal.AnyVersion)
	if err != nil {
		t.Fatal(err)
	}
	casualty := fmt.Sprintf("%s.%06d", base, st.Seg+1)
	if err := os.WriteFile(casualty, []byte("dead"), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, _ := runCLI(t, "-verify", base)
	if code != exitRepair {
		t.Fatalf("casualty: exit %d, want %d\n%s", code, exitRepair, out)
	}
	if !strings.Contains(out, "rotation-casualty") {
		t.Errorf("output missing casualty verdict:\n%s", out)
	}

	code, out, _ = runCLI(t, "-repair", base)
	if code != exitClean {
		t.Fatalf("repair: exit %d, want clean\n%s", code, out)
	}
	if !strings.Contains(out, "quarantined") {
		t.Errorf("repair did not report the quarantine:\n%s", out)
	}
	if _, err := os.Stat(casualty + ".bad"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
}

func TestVerifyCorrupt(t *testing.T) {
	base := buildJournal(t, 0, 6)
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the first record line — unambiguous corruption.
	firstNL := bytes.IndexByte(raw, '\n')
	raw[firstNL+10] ^= 0x01
	if err := os.WriteFile(base, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, "-verify", base)
	if code != exitCorrupt {
		t.Fatalf("exit %d, want %d\n%s", code, exitCorrupt, out)
	}
	if !strings.Contains(out, "corrupt") {
		t.Errorf("output missing corrupt verdict:\n%s", out)
	}
}

func TestCompact(t *testing.T) {
	base := buildJournal(t, 96, 20)
	code, out, _ := runCLI(t, "-compact", base)
	if code != exitClean {
		t.Fatalf("compact: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "compacted 20 record(s)") {
		t.Errorf("compact output:\n%s", out)
	}
	st, err := journal.LoadSegmented(nil, base, 1)
	if err != nil || st == nil || len(st.Records) != 20 {
		t.Fatalf("post-compact load: (%+v, %v)", st, err)
	}
	if code, _, _ := runCLI(t, "-verify", base); code != exitClean {
		t.Error("journal not clean after compact")
	}
}

// A rotation casualty sitting where -compact writes its segment is
// rebuilt in place; the compacted journal must survive the cleanup.
func TestCompactOverCasualty(t *testing.T) {
	base := buildJournal(t, 96, 20)
	st, err := journal.LoadSegmented(nil, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	casualty := fmt.Sprintf("%s.%06d", base, st.Seg+1)
	if err := os.WriteFile(casualty, []byte("dead"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, "-compact", base)
	if code != exitClean {
		t.Fatalf("compact: exit %d\n%s", code, out)
	}
	if strings.Contains(out, "removed "+casualty) {
		t.Errorf("compact removed its own output:\n%s", out)
	}
	after, err := journal.LoadSegmented(nil, base, 1)
	if err != nil || after == nil || len(after.Records) != 20 {
		t.Fatalf("post-compact load: (%+v, %v)", after, err)
	}
}
