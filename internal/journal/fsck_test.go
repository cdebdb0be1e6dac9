package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildSegmented writes a rotated journal and returns its base.
func buildSegmented(t *testing.T, records int) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 128)
	for i := 0; i < records; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	return base
}

func TestVerifyCleanJournals(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "j")
		w := mustOpen(t, base, nil, 0)
		for i := 0; i < 3; i++ {
			if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		vr, err := Verify(OSFS, base)
		if err != nil {
			t.Fatal(err)
		}
		if vr.Worst() != VerdictClean {
			t.Fatalf("Worst = %v, want clean", vr.Worst())
		}
		if len(vr.Files) != 1 || vr.Files[0].Records != 3 || vr.Files[0].Seg != 0 {
			t.Fatalf("files = %+v", vr.Files)
		}
		if vr.Files[0].Version != segTestVersion {
			t.Errorf("Version = %d, want %d", vr.Files[0].Version, segTestVersion)
		}
	})
	t.Run("segmented", func(t *testing.T) {
		base := buildSegmented(t, 40)
		vr, err := Verify(OSFS, base)
		if err != nil {
			t.Fatal(err)
		}
		if vr.Worst() != VerdictClean {
			t.Fatalf("Worst = %v, want clean", vr.Worst())
		}
		f := vr.Files[len(vr.Files)-1]
		if !f.Checkpoint {
			t.Errorf("rotated segment has no checkpoint: %+v", f)
		}
		if f.CheckpointRecords+f.Records == 0 {
			t.Errorf("no records accounted: %+v", f)
		}
	})
}

func TestVerifyVerdicts(t *testing.T) {
	t.Run("missing journal", func(t *testing.T) {
		if _, err := Verify(OSFS, filepath.Join(t.TempDir(), "nope")); err == nil {
			t.Fatal("want error for missing journal")
		}
	})
	t.Run("empty legacy", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(base, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		vr, err := Verify(OSFS, base)
		if err != nil {
			t.Fatal(err)
		}
		if vr.Worst() != VerdictEmpty {
			t.Fatalf("Worst = %v, want empty", vr.Worst())
		}
	})
	t.Run("torn tail", func(t *testing.T) {
		base := buildSegmented(t, 10)
		st := mustLoad(t, base)
		raw, err := os.ReadFile(st.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path, append(raw, []byte("deadbeef {\"ki")...), 0o644); err != nil {
			t.Fatal(err)
		}
		vr, err := Verify(OSFS, base)
		if err != nil {
			t.Fatal(err)
		}
		if vr.Worst() != VerdictTornTail {
			t.Fatalf("Worst = %v, want torn-tail", vr.Worst())
		}
	})
	t.Run("rotation casualty", func(t *testing.T) {
		base := buildSegmented(t, 10)
		st := mustLoad(t, base)
		if err := os.WriteFile(segmentPath(base, st.Seg+1), []byte("dead"), 0o644); err != nil {
			t.Fatal(err)
		}
		vr, err := Verify(OSFS, base)
		if err != nil {
			t.Fatal(err)
		}
		if vr.Worst() != VerdictCasualty {
			t.Fatalf("Worst = %v, want rotation-casualty", vr.Worst())
		}
	})
	t.Run("corrupt middle", func(t *testing.T) {
		// A legacy journal with several records; flip a byte in the first
		// record line (never the final one), which is unambiguously
		// corruption rather than a torn tail.
		base := filepath.Join(t.TempDir(), "j")
		w := mustOpen(t, base, nil, 0)
		for i := 0; i < 4; i++ {
			if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		raw, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		firstNL := 0
		for raw[firstNL] != '\n' {
			firstNL++
		}
		raw[firstNL+10] ^= 0x01
		if err := os.WriteFile(base, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		vr, err := Verify(OSFS, base)
		if err != nil {
			t.Fatal(err)
		}
		if vr.Worst() != VerdictCorrupt {
			t.Fatalf("Worst = %v, want corrupt", vr.Worst())
		}
	})
}

func TestRepair(t *testing.T) {
	base := buildSegmented(t, 10)
	st := mustLoad(t, base)
	before := recordNs(t, st)

	// Injure the journal three ways: a torn tail on the live segment, a
	// rotation casualty above it, and stray garbage one higher.
	raw, err := os.ReadFile(st.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path, append(raw, []byte("deadbeef {\"to")...), 0o644); err != nil {
		t.Fatal(err)
	}
	casualty := segmentPath(base, st.Seg+1)
	if err := os.WriteFile(casualty, []byte("dead"), 0o644); err != nil {
		t.Fatal(err)
	}

	rr, err := Repair(OSFS, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Truncated) != 1 || rr.Truncated[0] != st.Path {
		t.Errorf("Truncated = %v, want [%s]", rr.Truncated, st.Path)
	}
	if len(rr.Quarantined) != 1 || rr.Quarantined[0] != casualty {
		t.Errorf("Quarantined = %v, want [%s]", rr.Quarantined, casualty)
	}
	if _, err := os.Stat(casualty + ".bad"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}

	// Post-repair the journal verifies clean and loads to the same
	// records — repair never touches verified bytes.
	vr, err := Verify(OSFS, base)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Worst() != VerdictClean {
		t.Fatalf("post-repair Worst = %v, want clean", vr.Worst())
	}
	after := recordNs(t, mustLoad(t, base))
	if len(after) != len(before) {
		t.Fatalf("records changed across repair: %v -> %v", before, after)
	}
}

func TestCompact(t *testing.T) {
	base := buildSegmented(t, 25)
	st := mustLoad(t, base)
	before := recordNs(t, st)

	cr, err := Compact(OSFS, base, segTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Records != len(before) {
		t.Errorf("compacted %d records, want %d", cr.Records, len(before))
	}
	if cr.DroppedTornTail {
		t.Error("DroppedTornTail on a clean journal")
	}
	segs := listSegments(OSFS, base)
	if len(segs) != 1 || segs[0].path != cr.Path {
		t.Fatalf("segments after compact = %v, want just %s", segs, cr.Path)
	}
	after := mustLoad(t, base)
	if got := recordNs(t, after); len(got) != len(before) {
		t.Fatalf("records changed across compact: %v -> %v", before, got)
	}
	// The compacted journal verifies clean and is resumable.
	vr, err := Verify(OSFS, base)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Worst() != VerdictClean {
		t.Fatalf("post-compact Worst = %v, want clean", vr.Worst())
	}
	w := mustOpen(t, base, after, 1<<20)
	if err := w.Append(&segTestRec{Kind: "rec", N: len(before)}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	wantNs(t, mustLoad(t, base), len(before)+1)
}

// A rotation casualty at the index Compact writes to is rebuilt in
// place: Compact must not delete the segment it just compacted into.
func TestCompactOverCasualtyKeepsItsOutput(t *testing.T) {
	base := buildSegmented(t, 10)
	st := mustLoad(t, base)
	before := recordNs(t, st)
	casualty := segmentPath(base, st.Seg+1)
	if err := os.WriteFile(casualty, Frame(mustJSON(t, segHeader())), 0o644); err != nil {
		t.Fatal(err)
	}
	cr, err := Compact(OSFS, base, segTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Path != casualty {
		t.Fatalf("compacted into %s, want %s", cr.Path, casualty)
	}
	for _, p := range cr.Removed {
		if p == cr.Path {
			t.Fatalf("Removed = %v lists the compacted segment", cr.Removed)
		}
	}
	after := mustLoad(t, base)
	if got := recordNs(t, after); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("records after compact = %v, want %v", got, before)
	}
}

func TestCompactLegacyAndTornTail(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w := mustOpen(t, base, nil, 0)
	for i := 0; i < 4; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Torn final record.
	if err := w.WriteRaw([]byte("deadbeef {\"to")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	cr, err := Compact(OSFS, base, segTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.DroppedTornTail {
		t.Error("torn tail not reported dropped")
	}
	if cr.Records != 4 {
		t.Errorf("compacted %d records, want 4", cr.Records)
	}
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Errorf("legacy file survived compaction: %v", err)
	}
	wantNs(t, mustLoad(t, base), 4)
}

func TestVerdictStrings(t *testing.T) {
	want := map[FileVerdict]string{
		VerdictClean:    "clean",
		VerdictEmpty:    "empty",
		VerdictTornTail: "torn-tail",
		VerdictCasualty: "rotation-casualty",
		VerdictCorrupt:  "corrupt",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), s)
		}
	}
}
