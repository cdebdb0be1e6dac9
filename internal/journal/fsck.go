package journal

import (
	"fmt"
)

// The fsck surface: structural verification, conservative repair and
// offline compaction over any journal this package can write, whatever
// its number of segments. cmd/memjournal is a
// thin shell over these; the chaos suites call them directly to prove
// every journal they produce verifies clean and every injected fault
// yields a typed verdict.

// FileVerdict classifies one journal file.
type FileVerdict int

const (
	// VerdictClean: every record verifies, structure is sound.
	VerdictClean FileVerdict = iota
	// VerdictEmpty: zero bytes with nothing older holding bytes —
	// created but never written. Harmless.
	VerdictEmpty
	// VerdictTornTail: all records verify except a torn final one, the
	// expected signature of a crash mid-write. Repair truncates it.
	VerdictTornTail
	// VerdictCasualty: a rotation casualty — a segment newer than the
	// oldest one holding bytes whose header or checkpoint never became
	// durable. Recovery ignores it; repair quarantines it.
	VerdictCasualty
	// VerdictCorrupt: damage before the final record, a missing header
	// on the oldest segment holding bytes, or broken checkpoint
	// structure. Never
	// produced by a crash alone; repair quarantines, resume refuses.
	VerdictCorrupt
)

func (v FileVerdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictEmpty:
		return "empty"
	case VerdictTornTail:
		return "torn-tail"
	case VerdictCasualty:
		return "rotation-casualty"
	case VerdictCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Severity orders verdicts: 0 for clean and empty, 1 for repairable
// crash debris (torn tail, rotation casualty), 2 for corruption.
func (v FileVerdict) Severity() int {
	switch v {
	case VerdictTornTail, VerdictCasualty:
		return 1
	case VerdictCorrupt:
		return 2
	}
	return 0
}

// FileReport is the verdict on one journal file.
type FileReport struct {
	Path string
	// Seg is the file's segment index; 0 is the file at base itself.
	Seg  int
	Size int
	// Version is the header's format version when one decoded.
	Version int
	// Records counts verified tail records (after header and
	// checkpoint); CheckpointRecords counts payloads the checkpoint
	// bundles.
	Records           int
	Checkpoint        bool
	CheckpointRecords int
	// ValidLen is the verified byte prefix (what repair truncates a
	// torn tail to).
	ValidLen int
	Verdict  FileVerdict
	// Detail names the specific failure for non-clean verdicts.
	Detail string
}

// VerifyReport is the verdict on a whole journal.
type VerifyReport struct {
	Base  string
	Files []FileReport
}

// Worst returns the most severe verdict across all files.
func (r *VerifyReport) Worst() FileVerdict {
	worst := VerdictClean
	for _, f := range r.Files {
		if f.Verdict.Severity() > worst.Severity() ||
			(f.Verdict.Severity() == worst.Severity() && f.Verdict > worst) {
			worst = f.Verdict
		}
	}
	return worst
}

// Verify walks every segment of the journal at base and reports a
// per-file verdict under the same trust rule recovery applies. It is
// version-soft (headers are decoded and reported, not enforced) so it
// can audit journals other packages own. The error return is for real
// I/O failures or a journal with no files at all; damage is reported in
// verdicts, never as an error.
func Verify(fsys FS, base string) (*VerifyReport, error) {
	if fsys == nil {
		fsys = OSFS
	}
	segs, err := readSegments(fsys, base)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("journal: no journal at %s", base)
	}
	rep := &VerifyReport{Base: base}
	oldest := true
	for _, s := range segs {
		ss, verdict, err := s.judge(AnyVersion, oldest)
		oldest = oldest && len(s.raw) == 0
		fr := FileReport{Path: s.path, Seg: s.idx, Size: len(s.raw), Verdict: verdict}
		if err != nil {
			fr.Detail = err.Error()
		}
		if ss != nil {
			fr.Version, fr.ValidLen, fr.Records = ss.Version, ss.ValidLen, len(ss.Records)
			if ss.checkpointed >= 0 {
				fr.Checkpoint, fr.CheckpointRecords = true, ss.checkpointed
				fr.Records -= ss.checkpointed
			}
		}
		rep.Files = append(rep.Files, fr)
	}
	return rep, nil
}

// RepairReport records what Repair changed.
type RepairReport struct {
	// Truncated lists files whose torn tails were cut back to their
	// verified prefix.
	Truncated []string
	// Quarantined lists files renamed aside to <path>.bad.
	Quarantined []string
}

// Repair makes the journal at base load cleanly using only operations
// that cannot destroy verified records: torn tails are truncated to
// their verified prefix, casualties and corrupt files are renamed
// aside to <path>.bad for post-mortem. Valid bytes are never
// rewritten. Empty files are left alone.
func Repair(fsys FS, base string) (*RepairReport, error) {
	if fsys == nil {
		fsys = OSFS
	}
	vr, err := Verify(fsys, base)
	if err != nil {
		return nil, err
	}
	rep := &RepairReport{}
	for _, f := range vr.Files {
		switch f.Verdict {
		case VerdictTornTail:
			if err := fsys.Truncate(f.Path, int64(f.ValidLen)); err != nil {
				return rep, err
			}
			rep.Truncated = append(rep.Truncated, f.Path)
		case VerdictCasualty, VerdictCorrupt:
			if err := fsys.Rename(f.Path, f.Path+".bad"); err != nil {
				return rep, err
			}
			rep.Quarantined = append(rep.Quarantined, f.Path)
		}
	}
	return rep, nil
}

// CompactReport records what Compact produced.
type CompactReport struct {
	// Path is the new single checkpointed segment.
	Path string
	// Records is how many payloads its checkpoint bundles.
	Records int
	// Removed lists the files the compaction superseded and deleted.
	Removed []string
	// DroppedTornTail reports that the source journal ended in a torn
	// record, which compaction (like resume) drops.
	DroppedTornTail bool
}

// Compact rewrites the journal at base offline into one fresh segment:
// the original header verbatim plus a single checkpoint bundling every
// committed record. Version-soft like Verify. The old files are
// removed only after the new segment is durable, so a crash
// mid-compaction recovers to one state or the other, never neither.
func Compact(fsys FS, base string, wantVersion int) (*CompactReport, error) {
	if fsys == nil {
		fsys = OSFS
	}
	st, err := LoadSegmented(fsys, base, wantVersion)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("journal: nothing to compact at %s", base)
	}
	// The header goes down byte-for-byte as it was framed originally —
	// compaction has no vocabulary of its own.
	w := &SegmentedWriter{fsys: fsys, base: base, header: st.Header.Payload}
	ckpt, err := w.checkpoint(st.Records)
	if err != nil {
		return nil, err
	}
	if err := w.startSegment(st.Seg+1, ckpt); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	rep := &CompactReport{Path: w.path, Records: len(st.Records), DroppedTornTail: st.Truncated}
	rep.Removed, err = w.retire(append(st.Dead, st.Path))
	return rep, err
}
