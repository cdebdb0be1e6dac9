package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segments bound a long campaign's resume cost. With rotation on, the
// live segment rotates at a byte budget into its successor, which opens
// with the owner's header followed by a CHECKPOINT record — a
// CRC-checked bundle of every record committed so far (optionally
// compacted by a Summarize hook). Only the newest segment is ever live;
// older segments are fully summarized by its checkpoint and removed.
// Without rotation the journal is a single segment: segment 0, the file
// at base, carrying no checkpoint. A crash inside a rotation window
// leaves either a newer segment without its checkpoint (a casualty:
// ignored and deleted) or an older segment not yet removed (superseded:
// ignored and deleted) — never two segments that disagree about
// committed records.

// checkpointRecord is the rotation summary: the raw payloads of every
// record committed before this segment's tail, replayed in order on
// load. It sits immediately after the header; a checkpoint anywhere
// else is corruption.
type checkpointRecord struct {
	Kind    string            `json:"kind"`
	Records []json.RawMessage `json:"records"`
}

// lineLen is the framed byte length of one verified record line:
// 8 hex CRC digits, a space, the payload, '\n'.
func lineLen(payload []byte) int { return 8 + 1 + len(payload) + 1 }

// segmentPath names segment idx of the journal at base: segment 0 is
// base itself.
func segmentPath(base string, idx int) string {
	if idx == 0 {
		return base
	}
	return fmt.Sprintf("%s.%06d", base, idx)
}

// segment is one segment file of a journal; raw holds its bytes once
// read.
type segment struct {
	path string
	idx  int
	raw  []byte
}

// listSegments finds base's segments in ascending index order: base
// itself when it exists, then every base.NNNNNN. Quarantined files
// (.bad), base.000000 and anything else that is not exactly six digits
// are not segments.
func listSegments(fsys FS, base string) []segment {
	var segs []segment
	if _, err := fsys.Stat(base); err == nil {
		segs = append(segs, segment{path: base})
	}
	// Glob fails only on a malformed pattern, and this one is fixed.
	matches, _ := fsys.Glob(base + ".??????")
	for _, m := range matches {
		suffix := m[len(m)-6:]
		idx, _ := strconv.Atoi(suffix)
		if strings.Trim(suffix, "0123456789") == "" && idx > 0 {
			segs = append(segs, segment{path: m, idx: idx})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs
}

// hasState reports whether base already holds journal bytes a fresh
// (non-resume) run would clobber: any non-empty segment. Zero-byte
// files do not count — a journal that was created but never written
// resumes as nothing and may be claimed by a fresh run, matching
// LoadSegmented's reading of the same bytes.
func hasState(fsys FS, base string) bool {
	for _, seg := range listSegments(fsys, base) {
		if fi, err := fsys.Stat(seg.path); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}

// readSegments reads every segment of the journal at base, oldest first.
func readSegments(fsys FS, base string) ([]segment, error) {
	var segs []segment
	for _, s := range listSegments(fsys, base) {
		var err error
		s.raw, err = fsys.ReadFile(s.path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		segs = append(segs, s)
	}
	return segs, nil
}

// expandCheckpoint replaces a leading checkpoint record with the
// records it bundles, leaving State.Records flat so owning packages
// replay them with no checkpoint vocabulary of their own. A checkpoint
// anywhere but immediately after the header, or one bundling a header
// or another checkpoint, is corruption.
func expandCheckpoint(st *State) error {
	for i, rec := range st.Records {
		if rec.Kind == "checkpoint" && i != 0 {
			return &CorruptError{Line: rec.Line, Reason: "checkpoint record after the segment tail began"}
		}
	}
	if len(st.Records) == 0 || st.Records[0].Kind != "checkpoint" {
		return nil
	}
	first := st.Records[0]
	var ck checkpointRecord
	if err := json.Unmarshal(first.Payload, &ck); err != nil {
		return &CorruptError{Line: first.Line, Reason: fmt.Sprintf("undecodable checkpoint: %v", err)}
	}
	expanded := make([]Record, 0, len(ck.Records)+len(st.Records)-1)
	for _, payload := range ck.Records {
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(payload, &probe); err != nil {
			return &CorruptError{Line: first.Line, Reason: fmt.Sprintf("undecodable checkpointed record: %v", err)}
		}
		if probe.Kind == "header" || probe.Kind == "checkpoint" {
			return &CorruptError{Line: first.Line, Reason: "checkpoint bundles a " + probe.Kind + " record"}
		}
		expanded = append(expanded, Record{Kind: probe.Kind, Payload: payload, Line: first.Line})
	}
	st.Records = append(expanded, st.Records[1:]...)
	return nil
}

// SegmentedState is a journal recovered across segments: the flattened
// State (checkpoint bundle expanded into Records) plus where the live
// tail is and which files recovery superseded.
type SegmentedState struct {
	*State
	// Seg is the segment the state was recovered from; 0 is the file at
	// base itself.
	Seg int
	// Path is the file holding the recovered tail.
	Path string
	// TailLen is the byte length of the records after the header (and
	// checkpoint, when present) in Path — the part not yet summarized
	// by a checkpoint. Resume and rotation cost are O(TailLen), not
	// O(history).
	TailLen int
	// NeedsNewline reports that Path's final verified record lacks its
	// trailing '\n' (the crash hit between payload and newline).
	// OpenSegmented restores the byte before appending.
	NeedsNewline bool
	// Dead lists files this recovery superseded: crash debris newer than
	// the chosen segment and every older segment. OpenSegmented removes
	// them.
	Dead []string
	// checkpointed counts the records Path's checkpoint bundles; -1
	// when the segment carries no checkpoint.
	checkpointed int
}

// judge applies the one trust rule to a segment. oldest reports that no
// older segment holds bytes. A segment that parses and either carries a
// checkpoint or is the oldest segment holding bytes is a recovery root,
// verdict clean or torn-tail. An empty segment is harmless when oldest
// (created, never written) and a casualty otherwise. A segment newer
// than the oldest one holding bytes whose header or checkpoint never
// landed is a rotation casualty. Anything else is corruption. The state
// is returned whenever the segment parsed; the error says why a segment
// is not clean.
func (s segment) judge(wantVersion int, oldest bool) (*SegmentedState, FileVerdict, error) {
	if len(s.raw) == 0 {
		if oldest {
			return nil, VerdictEmpty, nil
		}
		return nil, VerdictCasualty, errors.New("empty segment (crash between create and header write)")
	}
	st, err := Parse(s.raw, wantVersion)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) && ce.Line == 0 && !oldest {
			return nil, VerdictCasualty, errors.New("torn header write (rotation casualty)")
		}
		return nil, VerdictCorrupt, err
	}
	ss := &SegmentedState{State: st, Seg: s.idx, Path: s.path, checkpointed: -1,
		NeedsNewline: !st.Truncated && s.raw[len(s.raw)-1] != '\n'}
	head := lineLen(st.Header.Payload)
	hasCkpt := len(st.Records) > 0 && st.Records[0].Kind == "checkpoint"
	if hasCkpt {
		head += lineLen(st.Records[0].Payload)
	}
	// Negative when the header or checkpoint is the final record and
	// lost its newline; the tail is empty either way.
	ss.TailLen = max(st.ValidLen-head, 0)
	tail := len(st.Records)
	if err := expandCheckpoint(st); err != nil {
		return nil, VerdictCorrupt, err
	}
	if hasCkpt {
		ss.checkpointed = len(st.Records) - (tail - 1)
	}
	switch {
	case ss.checkpointed < 0 && !oldest && st.Truncated:
		return ss, VerdictCasualty, errors.New("torn checkpoint write (rotation casualty)")
	case ss.checkpointed < 0 && !oldest:
		return ss, VerdictCasualty, errors.New("segment without its checkpoint (crash before the checkpoint landed)")
	case st.Truncated:
		return ss, VerdictTornTail, fmt.Errorf("torn final record dropped (%d of %d bytes verify)", st.ValidLen, len(s.raw))
	}
	return ss, VerdictClean, nil
}

// LoadSegmented recovers the journal at base — one segment or many, or
// the debris of a crash inside a rotation window — under the one trust
// rule (see judge), newest segment first: the first recovery root wins;
// the debris newer than it and every segment older than it are Dead.
// Corruption and version mismatches in a scanned segment fail loudly.
// Zero-byte and missing files mean "nothing to resume": with no segment
// holding bytes the result is (nil, nil).
func LoadSegmented(fsys FS, base string, wantVersion int) (*SegmentedState, error) {
	if fsys == nil {
		fsys = OSFS
	}
	segs, err := readSegments(fsys, base)
	if err != nil {
		return nil, err
	}
	first := len(segs) // the oldest segment holding bytes
	for i, s := range segs {
		if len(s.raw) > 0 {
			first = i
			break
		}
	}
	var dead []string
	for i := len(segs) - 1; i >= 0; i-- {
		ss, verdict, err := segs[i].judge(wantVersion, i <= first)
		switch verdict {
		case VerdictCorrupt:
			return nil, fmt.Errorf("%s: %w", segs[i].path, err)
		case VerdictClean, VerdictTornTail:
			for _, older := range segs[:i] {
				dead = append(dead, older.path)
			}
			ss.Dead = dead
			return ss, nil
		}
		dead = append(dead, segs[i].path)
	}
	// The oldest segment holding bytes is always a root or corrupt, so
	// only empty files are left.
	return nil, nil
}

// SegmentedOptions configures a SegmentedWriter.
type SegmentedOptions struct {
	// SegmentBytes rotates the live segment once its tail — the bytes
	// appended after its checkpoint — reaches this budget. Zero keeps
	// the journal in one segment, the file at base.
	SegmentBytes int
	// Version is the owner's record-format version, used to re-verify
	// the live segment before checkpointing it.
	Version int
	// Header is the owner's header record; the writer frames it at the
	// head of every segment it starts.
	Header any
	// Summarize, when set, compacts the checkpoint bundle at rotation
	// (e.g. keeping only the last of a last-wins record family); nil
	// bundles every payload in file order.
	Summarize func([]json.RawMessage) ([]json.RawMessage, error)
}

// SegmentedWriter is the journal's one writer: it appends CRC-framed
// records to the live segment and rotates into checkpointed successors
// when SegmentBytes is set. Append fsyncs every record; an owner that
// commits several records at once writes each with Write and makes them
// all durable with one Sync. A nil writer (journaling disabled) accepts
// every call as a no-op.
type SegmentedWriter struct {
	fsys   FS
	base   string
	opts   SegmentedOptions
	header []byte // the header payload framed at the head of every segment
	f      File
	path   string
	seg    int
	tail   int
	// unsynced reports bytes written to f since its last fsync.
	unsynced bool

	// The owner's disk-fault policy, armed by Owner.Open.
	owner  *Owner
	strict bool
	logf   func(format string, args ...any)
	fault  string
}

// OpenSegmented opens the journal at base for appending, given the
// state LoadSegmented recovered (nil for a fresh journal). The writer
// owns the header: it frames opts.Header at the head of every segment
// it starts, so callers never append their own. The one layout decision
// is where a fresh journal starts — segment 0 (base) when SegmentBytes
// is zero, segment 1 otherwise:
//
//   - fresh: clear leftover crash debris and start that segment
//   - recovered from an older segment than that (an unsegmented journal
//     resumed with rotation on): checkpoint its records into the start
//     segment, then retire it — a migration is an early rotation
//   - otherwise: truncate any torn tail and keep appending in place
//
// Files the recovery marked Dead are removed once the live file is
// safely established.
func OpenSegmented(fsys FS, base string, prior *SegmentedState, opts SegmentedOptions) (*SegmentedWriter, error) {
	if fsys == nil {
		fsys = OSFS
	}
	hdr, err := json.Marshal(opts.Header)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding header: %w", err)
	}
	w := &SegmentedWriter{fsys: fsys, base: base, opts: opts, header: hdr}
	start := 0
	if opts.SegmentBytes > 0 {
		start = 1
	}
	var superseded []string
	switch {
	case prior == nil:
		for _, seg := range listSegments(fsys, base) {
			if err := fsys.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		if err := w.startSegment(start, nil); err != nil {
			return nil, err
		}
	case prior.Seg < start:
		// A crash anywhere in here leaves either a valid checkpointed
		// segment (which wins) or a casualty (and prior still wins).
		ckpt, err := w.checkpoint(prior.Records)
		if err != nil {
			return nil, err
		}
		if err := w.startSegment(start, ckpt); err != nil {
			return nil, err
		}
		superseded = append([]string{prior.Path}, prior.Dead...)
	default:
		if err := w.resume(prior); err != nil {
			return nil, err
		}
		superseded = prior.Dead
	}
	if _, err := w.retire(superseded); err != nil {
		w.f.Close()
		return nil, err
	}
	return w, nil
}

// resume continues the recovered segment in place: a torn tail is
// truncated to the verified prefix and a lost final newline restored.
func (w *SegmentedWriter) resume(prior *SegmentedState) error {
	if prior.Truncated {
		if err := w.fsys.Truncate(prior.Path, int64(prior.ValidLen)); err != nil {
			return err
		}
	}
	// The recovered segment exists (recovery just read it), so its
	// directory entry is already durable.
	f, err := w.fsys.OpenFile(prior.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f, w.path, w.seg, w.tail = f, prior.Path, prior.Seg, prior.TailLen
	if prior.NeedsNewline {
		_, err := w.f.Write([]byte("\n"))
		if err == nil {
			err = w.f.Sync()
		}
		if err != nil {
			w.f.Close()
			return fmt.Errorf("journal: restoring final newline: %w", err)
		}
		w.tail++
	}
	return nil
}

// retire removes files the live segment supersedes — never the live
// segment itself, which a rebuilt casualty may now be — and returns the
// paths it removed.
func (w *SegmentedWriter) retire(paths []string) ([]string, error) {
	var removed []string
	for _, p := range paths {
		if p == w.path {
			continue
		}
		if err := w.fsys.Remove(p); err != nil && !os.IsNotExist(err) {
			return removed, err
		}
		removed = append(removed, p)
	}
	return removed, nil
}

// checkpoint encodes records as a checkpoint payload, compacted by the
// Summarize hook when one is set.
func (w *SegmentedWriter) checkpoint(records []Record) ([]byte, error) {
	bundle := make([]json.RawMessage, 0, len(records))
	for _, rec := range records {
		bundle = append(bundle, rec.Payload)
	}
	if w.opts.Summarize != nil {
		var err error
		if bundle, err = w.opts.Summarize(bundle); err != nil {
			return nil, fmt.Errorf("journal: summarizing checkpoint: %w", err)
		}
	}
	ck, err := json.Marshal(checkpointRecord{Kind: "checkpoint", Records: bundle})
	if err != nil {
		return nil, fmt.Errorf("journal: encoding checkpoint: %w", err)
	}
	return ck, nil
}

// startSegment is the one path that writes "header + checkpoint +
// fsync", shared by fresh journals, migration, rotation and Compact. It
// creates (or truncates a leftover casualty at) segment idx, fsyncs the
// directory when it created the file, writes the header and — when ckpt
// is set — the checkpoint, then fsyncs the file. w is only updated on
// success; on failure the current live file, if any, is untouched and
// still live.
func (w *SegmentedWriter) startSegment(idx int, ckpt []byte) error {
	path := segmentPath(w.base, idx)
	_, serr := w.fsys.Stat(path)
	existed := serr == nil
	f, err := w.fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment %s: %w", path, err)
	}
	fail := func(what string, err error) error {
		f.Close()
		return fmt.Errorf("journal: %s %s: %w", what, path, err)
	}
	if !existed {
		if err := w.fsys.SyncDir(filepath.Dir(path)); err != nil {
			return fail("fsyncing directory after creating", err)
		}
	}
	if _, err := f.Write(Frame(w.header)); err != nil {
		return fail("writing header to", err)
	}
	if ckpt != nil {
		if _, err := f.Write(Frame(ckpt)); err != nil {
			return fail("writing checkpoint to", err)
		}
	}
	if err := f.Sync(); err != nil {
		return fail("syncing", err)
	}
	w.f, w.path, w.seg, w.tail = f, path, idx, 0
	return nil
}

// Append writes one record and fsyncs it: Write, then Sync. The record
// that triggers a rotation is already durable in the old segment before
// the rotation starts, so a crash in any rotation window never loses
// it. A writer opened by Owner.Open applies the owner's disk-fault
// policy to any failure.
func (w *SegmentedWriter) Append(record any) error {
	if err := w.Write(record); err != nil {
		return err
	}
	return w.Sync()
}

// Write marshals, frames and writes one record without fsyncing it: it
// is durable after the next Sync. A record that fills the segment
// (SegmentBytes set) is fsynced and rotated at once, so under a segment
// budget every such record issues the ops Append does. A writer opened
// by Owner.Open applies the owner's disk-fault policy to any failure.
func (w *SegmentedWriter) Write(record any) error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.degrade(w.writeRecord(record))
}

func (w *SegmentedWriter) writeRecord(record any) error {
	payload, err := json.Marshal(record)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	frame := Frame(payload)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	w.tail += len(frame)
	w.unsynced = true
	if w.full() {
		return w.sync()
	}
	return nil
}

// Sync fsyncs every record written since the last fsync, if any, then
// rotates if the tail passed its byte budget. A writer opened by
// Owner.Open applies the owner's disk-fault policy to any failure.
func (w *SegmentedWriter) Sync() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.degrade(w.sync())
}

func (w *SegmentedWriter) sync() error {
	if w.unsynced {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("journal: syncing record: %w", err)
		}
		w.unsynced = false
	}
	if w.full() {
		if err := w.rotate(); err != nil {
			return fmt.Errorf("journal: rotating segment: %w", err)
		}
	}
	return nil
}

// full reports that the live segment's tail reached its byte budget.
func (w *SegmentedWriter) full() bool {
	return w.opts.SegmentBytes > 0 && w.tail >= w.opts.SegmentBytes
}

// rotate checkpoints the live segment into its successor. The live
// segment is read back from disk (disk state equals logical state:
// rotate runs only after a sync), re-verified, its checkpoint expanded,
// and the flat record payloads — optionally summarized — become the
// successor's checkpoint bundle. Only after the successor is durable is
// the old segment removed; a failure partway leaves the old segment
// live and the half-built successor as a casualty the next rotation
// truncates and recovery ignores.
func (w *SegmentedWriter) rotate() error {
	raw, err := w.fsys.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("reading segment for checkpoint: %w", err)
	}
	st, err := Parse(raw, w.opts.Version)
	if err != nil {
		return fmt.Errorf("re-verifying segment before checkpoint: %w", err)
	}
	if st == nil || st.Truncated {
		return errors.New("re-verifying segment before checkpoint: segment unexpectedly short")
	}
	if err := expandCheckpoint(st); err != nil {
		return err
	}
	ckpt, err := w.checkpoint(st.Records)
	if err != nil {
		return err
	}
	old := w.f
	if err := w.startSegment(w.seg+1, ckpt); err != nil {
		return err
	}
	old.Close()
	// Superseded files are harmless to recovery (the new checkpoint
	// outranks them), so removal failures are not worth degrading over.
	for _, seg := range listSegments(w.fsys, w.base) {
		if seg.idx < w.seg {
			w.fsys.Remove(seg.path)
		}
	}
	return nil
}

// WriteRaw writes pre-framed bytes to the live segment without syncing
// or rotating — the fault injectors' seam for torn records and crash
// windows. Production callers want Write or Append.
func (w *SegmentedWriter) WriteRaw(b []byte) error {
	if w == nil || w.f == nil {
		return nil
	}
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	w.tail += len(b)
	w.unsynced = true
	return nil
}

// Close closes the live segment.
func (w *SegmentedWriter) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}
