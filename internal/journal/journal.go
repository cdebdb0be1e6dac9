// Package journal is the shared crash-tolerant record log under the
// repo's resumable campaigns: an append-only JSON-lines file in which
// every record is individually CRC-32 checked and fsynced before its
// owner acknowledges it — alone (Append), or in one fsync with every
// record written since the last (Write, then Sync) — so a process
// killed at any instant — including mid-write — leaves a journal that
// loads cleanly. Each line is
//
//	crc32(payload) as 8 hex digits, one space, the JSON payload, '\n'
//
// The first record must be a header carrying the journal's format
// version (field "v"); every later record is an opaque typed payload
// the owning package decodes by its "kind". On load, a torn final
// record (the crash signature) is dropped and flagged; any earlier
// damage fails loudly with a typed *CorruptError rather than resuming
// from lies, and a header from a different format version is refused
// with a *VersionError naming both versions.
//
// A journal is a run of segments: segment 0 is the file at the
// journal's base path, segment N the file base.NNNNNN. One layout rule
// covers every journal written here — a fresh journal starts at segment
// 0, or at segment 1 when rotation is on — and one trust rule covers
// every journal read (see LoadSegmented). SegmentedWriter is the only
// writer; Owner is the one open/resume/degrade path its owners share.
//
// internal/campaign journals measurement cells through this package
// (its wire format predates the extraction and is preserved byte for
// byte); internal/fleet journals coordinator campaigns. Both keep
// their own record vocabularies, header checks and sentinels — this
// package owns framing, integrity, ordering, version gating, layout and
// the disk-fault policy.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
)

// ErrCrashed marks a scripted process kill from a disk-fault injector:
// the write (or part of it) may have happened, but the process dies
// before acknowledging. Owning packages propagate it verbatim — it is
// a simulated crash, not a degradation — so chaos harnesses can catch
// it with errors.Is and resume, exactly as internal/fleet does with
// its coordinator kills.
var ErrCrashed = errors.New("journal: scripted crash")

// ErrCorrupt marks an integrity failure in the body of a journal: a
// CRC mismatch, an undecodable record, or a structural violation (a
// missing or duplicated header) before the final line. A torn final
// record is expected after a crash and is dropped silently instead.
// Concrete failures carry a *CorruptError; errors.Is against this
// sentinel matches them all.
var ErrCorrupt = errors.New("journal: corrupt")

// CorruptError is one diagnosed integrity failure. Line is 1-based and
// zero when the damage is not tied to a single line (a missing header).
type CorruptError struct {
	Line   int
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("journal: corrupt: line %d: %s", e.Line, e.Reason)
	}
	return "journal: corrupt: " + e.Reason
}

// Is makes errors.Is(err, ErrCorrupt) match every *CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// VersionError refuses a journal whose header carries a format version
// this build does not speak — resuming under a different record schema
// would fabricate state. The message names both versions so an
// operator can tell a future-versioned journal (written by a newer
// build) from a stale one.
type VersionError struct {
	Got  int
	Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("journal: header version %d, this build speaks version %d", e.Got, e.Want)
}

// Record is one verified journal record: its kind tag, raw payload and
// 1-based line number.
type Record struct {
	Kind    string
	Payload json.RawMessage
	Line    int
}

// State is a loaded journal: the verified header plus every later
// record in file order.
type State struct {
	// Header is the first record (kind "header"); its payload carries
	// the owning package's full header fields.
	Header Record
	// Version is the header's format version, already checked against
	// the version Parse was given.
	Version int
	// Records holds every record after the header, in file order.
	Records []Record
	// Truncated reports that a torn final record was dropped — the
	// expected signature of a crash mid-write.
	Truncated bool
	// ValidLen is the byte length of the verified prefix of the raw
	// input: the whole input when Truncated is false, everything before
	// the torn record when it is true. Appending after ValidLen (and
	// truncating anything beyond it first) keeps the journal loading
	// cleanly forever.
	ValidLen int
}

// Frame builds the wire form of one record line for a payload: the
// payload's CRC-32 as eight lower-case hex digits, a space, the payload
// and a newline.
func Frame(payload []byte) []byte {
	const hex = "0123456789abcdef"
	sum := crc32.ChecksumIEEE(payload)
	line := make([]byte, 0, lineLen(payload))
	for shift := 28; shift >= 0; shift -= 4 {
		line = append(line, hex[sum>>shift&0xf])
	}
	line = append(line, ' ')
	line = append(line, payload...)
	return append(line, '\n')
}

// ParseLine verifies and decodes one journal line (without its trailing
// newline) into kind + payload.
func ParseLine(line string) (kind string, payload []byte, err error) {
	sp := strings.IndexByte(line, ' ')
	if sp != 8 {
		return "", nil, fmt.Errorf("no checksum prefix")
	}
	var want uint32
	if _, err := fmt.Sscanf(line[:sp], "%08x", &want); err != nil {
		return "", nil, fmt.Errorf("bad checksum prefix: %v", err)
	}
	payload = []byte(line[sp+1:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return "", nil, fmt.Errorf("checksum mismatch: %08x, want %08x", got, want)
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(payload, &probe); err != nil {
		return "", nil, fmt.Errorf("undecodable record: %v", err)
	}
	return probe.Kind, payload, nil
}

// AnyVersion, passed to Parse, LoadSegmented or Compact as wantVersion, accepts
// every header version and reports it in State.Version. It is the fsck
// surface's setting: cmd/memjournal audits journals it does not own,
// so it verifies structure and integrity without enforcing a record
// schema. Resuming callers always pass their real version.
const AnyVersion = -1

// Parse verifies and decodes raw journal bytes — pure, so owning
// packages can fuzz it without a filesystem. Empty input returns
// (nil, nil); every failure is a *CorruptError or *VersionError, never
// a panic. wantVersion is the record-format version this caller
// speaks; any other header version is refused (unless wantVersion is
// AnyVersion).
func Parse(raw []byte, wantVersion int) (*State, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	lines := strings.Split(string(raw), "\n")
	// A file ending in '\n' splits into a trailing empty string; a file
	// that does not was torn mid-write.
	tornTail := lines[len(lines)-1] != ""
	if !tornTail {
		lines = lines[:len(lines)-1]
	}
	st := &State{ValidLen: len(raw)}
	sawHeader := false
	offset := 0
	for i, line := range lines {
		final := i == len(lines)-1
		kind, payload, perr := ParseLine(line)
		if perr != nil {
			if final {
				// The crash case: a record cut off mid-write. Drop it; the
				// verified prefix ends where it began.
				st.Truncated = true
				st.ValidLen = offset
				break
			}
			return nil, &CorruptError{Line: i + 1, Reason: perr.Error()}
		}
		// A verified final record that merely lacks its newline (the
		// crash hit between payload and '\n') is kept like any other.
		rec := Record{Kind: kind, Payload: payload, Line: i + 1}
		if kind == "header" {
			if i != 0 {
				return nil, &CorruptError{Line: i + 1, Reason: "duplicate header"}
			}
			st.Header = rec
			sawHeader = true
		} else {
			st.Records = append(st.Records, rec)
		}
		offset += len(line) + 1
	}
	if !sawHeader {
		return nil, &CorruptError{Reason: "missing header"}
	}
	var h struct {
		Version int `json:"v"`
	}
	if err := json.Unmarshal(st.Header.Payload, &h); err != nil {
		return nil, &CorruptError{Line: 1, Reason: fmt.Sprintf("undecodable header version: %v", err)}
	}
	if wantVersion != AnyVersion && h.Version != wantVersion {
		return nil, &VersionError{Got: h.Version, Want: wantVersion}
	}
	st.Version = h.Version
	return st, nil
}
