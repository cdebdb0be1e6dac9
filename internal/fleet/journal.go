// Fleet campaign journal: the coordinator's record vocabulary over the
// shared internal/journal log. A journal-backed campaign appends, in
// canonical cell order, one record per committed cell — the probe's
// raw histogram bytes (fidelity footer included) for a completed cell,
// the typed reason for a gapped one — plus probe strike/quarantine
// records whenever the health ledger changes. A ledger record is
// fsynced before any further cell is dispatched; the cell records one
// campaign-loop turn commits share one fsync, issued before the loop
// waits for outcomes and before the report is built, so a power loss
// costs at most that turn's cells, which a resume measures again.
// Because cell i's measurement is a pure function of the spec (seed
// Seed+i+1), a coordinator restarted with Resume replays the committed
// prefix verbatim, re-scatters only the missing cells, and gathers a
// report byte-identical to an uninterrupted run — and because strike
// totals ride in the journal, a flapping probe cannot launder its
// record through the restart.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"numaperf/internal/journal"
)

// fleetJournalVersion guards the fleet record schema.
const fleetJournalVersion = 1

// Journal error sentinels, mirroring internal/campaign's surface.
var (
	// ErrJournalExists refuses to run a fresh campaign over a non-empty
	// journal without Resume — clobbering committed cells silently is
	// never the right default.
	ErrJournalExists = errors.New("fleet: journal already exists (use Resume to continue it)")
	// ErrJournalCorrupt marks a journal damaged anywhere before its
	// final record; a torn final record is the expected crash signature
	// and is dropped instead.
	ErrJournalCorrupt = errors.New("fleet: journal corrupt")
	// ErrJournalMismatch marks a journal whose header describes a
	// different campaign (or schema version) than the one resuming.
	ErrJournalMismatch = errors.New("fleet: journal does not match the campaign spec")
	// ErrJournalDegraded marks a campaign stopped by a journal disk
	// fault under Options.StrictJournal: failing fast beats silently
	// losing the crash-resume guarantee. Without StrictJournal the
	// campaign finishes in memory and the report says JOURNAL DEGRADED.
	ErrJournalDegraded = errors.New("fleet: journal degraded")
)

// fleetHeader pins the campaign a journal belongs to: every field of
// the spec that shapes cell requests, so a resume against the wrong
// campaign is refused instead of silently merging foreign cells.
type fleetHeader struct {
	Kind        string   `json:"kind"`
	Version     int      `json:"v"`
	Workload    string   `json:"workload"`
	Machine     string   `json:"machine"`
	Threads     int      `json:"threads"`
	Bounds      []uint64 `json:"bounds"`
	SliceCycles uint64   `json:"slice_cycles"`
	Adaptive    bool     `json:"adaptive"`
	Exact       bool     `json:"exact"`
	Cells       int      `json:"cells"`
	RepsPerCell int      `json:"reps_per_cell"`
	Seed        int64    `json:"seed"`
}

// fleetHeaderFor derives the journal header a spec would write.
func fleetHeaderFor(spec Spec) *fleetHeader {
	spec = spec.withDefaults()
	return &fleetHeader{
		Kind:        "header",
		Version:     fleetJournalVersion,
		Workload:    spec.Workload,
		Machine:     spec.Machine,
		Threads:     spec.Threads,
		Bounds:      append([]uint64(nil), spec.Bounds...),
		SliceCycles: spec.SliceCycles,
		Adaptive:    spec.Adaptive,
		Exact:       spec.Exact,
		Cells:       spec.Cells,
		RepsPerCell: spec.RepsPerCell,
		Seed:        spec.Seed,
	}
}

// matches checks a loaded header against the header a spec would write.
func (h *fleetHeader) matches(want *fleetHeader) error {
	switch {
	case h.Workload != want.Workload:
		return fmt.Errorf("%w: workload %q, want %q", ErrJournalMismatch, h.Workload, want.Workload)
	case h.Machine != want.Machine:
		return fmt.Errorf("%w: machine %q, want %q", ErrJournalMismatch, h.Machine, want.Machine)
	case h.Threads != want.Threads:
		return fmt.Errorf("%w: %d threads, want %d", ErrJournalMismatch, h.Threads, want.Threads)
	case len(h.Bounds) != len(want.Bounds):
		return fmt.Errorf("%w: %d bounds, want %d", ErrJournalMismatch, len(h.Bounds), len(want.Bounds))
	case h.SliceCycles != want.SliceCycles:
		return fmt.Errorf("%w: slice %d cycles, want %d", ErrJournalMismatch, h.SliceCycles, want.SliceCycles)
	case h.Adaptive != want.Adaptive:
		return fmt.Errorf("%w: adaptive %v, want %v", ErrJournalMismatch, h.Adaptive, want.Adaptive)
	case h.Exact != want.Exact:
		return fmt.Errorf("%w: exact %v, want %v", ErrJournalMismatch, h.Exact, want.Exact)
	case h.Cells != want.Cells:
		return fmt.Errorf("%w: %d cells, want %d", ErrJournalMismatch, h.Cells, want.Cells)
	case h.RepsPerCell != want.RepsPerCell:
		return fmt.Errorf("%w: %d reps per cell, want %d", ErrJournalMismatch, h.RepsPerCell, want.RepsPerCell)
	case h.Seed != want.Seed:
		return fmt.Errorf("%w: seed %d, want %d", ErrJournalMismatch, h.Seed, want.Seed)
	}
	for i := range h.Bounds {
		if h.Bounds[i] != want.Bounds[i] {
			return fmt.Errorf("%w: bound %d is %d, want %d", ErrJournalMismatch, i, h.Bounds[i], want.Bounds[i])
		}
	}
	return nil
}

// fleetCellRecord journals one committed cell: the serving probe and
// the probe's raw response bytes, kept verbatim so a replayed cell
// contributes exactly the bytes the original run merged.
type fleetCellRecord struct {
	Kind  string          `json:"kind"`
	Cell  int             `json:"cell"`
	Probe string          `json:"probe"`
	Hist  json.RawMessage `json:"hist"`
}

// fleetGapRecord journals a cell the campaign gave up on (KeepGoing):
// the typed verdict that survives a restart like any completed cell.
type fleetGapRecord struct {
	Kind   string `json:"kind"`
	Cell   int    `json:"cell"`
	Reason string `json:"reason"`
}

// fleetProbeRecord journals one probe's health ledger: absolute strike
// total, reasons and quarantine verdict at the moment of writing. The
// last record per probe wins on replay, so re-writing on every change
// is both cheap and idempotent.
type fleetProbeRecord struct {
	Kind        string   `json:"kind"`
	ID          string   `json:"id"`
	Strikes     int      `json:"strikes"`
	Reasons     []string `json:"reasons,omitempty"`
	Quarantined bool     `json:"quarantined"`
}

// fleetCommit is one committed cell slot in canonical order: exactly
// one of cell/gap is set.
type fleetCommit struct {
	cell *fleetCellRecord
	gap  *fleetGapRecord
}

// fleetJournalState is a loaded fleet journal.
type fleetJournalState struct {
	header *fleetHeader
	// committed holds cells 0..len-1 in canonical order — the commit
	// protocol writes them contiguously from zero, and parse enforces
	// it, so resume knows the journaled prefix without a scan.
	committed []fleetCommit
	// probes holds the final (last-written) health record per probe.
	probes    map[string]*fleetProbeRecord
	truncated bool // a torn final record was dropped
}

// probeIDs returns the journaled probe IDs in sorted order, so strike
// restoration is deterministic.
func (s *fleetJournalState) probeIDs() []string {
	ids := make([]string, 0, len(s.probes))
	for id := range s.probes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// journalOwner lends the shared journal open/resume/degrade path the
// fleet's name and its error sentinels.
var journalOwner = &journal.Owner{
	Name:        "fleet",
	ErrExists:   ErrJournalExists,
	ErrCorrupt:  ErrJournalCorrupt,
	ErrMismatch: ErrJournalMismatch,
	ErrDegraded: ErrJournalDegraded,
}

// summarizeFleetCheckpoint compacts a rotation checkpoint: cell and
// gap records keep their canonical order verbatim, and the probe
// ledger — absolute totals where only the last record per probe
// matters — collapses to one record per probe, appended in sorted-ID
// order so the checkpoint bytes are deterministic.
func summarizeFleetCheckpoint(payloads []json.RawMessage) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, len(payloads))
	probes := make(map[string]json.RawMessage)
	for _, p := range payloads {
		var probe struct {
			Kind string `json:"kind"`
			ID   string `json:"id"`
		}
		if err := json.Unmarshal(p, &probe); err != nil {
			return nil, err
		}
		if probe.Kind == "probe" {
			probes[probe.ID] = p
			continue
		}
		out = append(out, p)
	}
	ids := make([]string, 0, len(probes))
	for id := range probes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, probes[id])
	}
	return out, nil
}

// parseFleetJournal verifies and decodes raw fleet journal bytes — the
// pure core of resume, separated so it can be fuzzed without
// a filesystem. Empty input returns (nil, nil); every failure is
// ErrJournalCorrupt or ErrJournalMismatch, never a panic.
func parseFleetJournal(raw []byte) (*fleetJournalState, error) {
	st, err := journal.Parse(raw, fleetJournalVersion)
	return convertFleetJournal(st, err)
}

// convertFleetJournal lifts the generic journal state into the fleet's
// record vocabulary, re-flavouring the shared typed errors into the
// fleet sentinels.
func convertFleetJournal(generic *journal.State, err error) (*fleetJournalState, error) {
	if err != nil {
		return nil, journalOwner.Reflavour(err)
	}
	if generic == nil {
		return nil, nil
	}
	st := &fleetJournalState{
		probes:    make(map[string]*fleetProbeRecord),
		truncated: generic.Truncated,
	}
	var h fleetHeader
	if err := journalOwner.Decode(generic.Header, &h); err != nil {
		return nil, err
	}
	if h.Cells < 1 || h.Cells > 4096 {
		return nil, fmt.Errorf("%w: line %d: header declares %d cells", ErrJournalCorrupt, generic.Header.Line, h.Cells)
	}
	st.header = &h
	for _, rec := range generic.Records {
		switch rec.Kind {
		case "cell":
			var c fleetCellRecord
			if err := journalOwner.Decode(rec, &c); err != nil {
				return nil, err
			}
			if err := st.admit(fleetCommit{cell: &c}, c.Cell, rec.Line); err != nil {
				return nil, err
			}
		case "gap":
			var g fleetGapRecord
			if err := journalOwner.Decode(rec, &g); err != nil {
				return nil, err
			}
			if err := st.admit(fleetCommit{gap: &g}, g.Cell, rec.Line); err != nil {
				return nil, err
			}
		case "probe":
			var p fleetProbeRecord
			if err := journalOwner.Decode(rec, &p); err != nil {
				return nil, err
			}
			if p.ID == "" {
				return nil, fmt.Errorf("%w: line %d: probe record without an id", ErrJournalCorrupt, rec.Line)
			}
			if p.Strikes < 0 {
				return nil, fmt.Errorf("%w: line %d: probe %q with %d strikes", ErrJournalCorrupt, rec.Line, p.ID, p.Strikes)
			}
			st.probes[p.ID] = &p
		default:
			return nil, fmt.Errorf("%w: line %d: unknown record kind %q", ErrJournalCorrupt, rec.Line, rec.Kind)
		}
	}
	return st, nil
}

// admit appends one committed cell slot, enforcing the canonical-order
// commit protocol: cells are journaled contiguously from zero, so any
// other index is corruption, not a quirk to paper over.
func (s *fleetJournalState) admit(c fleetCommit, idx, line int) error {
	if idx != len(s.committed) {
		return fmt.Errorf("%w: line %d: cell %d out of canonical order (want %d)",
			ErrJournalCorrupt, line, idx, len(s.committed))
	}
	if idx >= s.header.Cells {
		return fmt.Errorf("%w: line %d: cell %d beyond the %d-cell campaign",
			ErrJournalCorrupt, line, idx, s.header.Cells)
	}
	s.committed = append(s.committed, c)
	return nil
}
