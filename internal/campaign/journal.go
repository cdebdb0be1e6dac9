// Campaign journal: the campaign's record vocabulary over the shared
// internal/journal log — an append-only JSON-lines file in which every
// record is individually CRC-32 checked, so a campaign killed at any
// instant — including mid-write — leaves a journal that loads cleanly.
// Each line is
//
//	crc32(payload) as 8 hex digits, one space, the JSON payload, '\n'
//
// The first record is a header describing the campaign (events, reps,
// mode, params, seed); every later record is either a completed cell
// with its samples or a typed gap (a cell given up on). On resume the
// header is checked against the spec, a torn final record (the crash
// case) is dropped, and any damaged earlier record fails loudly with
// ErrJournalCorrupt rather than resuming from lies.
//
// Framing, CRC verification, torn-tail handling, version gating, layout
// and the open/resume/degrade policy live in internal/journal (extracted
// from this file, byte-compatible); this file keeps the campaign's
// record types, the spec-match check and its error sentinels.
package campaign

import (
	"fmt"

	"numaperf/internal/journal"
)

// journalVersion guards the record schema.
const journalVersion = 1

type journalHeader struct {
	Kind      string    `json:"kind"`
	Version   int       `json:"v"`
	ParamName string    `json:"param_name"`
	Params    []float64 `json:"params"`
	Events    []string  `json:"events"`
	Reps      int       `json:"reps"`
	Mode      string    `json:"mode"`
	Seed      int64     `json:"seed"`
}

// cellRecord journals one completed run cell. Samples hold the accepted
// values keyed by event name; Bad holds values rejected as impossible
// (negative or non-finite), preserved so a resumed campaign reproduces
// the original quarantine decisions exactly.
type cellRecord struct {
	Kind    string             `json:"kind"`
	Key     string             `json:"key"`
	Samples map[string]float64 `json:"samples"`
	Bad     map[string]string  `json:"bad,omitempty"`
}

// gapRecord journals a cell the campaign gave up on (KeepGoing mode):
// the typed reason and the events that consequently lack a sample.
type gapRecord struct {
	Kind   string   `json:"kind"`
	Key    string   `json:"key"`
	Error  string   `json:"error"`
	Events []string `json:"events"`
}

// journalState is a loaded journal: the header plus completed cells and
// recorded gaps keyed by cell key.
type journalState struct {
	header    *journalHeader
	cells     map[string]*cellRecord
	gaps      map[string]*gapRecord
	truncated bool // a torn final record was dropped
}

func (s *journalState) completed() int { return len(s.cells) + len(s.gaps) }

// journalOwner lends the shared journal open/resume/degrade path the
// campaign's name and its historical error sentinels.
var journalOwner = &journal.Owner{
	Name:        "campaign",
	ErrExists:   ErrJournalExists,
	ErrCorrupt:  ErrJournalCorrupt,
	ErrMismatch: ErrJournalMismatch,
	ErrDegraded: ErrJournalDegraded,
}

// parseJournal verifies and decodes raw journal bytes — the pure
// single-file core, separated so it can be fuzzed without a
// filesystem. Empty input returns (nil, nil); every failure is
// ErrJournalCorrupt or ErrJournalMismatch, never a panic.
func parseJournal(raw []byte) (*journalState, error) {
	return convertJournal(journal.Parse(raw, journalVersion))
}

// convertJournal maps a generic parsed journal into the campaign's
// record vocabulary.
func convertJournal(generic *journal.State, err error) (*journalState, error) {
	if err != nil {
		return nil, journalOwner.Reflavour(err)
	}
	if generic == nil {
		return nil, nil
	}
	st := &journalState{
		cells:     make(map[string]*cellRecord),
		gaps:      make(map[string]*gapRecord),
		truncated: generic.Truncated,
	}
	var h journalHeader
	if err := journalOwner.Decode(generic.Header, &h); err != nil {
		return nil, err
	}
	st.header = &h
	for _, rec := range generic.Records {
		switch rec.Kind {
		case "cell":
			var c cellRecord
			if err := journalOwner.Decode(rec, &c); err != nil {
				return nil, err
			}
			st.cells[c.Key] = &c
		case "gap":
			var g gapRecord
			if err := journalOwner.Decode(rec, &g); err != nil {
				return nil, err
			}
			st.gaps[g.Key] = &g
		default:
			return nil, fmt.Errorf("%w: line %d: unknown record kind %q", ErrJournalCorrupt, rec.Line, rec.Kind)
		}
	}
	return st, nil
}

// matches checks a loaded header against the header a spec would write.
func (h *journalHeader) matches(want *journalHeader) error {
	switch {
	case h.ParamName != want.ParamName:
		return fmt.Errorf("%w: parameter %q, want %q", ErrJournalMismatch, h.ParamName, want.ParamName)
	case len(h.Params) != len(want.Params):
		return fmt.Errorf("%w: %d sweep points, want %d", ErrJournalMismatch, len(h.Params), len(want.Params))
	case h.Reps != want.Reps:
		return fmt.Errorf("%w: %d reps, want %d", ErrJournalMismatch, h.Reps, want.Reps)
	case h.Mode != want.Mode:
		return fmt.Errorf("%w: mode %s, want %s", ErrJournalMismatch, h.Mode, want.Mode)
	case h.Seed != want.Seed:
		return fmt.Errorf("%w: seed %d, want %d", ErrJournalMismatch, h.Seed, want.Seed)
	case len(h.Events) != len(want.Events):
		return fmt.Errorf("%w: %d events, want %d", ErrJournalMismatch, len(h.Events), len(want.Events))
	}
	for i := range h.Params {
		if h.Params[i] != want.Params[i] {
			return fmt.Errorf("%w: sweep point %d is %g, want %g", ErrJournalMismatch, i, h.Params[i], want.Params[i])
		}
	}
	for i := range h.Events {
		if h.Events[i] != want.Events[i] {
			return fmt.Errorf("%w: event %d is %q, want %q", ErrJournalMismatch, i, h.Events[i], want.Events[i])
		}
	}
	return nil
}
