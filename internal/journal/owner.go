package journal

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Owner is what a journal-owning package lends the one open, resume and
// degrade path every owner shares: a name, prefixing its log lines and
// errors, and its historical sentinels, so callers keep matching the
// errors they always matched. Owners keep only their record vocabulary
// and their header check.
type Owner struct {
	Name string
	// ErrExists refuses a fresh run over a journal that holds records.
	ErrExists error
	// ErrCorrupt and ErrMismatch re-flavour *CorruptError and
	// *VersionError.
	ErrCorrupt, ErrMismatch error
	// ErrDegraded is the strict-mode verdict on a journal disk fault.
	ErrDegraded error
}

// Config is one run's request to open its owner's journal.
type Config struct {
	// FS is the filesystem under the journal; nil is the real one.
	FS FS
	// Path is the journal's base path; empty disables journaling, and
	// Open returns a nil writer on which every call is a no-op.
	Path string
	// Resume continues an existing journal. Without it a journal that
	// holds records is refused with the owner's ErrExists, never
	// silently clobbered.
	Resume bool
	// Strict turns a disk fault into the owner's ErrDegraded instead of
	// an in-memory finish.
	Strict bool
	// Logf receives the degradation notice; nil discards it.
	Logf func(format string, args ...any)
	// Segments configures the writer.
	Segments SegmentedOptions
	// Adopt receives the recovered state when resuming finds one, before
	// anything on disk changes: the owner decodes its records, checks
	// the header against its spec and restores what it replays. An
	// error aborts the open.
	Adopt func(*State) error
}

// Open loads the journal when resuming (refusing to clobber one
// otherwise), hands a recovered state to cfg.Adopt, and opens the
// writer that continues it with the owner's disk-fault policy armed.
func (o *Owner) Open(cfg Config) (*SegmentedWriter, error) {
	if cfg.Path == "" {
		return nil, nil
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = OSFS
	}
	var prior *SegmentedState
	if cfg.Resume {
		var err error
		if prior, err = LoadSegmented(fsys, cfg.Path, cfg.Segments.Version); err != nil {
			return nil, o.Reflavour(err)
		}
		if prior != nil && cfg.Adopt != nil {
			if err := cfg.Adopt(prior.State); err != nil {
				return nil, err
			}
		}
	} else if hasState(fsys, cfg.Path) {
		return nil, fmt.Errorf("%w: %s", o.ErrExists, cfg.Path)
	}
	w, err := OpenSegmented(fsys, cfg.Path, prior, cfg.Segments)
	if err != nil {
		return nil, fmt.Errorf("%s: opening journal: %w", o.Name, err)
	}
	w.owner, w.strict, w.logf = o, cfg.Strict, cfg.Logf
	return w, nil
}

// Reflavour turns this package's typed errors into the owner's sentinels
// with the owners' historical messages; any other error passes through.
func (o *Owner) Reflavour(err error) error {
	var ce *CorruptError
	if errors.As(err, &ce) {
		if ce.Line > 0 {
			return fmt.Errorf("%w: line %d: %v", o.ErrCorrupt, ce.Line, ce.Reason)
		}
		return fmt.Errorf("%w: %v", o.ErrCorrupt, ce.Reason)
	}
	var ve *VersionError
	if errors.As(err, &ve) {
		return fmt.Errorf("%w: journal version %d, want %d", o.ErrMismatch, ve.Got, ve.Want)
	}
	return err
}

// Decode unmarshals a record's payload into v, reporting failure as the
// owner's corruption at the record's line.
func (o *Owner) Decode(rec Record, v any) error {
	if err := json.Unmarshal(rec.Payload, v); err != nil {
		return fmt.Errorf("%w: line %d: %v", o.ErrCorrupt, rec.Line, err)
	}
	return nil
}

// degrade applies the owner's disk-fault policy to a write or sync
// error: a scripted crash passes through verbatim (the chaos harness
// resumes from whatever hit the disk); under Strict any other fault
// aborts with the owner's ErrDegraded; otherwise the journal is
// dropped, the owner finishes in memory, and Fault says why — the
// resume guarantee is never lost silently. A writer opened without an
// owner returns err as is.
func (w *SegmentedWriter) degrade(err error) error {
	switch {
	case err == nil, w.owner == nil, errors.Is(err, ErrCrashed):
		return err
	case w.strict:
		return fmt.Errorf("%w: %v", w.owner.ErrDegraded, err)
	}
	if w.logf != nil {
		w.logf("%s: journal degraded, finishing in memory: %v", w.owner.Name, err)
	}
	w.fault = err.Error()
	w.f.Close()
	w.f = nil
	return nil
}

// Fault names the disk fault that cost the journal; it is empty while
// the journal is healthy.
func (w *SegmentedWriter) Fault() string {
	if w == nil {
		return ""
	}
	return w.fault
}
