// Package fleet is the control plane that turns many memhist probes
// into one measurement instrument. The paper's Fig. 6 architecture pairs
// one front end with one headless probe; capturing hardware metrics
// across a large ccNUMA installation means aggregating dozens of
// per-node collectors — without letting one sick node poison the
// picture. A Coordinator accepts probe registrations over the probenet
// protocol (a HELLO carrying a probe identity), tracks each probe
// through an explicit health state machine fed by HEARTBEAT beacons
// (healthy → suspect after missed heartbeats → dead, with per-probe
// strike accounting that quarantines repeat offenders, the
// internal/campaign pattern one level up), and shards a measurement
// campaign across the live fleet: cells scatter to healthy probes,
// cells stranded on a dead or deadline-blown probe are re-dispatched
// with deterministic seeded backoff, and the gathered report — merged
// histogram, merged SampleQuality, typed gaps and quarantine verdicts —
// is a pure function of the cell specs in canonical order, so it is
// byte-identical no matter which probes failed, so long as retries
// eventually succeed.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Health is a probe's position in the fleet health state machine.
type Health int

const (
	// Healthy probes heartbeat on time and receive new cells.
	Healthy Health = iota
	// Suspect probes missed heartbeats past SuspectAfter: in-flight
	// cells keep running, but no new cells are dispatched to them.
	Suspect
	// Dead probes missed heartbeats past DeadAfter or dropped their
	// connection; their in-flight cells are re-dispatched and each death
	// is a strike.
	Dead
	// Quarantined probes crossed the strike limit; their registrations
	// are refused until the coordinator restarts.
	Quarantined
)

// String names the state for reports and logs.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Quarantined:
		return "quarantined"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// Default supervision parameters.
const (
	// DefaultHeartbeatInterval is the probe-side beacon period.
	DefaultHeartbeatInterval = 1 * time.Second
	// DefaultSuspectAfter is the missed-heartbeat time that demotes a
	// probe to suspect.
	DefaultSuspectAfter = 3 * time.Second
	// DefaultDeadAfter is the missed-heartbeat time that declares a
	// probe dead.
	DefaultDeadAfter = 10 * time.Second
	// DefaultProbeStrikes is the strike count that quarantines a probe.
	DefaultProbeStrikes = 3
)

// TrackerOptions tunes the health state machine.
type TrackerOptions struct {
	// SuspectAfter demotes a probe whose last heartbeat is older than
	// this (0 = DefaultSuspectAfter).
	SuspectAfter time.Duration
	// DeadAfter declares a probe dead past this heartbeat silence
	// (0 = DefaultDeadAfter; clamped above SuspectAfter).
	DeadAfter time.Duration
	// StrikeLimit quarantines a probe at this strike count
	// (0 = DefaultProbeStrikes, negative = never).
	StrikeLimit int
}

func (o TrackerOptions) withDefaults() TrackerOptions {
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = DefaultSuspectAfter
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = DefaultDeadAfter
	}
	if o.DeadAfter <= o.SuspectAfter {
		o.DeadAfter = o.SuspectAfter + 1
	}
	if o.StrikeLimit == 0 {
		o.StrikeLimit = DefaultProbeStrikes
	}
	return o
}

// QuarantineError refuses a probe whose strikes crossed the limit.
type QuarantineError struct {
	ProbeID string
	Strikes int
	Reason  string
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("fleet: probe %q quarantined after %d strikes: %s", e.ProbeID, e.Strikes, e.Reason)
}

// StaleProbeError rejects a heartbeat or disconnect that does not match
// the probe's current registration (an echo of a previous instance).
type StaleProbeError struct {
	ProbeID string
	Got     uint64
	Want    uint64
}

func (e *StaleProbeError) Error() string {
	return fmt.Sprintf("fleet: stale beacon from probe %q instance %d (current %d)", e.ProbeID, e.Got, e.Want)
}

// Transition records one health state change from a Sweep.
type Transition struct {
	ProbeID string
	From    Health
	To      Health
	Reason  string
}

// ProbeInfo is a point-in-time view of one tracked probe.
type ProbeInfo struct {
	ID            string
	Instance      uint64
	State         Health
	Connected     bool
	Strikes       int
	StrikeReasons []string
	LastHeartbeat time.Time
	Registrations int
}

// probeHealth is the mutable tracker entry; reasons deduplicate
// consecutive repeats, the strikeLog pattern from internal/campaign.
type probeHealth struct {
	id            string
	instance      uint64
	state         Health
	connected     bool
	strikes       int
	reasons       []string
	lastBeat      time.Time
	registrations int
}

// strikeLocked charges p with a strike, which moves the ledger.
func (t *Tracker) strikeLocked(p *probeHealth, reason string) {
	p.strikes++
	if len(p.reasons) == 0 || p.reasons[len(p.reasons)-1] != reason {
		p.reasons = append(p.reasons, reason)
	}
	t.gen++
}

// Tracker is the fleet health state machine. It is pure bookkeeping
// over explicit timestamps — no goroutines, no wall clock — so tests
// drive it with a clockx.Fake and production feeds it clock readings.
// All methods are safe for concurrent use.
type Tracker struct {
	mu     sync.Mutex
	opts   TrackerOptions
	probes map[string]*probeHealth
	// gen is the ledger generation: it moves on every strike and every
	// restore, the only changes that move a probe's strikes or
	// quarantine it, which is what a journal records.
	gen uint64
}

// NewTracker builds a tracker with the given options (zero fields take
// the package defaults).
func NewTracker(opts TrackerOptions) *Tracker {
	return &Tracker{opts: opts.withDefaults(), probes: make(map[string]*probeHealth)}
}

// Register admits a probe (back) into the fleet at the given instant.
// A quarantined probe is refused with a *QuarantineError. Re-registering
// while the previous connection is still considered live is a flap and
// costs a strike — which may itself tip the probe into quarantine.
func (t *Tracker) Register(id string, instance uint64, now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.probes[id]
	if !ok {
		p = &probeHealth{id: id}
		t.probes[id] = p
	}
	if p.state == Quarantined {
		return &QuarantineError{ProbeID: id, Strikes: p.strikes, Reason: joinReasons(p.reasons)}
	}
	if p.connected {
		t.strikeLocked(p, "re-registered while connected (flap)")
		if t.quarantineLocked(p) {
			return &QuarantineError{ProbeID: id, Strikes: p.strikes, Reason: joinReasons(p.reasons)}
		}
	}
	p.state = Healthy
	p.connected = true
	p.instance = instance
	p.lastBeat = now
	p.registrations++
	return nil
}

// Heartbeat records a beacon from the probe's current instance. A
// beacon from a stale instance is rejected with *StaleProbeError; a
// beacon that arrives while the probe is suspect simply revives it —
// suspicion is a scheduling hint (stop dispatching), not a fault, so
// recovery costs no strike. Strikes come from real faults: deaths,
// disconnects and blown deadlines. The returned state is the probe's
// state after the beacon.
func (t *Tracker) Heartbeat(id string, instance uint64, now time.Time) (Health, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.probes[id]
	if !ok {
		return Dead, fmt.Errorf("fleet: heartbeat from unregistered probe %q", id)
	}
	if p.state == Quarantined {
		return Quarantined, &QuarantineError{ProbeID: id, Strikes: p.strikes, Reason: joinReasons(p.reasons)}
	}
	if p.instance != instance || !p.connected {
		return p.state, &StaleProbeError{ProbeID: id, Got: instance, Want: p.instance}
	}
	p.lastBeat = now
	p.state = Healthy
	return Healthy, nil
}

// Disconnect records that the probe's connection dropped: the probe is
// dead and the death is a strike. A disconnect for a superseded
// instance is ignored (the probe already re-registered).
func (t *Tracker) Disconnect(id string, instance uint64, reason string) (Health, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.probes[id]
	if !ok {
		return Dead, fmt.Errorf("fleet: disconnect for unregistered probe %q", id)
	}
	if p.instance != instance {
		return p.state, &StaleProbeError{ProbeID: id, Got: instance, Want: p.instance}
	}
	if p.state == Quarantined {
		p.connected = false
		return Quarantined, nil
	}
	if !p.connected {
		// A sweep already declared this instance dead (and charged the
		// strike); the socket-level disconnect is the same death.
		return p.state, nil
	}
	p.connected = false
	p.state = Dead
	t.strikeLocked(p, reason)
	t.quarantineLocked(p)
	return p.state, nil
}

// Strike charges the probe with a fault it caused (a blown cell
// deadline, an internal error) and returns its resulting state.
func (t *Tracker) Strike(id, reason string) Health {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.probes[id]
	if !ok || p.state == Quarantined {
		if !ok {
			return Dead
		}
		return Quarantined
	}
	t.strikeLocked(p, reason)
	t.quarantineLocked(p)
	return p.state
}

// RestoreStrikes folds a journaled health ledger back into the
// tracker on campaign resume: journaled strikes are added to whatever
// the probe has already earned this session (a probe may re-register
// — and even flap — before the resumed campaign starts), journaled
// reasons precede session reasons, and a journaled quarantine verdict
// is reinstated outright. A probe the restarted coordinator has not
// seen yet enters the ledger dead — it owes the fleet a registration,
// not the benefit of the doubt. The returned state is the probe's
// state after restoration, so the caller can cut the connection of a
// probe whose restored record quarantines it: a flapping probe must
// not launder its strikes through a coordinator restart.
func (t *Tracker) RestoreStrikes(id string, strikes int, reasons []string, quarantined bool) Health {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.probes[id]
	if !ok {
		p = &probeHealth{id: id, state: Dead}
		t.probes[id] = p
	}
	p.strikes += strikes
	if len(reasons) > 0 {
		restored := append([]string(nil), reasons...)
		p.reasons = append(restored, p.reasons...)
	}
	t.gen++
	if quarantined {
		p.state = Quarantined
	} else {
		t.quarantineLocked(p)
	}
	return p.state
}

// quarantineLocked promotes a probe to quarantine when its strikes
// crossed the limit; reports whether it did.
func (t *Tracker) quarantineLocked(p *probeHealth) bool {
	if t.opts.StrikeLimit < 0 || p.state == Quarantined {
		return p.state == Quarantined
	}
	if p.strikes >= t.opts.StrikeLimit {
		p.state = Quarantined
		return true
	}
	return false
}

// ledgerGen returns the ledger generation. A campaign journals the
// ledger when it has moved, and dispatches nothing while the fsync of a
// loop turn runs once it moves, so a strike is on disk before any
// further cell goes out.
func (t *Tracker) ledgerGen() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// Sweep advances every connected probe's state for the given instant:
// heartbeat silence past SuspectAfter demotes to suspect, past
// DeadAfter to dead (a strike, possibly quarantine). The transitions
// are returned in probe-ID order so callers act deterministically.
func (t *Tracker) Sweep(now time.Time) []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Transition
	for _, p := range t.probes {
		if !p.connected || p.state == Quarantined {
			continue
		}
		silence := now.Sub(p.lastBeat)
		switch {
		case silence >= t.opts.DeadAfter:
			from := p.state
			p.connected = false
			p.state = Dead
			reason := fmt.Sprintf("missed heartbeats for %s (dead after %s)", silence, t.opts.DeadAfter)
			t.strikeLocked(p, reason)
			t.quarantineLocked(p)
			out = append(out, Transition{ProbeID: p.id, From: from, To: p.state, Reason: reason})
		case silence >= t.opts.SuspectAfter && p.state == Healthy:
			p.state = Suspect
			out = append(out, Transition{ProbeID: p.id, From: Healthy, To: Suspect,
				Reason: fmt.Sprintf("missed heartbeats for %s (suspect after %s)", silence, t.opts.SuspectAfter)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ProbeID < out[j].ProbeID })
	return out
}

// State returns the probe's current state.
func (t *Tracker) State(id string) (Health, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.probes[id]
	if !ok {
		return Dead, false
	}
	return p.state, true
}

// Healthy returns the IDs of connected healthy probes in sorted order —
// the dispatch set.
func (t *Tracker) Healthy() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for id, p := range t.probes {
		if p.connected && p.state == Healthy {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Live counts probes that could still finish work: connected and
// healthy or suspect.
func (t *Tracker) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, p := range t.probes {
		if p.connected && (p.state == Healthy || p.state == Suspect) {
			n++
		}
	}
	return n
}

// Snapshot returns every tracked probe in ID order.
func (t *Tracker) Snapshot() []ProbeInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ProbeInfo, 0, len(t.probes))
	for _, p := range t.probes {
		out = append(out, ProbeInfo{
			ID:            p.id,
			Instance:      p.instance,
			State:         p.state,
			Connected:     p.connected,
			Strikes:       p.strikes,
			StrikeReasons: append([]string(nil), p.reasons...),
			LastHeartbeat: p.lastBeat,
			Registrations: p.registrations,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Quarantines returns the quarantine verdicts in probe-ID order.
func (t *Tracker) Quarantines() []ProbeQuarantine {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []ProbeQuarantine
	for _, p := range t.probes {
		if p.state == Quarantined {
			out = append(out, ProbeQuarantine{ID: p.id, Strikes: p.strikes, Reason: joinReasons(p.reasons)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func joinReasons(rs []string) string {
	out := ""
	for i, r := range rs {
		if i > 0 {
			out += "; "
		}
		out += r
	}
	return out
}
