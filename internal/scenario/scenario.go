// Package scenario is the declarative chaos engine: one DSL over the
// six fault injectors. A scenario file (YAML subset or JSON) names a
// measurement stage — a remote fetch, a supervised counter campaign, a
// sampled histogram collection, or a fleet campaign — plus a timeline
// of events: timed faults ("at 2s: throttle storm", "at 5s: kill the
// coordinator mid-scatter") and timed assertions ("at 8s: assert
// histogram coverage ≥ 0.8"). Each action is one registry row naming
// its modes and fields: a fault row arms the existing faultnet,
// faultrun, faultdata, faultperf, faultfleet or faultdisk script it
// drives, an assertion row checks the stage outcome. The engine then
// drives a real campaign over internal/fleet and internal/campaign
// with the scripts the rows armed. Retry and backoff sleeps in
// the fetch and campaign stages advance a clockx fake clock instead of
// the wall clock; the fleet control plane runs on the tight real-time
// supervision windows its chaos suite established.
//
// Same seed + same scenario ⇒ a byte-identical machine-readable run
// report: CRC-framed JSON lines on the internal/journal format that
// record every injected fault, every assertion verdict and the merged
// SampleQuality/histogram outcome, plus a human-readable summary.
// Fields that depend on goroutine or fleet scheduling (dispatch
// counts, per-probe cell tallies) are deliberately excluded, the same
// split internal/fleet draws for its own Report.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
	"unicode/utf8"
)

// ErrInvalid is the sentinel every scenario validation error unwraps
// to; syntax errors from the YAML/JSON layer do not.
var ErrInvalid = errors.New("scenario: invalid scenario")

// UnknownActionError reports an event action the registry does not
// know (or one that exists but is illegal in the scenario's mode).
type UnknownActionError struct {
	Action string
	Mode   string // non-empty when the action exists but not in Mode
}

func (e *UnknownActionError) Error() string {
	if e.Mode != "" {
		return fmt.Sprintf("scenario: action %q is not available in mode %q", e.Action, e.Mode)
	}
	return fmt.Sprintf("scenario: unknown action %q", e.Action)
}

func (e *UnknownActionError) Unwrap() error { return ErrInvalid }

// BadDurationError reports an unparseable or out-of-range duration.
type BadDurationError struct {
	Text string
}

func (e *BadDurationError) Error() string {
	return fmt.Sprintf("scenario: bad duration %q", e.Text)
}

func (e *BadDurationError) Unwrap() error { return ErrInvalid }

// DuplicateTargetError reports two fault events that arm the same
// exclusive fault on the same target (same action, same target, same
// cell/connection coordinate) — almost always a copy-paste mistake
// that would silently drop one of the two.
type DuplicateTargetError struct {
	Action string
	Target string
}

func (e *DuplicateTargetError) Error() string {
	return fmt.Sprintf("scenario: duplicate fault %q on target %q", e.Action, e.Target)
}

func (e *DuplicateTargetError) Unwrap() error { return ErrInvalid }

// SpecError reports any other validation failure, with the offending
// field path.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario: %s: %s", e.Field, e.Msg)
}

func (e *SpecError) Unwrap() error { return ErrInvalid }

// Duration is a time.Duration that marshals as a Go duration string
// ("150ms") and unmarshals from either a string or a number of
// seconds, so YAML authors can write "at: 2s" or "at: 2".
type Duration time.Duration

// D converts to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the canonical duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150ms"-style strings and bare numbers of
// seconds; anything else is a typed *BadDurationError.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, perr := time.ParseDuration(s)
		if perr != nil || v < 0 {
			return &BadDurationError{Text: s}
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err == nil {
		if secs < 0 || secs > 1e6 {
			return &BadDurationError{Text: string(b)}
		}
		*d = Duration(time.Duration(secs * float64(time.Second)))
		return nil
	}
	return &BadDurationError{Text: string(b)}
}

// Event is one timeline entry: a fault to inject or an assertion to
// evaluate. The parameter fields form a union — each action consumes
// the subset its registry entry names and the loader rejects scenarios
// whose events set fields their action does not take.
type Event struct {
	At     Duration `json:"at,omitempty"`
	Action string   `json:"action"`
	Target string   `json:"target,omitempty"`

	// faultnet: connection coordinates and byte offsets.
	Conn   int   `json:"conn,omitempty"`
	Offset int64 `json:"offset,omitempty"`
	Count  int   `json:"count,omitempty"`

	// faultrun: cell keys ("p0/r1/b2") and fault shaping.
	Cell     string   `json:"cell,omitempty"`
	Times    int      `json:"times,omitempty"`
	ExitCode int      `json:"exit_code,omitempty"`
	Event    string   `json:"event,omitempty"`
	NaN      bool     `json:"nan,omitempty"`
	Delay    Duration `json:"delay,omitempty"`

	// faultdata: sample poisoning knobs.
	Frac   float64 `json:"frac,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	Value  float64 `json:"value,omitempty"`

	// faultperf: the window [at, until) on the measured timeline.
	Until     Duration `json:"until,omitempty"`
	Threshold int      `json:"threshold,omitempty"`
	Slices    int      `json:"slices,omitempty"`

	// faultfleet: request/heartbeat coordinates and crash windows.
	N          int      `json:"n,omitempty"`
	Seq        uint64   `json:"seq,omitempty"`
	StayDown   bool     `json:"stay_down,omitempty"`
	OnDispatch int      `json:"on_dispatch,omitempty"`
	Window     string   `json:"window,omitempty"`
	RetryAfter Duration `json:"retry_after,omitempty"`

	// faultdisk: which journal operation class a disk.kill crashes in
	// (write, sync, create or syncdir); the disk.* faults share N as
	// their 1-based occurrence count.
	Op string `json:"op,omitempty"`

	// assertions.
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Equals string   `json:"equals,omitempty"`
}

// FetchSpec configures a "fetch" scenario: one retrying remote
// histogram fetch against an in-process probe server whose listener is
// wrapped by the faultnet injector.
type FetchSpec struct {
	Workload      string   `json:"workload"`
	Machine       string   `json:"machine,omitempty"`
	Threads       int      `json:"threads,omitempty"`
	Bounds        []uint64 `json:"bounds,omitempty"`
	Reps          int      `json:"reps,omitempty"`
	Retries       int      `json:"retries,omitempty"`
	Timeout       Duration `json:"timeout,omitempty"`
	FallbackLocal bool     `json:"fallback_local,omitempty"`
}

// CampaignSpec configures a "campaign" scenario: a supervised
// internal/campaign run whose cells the faultrun injector disrupts and
// whose first-point measurement the faultdata injector may poison for
// an evsel comparison stage.
type CampaignSpec struct {
	Workload   string   `json:"workload"`
	Machine    string   `json:"machine,omitempty"`
	Threads    []int    `json:"threads,omitempty"`
	Events     []string `json:"events"`
	Reps       int      `json:"reps,omitempty"`
	Mode       string   `json:"counter_mode,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	KeepGoing  bool     `json:"keep_going,omitempty"`
	MaxRetries int      `json:"max_retries,omitempty"`
	RunTimeout Duration `json:"run_timeout,omitempty"`
}

// CollectSpec configures a "collect" scenario: one memhist.Collect
// under the lossy sampler, with faultperf PMU weather compiled from
// the timeline (event times convert to engine cycles at the machine's
// clock rate).
type CollectSpec struct {
	Workload       string   `json:"workload"`
	Machine        string   `json:"machine,omitempty"`
	Threads        int      `json:"threads,omitempty"`
	Bounds         []uint64 `json:"bounds,omitempty"`
	SliceCycles    uint64   `json:"slice_cycles,omitempty"`
	Reps           int      `json:"reps,omitempty"`
	Adaptive       bool     `json:"adaptive,omitempty"`
	BufferCap      int      `json:"buffer_cap,omitempty"`
	ThrottleLimit  uint64   `json:"throttle_limit,omitempty"`
	ThrottleWindow uint64   `json:"throttle_window,omitempty"`
	Chunk          int      `json:"chunk,omitempty"`
}

// Template is one weighted fleet-generator template. Besides its
// weight it may bake fault behaviour into every probe stamped from it.
// A Flap probe crashes on every request until it is quarantined, and
// the rest of the fleet holds its requests until then (flapGate).
type Template struct {
	Name           string `json:"name"`
	Weight         int    `json:"weight"`
	CrashOnRequest int    `json:"crash_on_request,omitempty"`
	StayDown       bool   `json:"stay_down,omitempty"`
	Flap           bool   `json:"flap,omitempty"`
	SilenceFrom    uint64 `json:"silence_from,omitempty"`
}

// GenSpec is the seeded fleet generator: Count probes stamped from the
// weighted templates, named Prefix-0..Count-1. The template draw is a
// pure function of the scenario seed, so the generated fleet is part
// of the deterministic report.
type GenSpec struct {
	Count     int        `json:"count"`
	Prefix    string     `json:"prefix,omitempty"`
	Templates []Template `json:"templates"`
}

// ChaosSpec applies seeded background chaos on top of the resolved
// fleet: each probe independently draws against each rate, in probe
// order, from the scenario seed.
type ChaosSpec struct {
	CrashRate   float64 `json:"crash_rate,omitempty"`
	SilenceRate float64 `json:"silence_rate,omitempty"`
	DelayRate   float64 `json:"delay_rate,omitempty"`
}

// FleetCampaign is the measurement the fleet scatters: the same shape
// fleet.Spec takes.
type FleetCampaign struct {
	Workload    string   `json:"workload"`
	Machine     string   `json:"machine,omitempty"`
	Threads     int      `json:"threads,omitempty"`
	Bounds      []uint64 `json:"bounds,omitempty"`
	SliceCycles uint64   `json:"slice_cycles,omitempty"`
	Adaptive    bool     `json:"adaptive,omitempty"`
	Exact       bool     `json:"exact,omitempty"`
	Cells       int      `json:"cells,omitempty"`
	RepsPerCell int      `json:"reps_per_cell,omitempty"`
}

// FleetSpec configures a "fleet" scenario: a real coordinator plus
// in-process probe agents over loopback TCP, all paced on the shared
// fake clock, with faultfleet scripts compiled from the timeline.
type FleetSpec struct {
	Probes   []string      `json:"probes,omitempty"`
	Gen      *GenSpec      `json:"gen,omitempty"`
	Chaos    *ChaosSpec    `json:"chaos,omitempty"`
	Campaign FleetCampaign `json:"campaign"`

	Heartbeat    Duration `json:"heartbeat,omitempty"`
	SuspectAfter Duration `json:"suspect_after,omitempty"`
	DeadAfter    Duration `json:"dead_after,omitempty"`
	ProbeStrikes int      `json:"probe_strikes,omitempty"`
	CellTimeout  Duration `json:"cell_timeout,omitempty"`
	MaxRetries   int      `json:"max_retries,omitempty"`
	KeepGoing    bool     `json:"keep_going,omitempty"`

	// Journal runs the campaign over a crash journal in a scratch
	// directory; Resume restarts a killed coordinator against that
	// journal and re-scatters only the missing cells. Resume requires
	// Journal and a fleet.kill_coordinator or disk.kill event.
	Journal bool `json:"journal,omitempty"`
	Resume  bool `json:"resume,omitempty"`
	// SegmentBytes rotates the journal into checkpointed segments once
	// the live tail passes this many bytes (1 rotates on every append —
	// the tightest crash-window schedule). Zero keeps the single-file
	// layout. Requires Journal.
	SegmentBytes int `json:"segment_bytes,omitempty"`
}

// Scenario is a parsed, validated scenario file.
type Scenario struct {
	Name        string        `json:"name"`
	Description string        `json:"description,omitempty"`
	Mode        string        `json:"mode"`
	Seed        int64         `json:"seed,omitempty"`
	Fetch       *FetchSpec    `json:"fetch,omitempty"`
	Campaign    *CampaignSpec `json:"campaign,omitempty"`
	Collect     *CollectSpec  `json:"collect,omitempty"`
	Fleet       *FleetSpec    `json:"fleet,omitempty"`
	Events      []Event       `json:"events"`
}

// Modes the engine knows, each keyed to the stage it drives.
const (
	ModeFetch    = "fetch"
	ModeCampaign = "campaign"
	ModeCollect  = "collect"
	ModeFleet    = "fleet"
)

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}

// Parse parses a scenario from YAML-subset or JSON bytes (JSON is any
// input whose first non-space byte is '{') and validates it.
func Parse(raw []byte) (*Scenario, error) {
	if !utf8.Valid(raw) {
		return nil, &SyntaxError{1, "input is not valid UTF-8"}
	}
	trimmed := strings.TrimLeft(string(raw), " \t\r\n")
	var doc any
	if strings.HasPrefix(trimmed, "{") {
		dec := json.NewDecoder(strings.NewReader(trimmed))
		if err := dec.Decode(&doc); err != nil {
			return nil, &SyntaxError{1, fmt.Sprintf("json: %v", err)}
		}
		if dec.More() {
			return nil, &SyntaxError{1, "trailing content after JSON document"}
		}
	} else {
		var err error
		doc, err = parseYAML(raw)
		if err != nil {
			return nil, err
		}
	}
	// Round-trip through JSON so YAML and JSON inputs decode through
	// the identical strict path (unknown fields rejected).
	bridge, err := json.Marshal(doc)
	if err != nil {
		return nil, &SyntaxError{1, fmt.Sprintf("cannot normalise document: %v", err)}
	}
	var sc Scenario
	dec := json.NewDecoder(strings.NewReader(string(bridge)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		var bad *BadDurationError
		if errors.As(err, &bad) {
			return nil, bad
		}
		return nil, &SpecError{Field: "document", Msg: err.Error()}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Validate checks the scenario against the action registry and the
// mode's structural requirements.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return &SpecError{Field: "name", Msg: "required"}
	}
	if strings.ContainsAny(sc.Name, " \t\n") {
		return &SpecError{Field: "name", Msg: "must not contain whitespace"}
	}
	switch sc.Mode {
	case ModeFetch:
		if sc.Fetch == nil {
			return &SpecError{Field: "fetch", Msg: "required in mode \"fetch\""}
		}
		if sc.Campaign != nil || sc.Collect != nil || sc.Fleet != nil {
			return &SpecError{Field: "mode", Msg: "mode \"fetch\" allows only the fetch block"}
		}
		if err := sc.Fetch.validate(); err != nil {
			return err
		}
	case ModeCampaign:
		if sc.Campaign == nil {
			return &SpecError{Field: "campaign", Msg: "required in mode \"campaign\""}
		}
		if sc.Fetch != nil || sc.Collect != nil || sc.Fleet != nil {
			return &SpecError{Field: "mode", Msg: "mode \"campaign\" allows only the campaign block"}
		}
		if err := sc.Campaign.validate(); err != nil {
			return err
		}
	case ModeCollect:
		if sc.Collect == nil {
			return &SpecError{Field: "collect", Msg: "required in mode \"collect\""}
		}
		if sc.Fetch != nil || sc.Campaign != nil || sc.Fleet != nil {
			return &SpecError{Field: "mode", Msg: "mode \"collect\" allows only the collect block"}
		}
		if err := sc.Collect.validate(); err != nil {
			return err
		}
	case ModeFleet:
		if sc.Fleet == nil {
			return &SpecError{Field: "fleet", Msg: "required in mode \"fleet\""}
		}
		if sc.Fetch != nil || sc.Campaign != nil || sc.Collect != nil {
			return &SpecError{Field: "mode", Msg: "mode \"fleet\" allows only the fleet block"}
		}
		if err := sc.Fleet.validate(); err != nil {
			return err
		}
	case "":
		return &SpecError{Field: "mode", Msg: "required (fetch, campaign, collect or fleet)"}
	default:
		return &SpecError{Field: "mode", Msg: fmt.Sprintf("unknown mode %q", sc.Mode)}
	}
	if len(sc.Events) == 0 {
		return &SpecError{Field: "events", Msg: "at least one event required"}
	}
	if len(sc.Events) > 256 {
		return &SpecError{Field: "events", Msg: "too many events (max 256)"}
	}
	seen := make(map[string]bool, len(sc.Events))
	for i := range sc.Events {
		ev := &sc.Events[i]
		act, ok := lookupAction(ev.Action)
		if !ok {
			return &UnknownActionError{Action: ev.Action}
		}
		if !act.allowsMode(sc.Mode) {
			return &UnknownActionError{Action: ev.Action, Mode: sc.Mode}
		}
		if err := act.checkFields(ev, i); err != nil {
			return err
		}
		if act.validate != nil {
			if err := act.validate(sc, ev, i); err != nil {
				return err
			}
		}
		if act.arm != nil {
			key := fmt.Sprintf("%s|%s|%s|%d", ev.Action, ev.Target, ev.Cell, ev.Conn)
			if seen[key] {
				target := ev.Target
				if target == "" {
					target = ev.Cell
				}
				if target == "" {
					target = fmt.Sprintf("conn %d", ev.Conn)
				}
				return &DuplicateTargetError{Action: ev.Action, Target: target}
			}
			seen[key] = true
		}
	}
	return nil
}

func validateWorkload(field, name string) error {
	if name == "" {
		return &SpecError{Field: field, Msg: "workload required"}
	}
	return nil
}

func validateBounds(field string, bounds []uint64) error {
	if len(bounds) == 1 {
		return &SpecError{Field: field, Msg: "bounds need at least two thresholds"}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return &SpecError{Field: field, Msg: "bounds must be strictly increasing"}
		}
	}
	return nil
}

func (f *FetchSpec) validate() error {
	if err := validateWorkload("fetch.workload", f.Workload); err != nil {
		return err
	}
	if err := validateBounds("fetch.bounds", f.Bounds); err != nil {
		return err
	}
	if f.Retries < 0 || f.Retries > 16 {
		return &SpecError{Field: "fetch.retries", Msg: "must be in [0, 16]"}
	}
	return nil
}

func (c *CampaignSpec) validate() error {
	if err := validateWorkload("campaign.workload", c.Workload); err != nil {
		return err
	}
	if len(c.Events) == 0 {
		return &SpecError{Field: "campaign.events", Msg: "at least one counter event required"}
	}
	for _, th := range c.Threads {
		if th < 1 || th > 64 {
			return &SpecError{Field: "campaign.threads", Msg: "thread counts must be in [1, 64]"}
		}
	}
	switch c.Mode {
	case "", "batched", "multiplexed", "unlimited":
	default:
		return &SpecError{Field: "campaign.counter_mode", Msg: fmt.Sprintf("unknown mode %q", c.Mode)}
	}
	if c.Workers < 0 || c.Workers > 16 {
		return &SpecError{Field: "campaign.workers", Msg: "must be in [0, 16]"}
	}
	if c.Reps < 0 || c.Reps > 64 {
		return &SpecError{Field: "campaign.reps", Msg: "must be in [0, 64]"}
	}
	return nil
}

func (c *CollectSpec) validate() error {
	if err := validateWorkload("collect.workload", c.Workload); err != nil {
		return err
	}
	if err := validateBounds("collect.bounds", c.Bounds); err != nil {
		return err
	}
	if c.Reps < 0 || c.Reps > 16 {
		return &SpecError{Field: "collect.reps", Msg: "must be in [0, 16]"}
	}
	return nil
}

func (f *FleetSpec) validate() error {
	if err := validateWorkload("fleet.campaign.workload", f.Campaign.Workload); err != nil {
		return err
	}
	if err := validateBounds("fleet.campaign.bounds", f.Campaign.Bounds); err != nil {
		return err
	}
	if f.Campaign.Cells < 0 || f.Campaign.Cells > 256 {
		return &SpecError{Field: "fleet.campaign.cells", Msg: "must be in [0, 256]"}
	}
	if len(f.Probes) == 0 && f.Gen == nil {
		return &SpecError{Field: "fleet.probes", Msg: "name probes or configure the generator"}
	}
	seen := map[string]bool{}
	for _, id := range f.Probes {
		if id == "" || strings.ContainsAny(id, " \t\n") {
			return &SpecError{Field: "fleet.probes", Msg: "probe IDs must be non-empty and whitespace-free"}
		}
		if seen[id] {
			return &DuplicateTargetError{Action: "fleet.probes", Target: id}
		}
		seen[id] = true
	}
	if f.Gen != nil {
		if f.Gen.Count < 1 || f.Gen.Count > 64 {
			return &SpecError{Field: "fleet.gen.count", Msg: "must be in [1, 64]"}
		}
		if len(f.Gen.Templates) == 0 {
			return &SpecError{Field: "fleet.gen.templates", Msg: "at least one template required"}
		}
		total := 0
		names := map[string]bool{}
		for _, t := range f.Gen.Templates {
			if t.Name == "" {
				return &SpecError{Field: "fleet.gen.templates", Msg: "template name required"}
			}
			if names[t.Name] {
				return &DuplicateTargetError{Action: "fleet.gen.templates", Target: t.Name}
			}
			names[t.Name] = true
			if t.Weight < 0 {
				return &SpecError{Field: "fleet.gen.templates", Msg: "weights must be non-negative"}
			}
			total += t.Weight
		}
		if total <= 0 {
			return &SpecError{Field: "fleet.gen.templates", Msg: "total weight must be positive"}
		}
	}
	if f.Chaos != nil {
		for _, r := range []struct {
			name string
			v    float64
		}{
			{"crash_rate", f.Chaos.CrashRate},
			{"silence_rate", f.Chaos.SilenceRate},
			{"delay_rate", f.Chaos.DelayRate},
		} {
			if r.v < 0 || r.v > 1 {
				return &SpecError{Field: "fleet.chaos." + r.name, Msg: "rates must be in [0, 1]"}
			}
		}
	}
	if f.Resume && !f.Journal {
		return &SpecError{Field: "fleet.resume", Msg: "resume requires journal: true"}
	}
	if f.SegmentBytes < 0 {
		return &SpecError{Field: "fleet.segment_bytes", Msg: "must be >= 0"}
	}
	if f.SegmentBytes > 0 && !f.Journal {
		return &SpecError{Field: "fleet.segment_bytes", Msg: "segment rotation requires journal: true"}
	}
	return nil
}

// probeIDs resolves the full, ordered probe roster (explicit probes
// first, then generated ones).
func (f *FleetSpec) probeIDs() []string {
	ids := append([]string(nil), f.Probes...)
	if f.Gen != nil {
		prefix := f.Gen.Prefix
		if prefix == "" {
			prefix = "gen"
		}
		for i := 0; i < f.Gen.Count; i++ {
			ids = append(ids, fmt.Sprintf("%s-%d", prefix, i))
		}
	}
	return ids
}
