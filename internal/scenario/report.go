package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"numaperf/internal/journal"
)

// ReportVersion is the run-report format version, carried in the
// header record and checked by journal.Parse on replay.
const ReportVersion = 1

// Record is one line of the machine-readable run report: a kind plus
// its payload, framed on the internal/journal CRC format when
// rendered. Every payload field is deterministic for a given (scenario
// bytes, seed) pair — scheduling-dependent accounting is deliberately
// excluded, the same split internal/fleet draws for its Report.
type Record struct {
	Kind    string
	Payload any
}

type headerRec struct {
	Kind string `json:"kind"`
	V    int    `json:"v"`
	Name string `json:"name"`
	Mode string `json:"mode"`
	Seed int64  `json:"seed"`
}

// FleetProbe records one resolved fleet member: its ID, the generator
// template that stamped it (empty for explicit probes) and the chaos
// behaviours the seeded rates assigned, in a fixed order.
type FleetProbe struct {
	ID       string   `json:"id"`
	Template string   `json:"template,omitempty"`
	Chaos    []string `json:"chaos,omitempty"`
}

type fleetRec struct {
	Kind   string       `json:"kind"`
	Probes []FleetProbe `json:"probes"`
}

type faultRec struct {
	Kind  string `json:"kind"`
	At    string `json:"at"`
	Event Event  `json:"event"`
}

type assertRec struct {
	Kind   string `json:"kind"`
	At     string `json:"at"`
	Action string `json:"action"`
	Target string `json:"target,omitempty"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type fetchOutcomeRec struct {
	Kind         string          `json:"kind"`
	Stage        string          `json:"stage"`
	Origin       string          `json:"origin"`
	MatchesLocal bool            `json:"matches_local"`
	Histogram    json.RawMessage `json:"histogram"`
}

type eventMean struct {
	Event   string  `json:"event"`
	Mean    float64 `json:"mean"`
	Samples int     `json:"samples"`
	// NonFinite flags a NaN/Inf mean (faultdata corruption can produce
	// one); the numeric field is zeroed because JSON cannot carry it.
	NonFinite bool `json:"non_finite,omitempty"`
}

type pointOutcome struct {
	Param  float64     `json:"param"`
	Events []eventMean `json:"events"`
}

type campaignOutcomeRec struct {
	Kind        string         `json:"kind"`
	Stage       string         `json:"stage"`
	Complete    bool           `json:"complete"`
	Cells       int            `json:"cells"`
	Retried     int            `json:"retried"`
	Gaps        []string       `json:"gaps,omitempty"`
	Quarantined []string       `json:"quarantined,omitempty"`
	Points      []pointOutcome `json:"points"`
}

type analyzeOutcomeRec struct {
	Kind         string   `json:"kind"`
	Stage        string   `json:"stage"`
	Degraded     bool     `json:"degraded"`
	HardDegraded bool     `json:"hard_degraded"`
	DiagEvents   []string `json:"diag_events,omitempty"`
}

type collectOutcomeRec struct {
	Kind           string          `json:"kind"`
	Stage          string          `json:"stage"`
	Coverage       float64         `json:"coverage"`
	DutyCycle      float64         `json:"duty_cycle"`
	RecordsDropped int             `json:"records_dropped"`
	ThrottlesFired int             `json:"throttles_fired"`
	SlicesStarved  int             `json:"slices_starved"`
	DrainsStalled  int             `json:"drains_stalled"`
	Histogram      json.RawMessage `json:"histogram"`
}

type fleetOutcomeRec struct {
	Kind        string   `json:"kind"`
	Stage       string   `json:"stage"`
	Complete    bool     `json:"complete"`
	Cells       int      `json:"cells"`
	Completed   int      `json:"completed"`
	Gaps        []int    `json:"gaps,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	Replayed    int      `json:"replayed,omitempty"`
	Truncated   bool     `json:"truncated,omitempty"`
	// JournalDegraded reports that a disk fault cost the run its crash
	// journal (results intact, resume protection honestly lost);
	// JournalVerify is the offline fsck verdict over what the campaign
	// left on disk ("clean", "torn-tail", …). Both are deterministic —
	// the fault's error text, which may carry scratch paths, is not and
	// never enters the report.
	JournalDegraded bool   `json:"journal_degraded,omitempty"`
	JournalVerify   string `json:"journal_verify,omitempty"`
	// AssignmentDependent marks a scenario with per-probe PMU weather:
	// which cells met the weather depends on cell placement, so the
	// merged histogram is not a pure function of the scenario and is
	// excluded from the report.
	AssignmentDependent bool            `json:"assignment_dependent,omitempty"`
	Histogram           json.RawMessage `json:"histogram,omitempty"`
}

type verdictRec struct {
	Kind   string `json:"kind"`
	OK     bool   `json:"ok"`
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
}

// Result is a finished scenario run: the deterministic record list
// plus the assertion tally.
type Result struct {
	Scenario *Scenario
	Seed     int64
	Records  []Record
	Passed   int
	Failed   int
}

// OK reports whether every assertion held.
func (r *Result) OK() bool { return r.Failed == 0 }

// Machine renders the report as CRC-framed JSON lines in the
// internal/journal format. Byte-identical for identical (scenario,
// seed) inputs.
func (r *Result) Machine() ([]byte, error) {
	var sb strings.Builder
	for _, rec := range r.Records {
		payload, err := json.Marshal(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("scenario: marshal %s record: %w", rec.Kind, err)
		}
		sb.Write(journal.Frame(payload))
	}
	return []byte(sb.String()), nil
}

// WriteReport writes the machine report to path.
func (r *Result) WriteReport(path string) error {
	raw, err := r.Machine()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// Summary renders the human-readable run report: the same records, one
// line each, in timeline order. Deterministic for identical inputs.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s (mode %s, seed %d)\n", r.Scenario.Name, r.Scenario.Mode, r.Seed)
	if r.Scenario.Description != "" {
		fmt.Fprintf(&sb, "  %s\n", r.Scenario.Description)
	}
	for _, rec := range r.Records {
		switch p := rec.Payload.(type) {
		case fleetRec:
			for _, pr := range p.Probes {
				line := "fleet: probe " + pr.ID
				if pr.Template != "" {
					line += " (template " + pr.Template + ")"
				}
				if len(pr.Chaos) > 0 {
					line += " chaos=" + strings.Join(pr.Chaos, ",")
				}
				sb.WriteString("  " + line + "\n")
			}
		case faultRec:
			fmt.Fprintf(&sb, "  %8s  fault   %s%s\n", p.At, p.Event.Action, faultDetail(p.Event))
		case assertRec:
			verdict := "ok"
			if !p.OK {
				verdict = "FAIL"
			}
			fmt.Fprintf(&sb, "  %8s  assert  %s: %s (%s)\n", p.At, p.Action, verdict, p.Detail)
		case fetchOutcomeRec:
			fmt.Fprintf(&sb, "  outcome fetch: origin=%s matches_local=%v\n", p.Origin, p.MatchesLocal)
		case campaignOutcomeRec:
			fmt.Fprintf(&sb, "  outcome campaign: cells=%d retried=%d gaps=%d quarantined=%d complete=%v\n",
				p.Cells, p.Retried, len(p.Gaps), len(p.Quarantined), p.Complete)
		case analyzeOutcomeRec:
			fmt.Fprintf(&sb, "  outcome analyze: degraded=%v hard=%v diags=%s\n",
				p.Degraded, p.HardDegraded, strings.Join(p.DiagEvents, ","))
		case collectOutcomeRec:
			fmt.Fprintf(&sb, "  outcome collect: coverage=%.4f duty=%.4f dropped=%d throttles=%d starved=%d stalls=%d\n",
				p.Coverage, p.DutyCycle, p.RecordsDropped, p.ThrottlesFired, p.SlicesStarved, p.DrainsStalled)
		case fleetOutcomeRec:
			fmt.Fprintf(&sb, "  outcome fleet: cells=%d completed=%d gaps=%d quarantined=%d",
				p.Cells, p.Completed, len(p.Gaps), len(p.Quarantined))
			if p.Replayed > 0 {
				fmt.Fprintf(&sb, " replayed=%d", p.Replayed)
			}
			if p.Truncated {
				sb.WriteString(" truncated")
			}
			if p.JournalVerify != "" {
				fmt.Fprintf(&sb, " journal=%s", p.JournalVerify)
			}
			if p.JournalDegraded {
				sb.WriteString(" JOURNAL DEGRADED")
			}
			if p.AssignmentDependent {
				sb.WriteString(" (histogram assignment-dependent, excluded)")
			}
			sb.WriteString("\n")
		case verdictRec:
			verdict := "PASS"
			if !p.OK {
				verdict = "FAIL"
			}
			fmt.Fprintf(&sb, "verdict: %s (%d passed, %d failed)\n", verdict, p.Passed, p.Failed)
		}
	}
	return sb.String()
}

// faultDetail renders the parameters a fault event actually set.
func faultDetail(ev Event) string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if ev.Target != "" {
		add("target=%s", ev.Target)
	}
	if ev.Cell != "" {
		add("cell=%s", ev.Cell)
	}
	if ev.Conn != 0 {
		add("conn=%d", ev.Conn)
	}
	if ev.Offset != 0 {
		add("offset=%d", ev.Offset)
	}
	if ev.Count != 0 {
		add("count=%d", ev.Count)
	}
	if ev.Times != 0 {
		add("times=%d", ev.Times)
	}
	if ev.ExitCode != 0 {
		add("exit_code=%d", ev.ExitCode)
	}
	if ev.Event != "" {
		add("event=%s", ev.Event)
	}
	if ev.NaN {
		add("nan")
	}
	if ev.Delay != 0 {
		add("delay=%s", ev.Delay)
	}
	if ev.Frac != 0 {
		add("frac=%g", ev.Frac)
	}
	if ev.Factor != 0 {
		add("factor=%g", ev.Factor)
	}
	if ev.Value != 0 {
		add("value=%g", ev.Value)
	}
	if ev.Until != 0 {
		add("until=%s", ev.Until)
	}
	if ev.Threshold != 0 {
		add("threshold=%d", ev.Threshold)
	}
	if ev.Slices != 0 {
		add("slices=%d", ev.Slices)
	}
	if ev.N != 0 {
		add("n=%d", ev.N)
	}
	if ev.Seq != 0 {
		add("seq=%d", ev.Seq)
	}
	if ev.StayDown {
		add("stay_down")
	}
	if ev.OnDispatch != 0 {
		add("on_dispatch=%d", ev.OnDispatch)
	}
	if ev.Window != "" {
		add("window=%s", ev.Window)
	}
	if ev.Op != "" {
		add("op=%s", ev.Op)
	}
	if ev.RetryAfter != 0 {
		add("retry_after=%s", ev.RetryAfter)
	}
	if len(parts) == 0 {
		return ""
	}
	return " " + strings.Join(parts, " ")
}

// ParseReport loads a machine report back into journal records — the
// replay side of the byte-identical contract.
func ParseReport(raw []byte) (*journal.State, error) {
	return journal.Parse(raw, ReportVersion)
}
