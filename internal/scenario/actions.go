package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"numaperf/internal/counters"
	"numaperf/internal/faultdata"
	"numaperf/internal/faultdisk"
	"numaperf/internal/faultfleet"
	"numaperf/internal/faultperf"
	"numaperf/internal/faultrun"
	"numaperf/internal/perf"
)

// actionDef is one registry entry: where an action is legal, what it
// means, which event fields it takes, how to validate them, and what it
// does. A fault entry arms an injector script on the stage's rig; an
// assertion entry checks the stage outcome. Every entry has exactly one
// of the two.
type actionDef struct {
	name    string
	modes   []string
	summary string
	params  string
	// fields are the JSON names of the event fields the action takes;
	// at and action are always allowed.
	fields   []string
	validate func(sc *Scenario, ev *Event, i int) error
	arm      func(r *rig, ev Event)
	check    func(sc *Scenario, ev Event, out *outcome) (ok bool, detail string)
}

func (a *actionDef) allowsMode(mode string) bool {
	return slices.Contains(a.modes, mode)
}

// checkFields rejects any event field the action does not take.
func (a *actionDef) checkFields(ev *Event, i int) error {
	v := reflect.ValueOf(*ev)
	for j := 0; j < v.NumField(); j++ {
		name, _, _ := strings.Cut(v.Type().Field(j).Tag.Get("json"), ",")
		if name == "at" || name == "action" || v.Field(j).IsZero() || slices.Contains(a.fields, name) {
			continue
		}
		return &SpecError{Field: evField(i, name), Msg: fmt.Sprintf("%s takes no %s", ev.Action, name)}
	}
	return nil
}

// ActionInfo is the exported registry row behind `memscenario
// -list-actions`.
type ActionInfo struct {
	Name    string
	Modes   []string
	Summary string
	Params  string
}

// Actions lists every known action in name order.
func Actions() []ActionInfo {
	out := make([]ActionInfo, 0, len(registry))
	for _, a := range registry {
		out = append(out, ActionInfo{
			Name:    a.name,
			Modes:   append([]string(nil), a.modes...),
			Summary: a.summary,
			Params:  a.params,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func lookupAction(name string) (*actionDef, bool) {
	a, ok := registry[name]
	return a, ok
}

func evField(i int, field string) string {
	return fmt.Sprintf("events[%d].%s", i, field)
}

func needCell(_ *Scenario, ev *Event, i int) error {
	var p, r, b int
	if n, err := fmt.Sscanf(ev.Cell, "p%d/r%d/b%d", &p, &r, &b); n != 3 || err != nil {
		return &SpecError{Field: evField(i, "cell"), Msg: fmt.Sprintf("cell %q must look like \"p0/r1/b2\"", ev.Cell)}
	}
	return nil
}

func needDelay(_ *Scenario, ev *Event, i int) error {
	if ev.Delay <= 0 {
		return &SpecError{Field: evField(i, "delay"), Msg: "a positive delay is required"}
	}
	return nil
}

func needPositiveOffset(_ *Scenario, ev *Event, i int) error {
	if ev.Offset <= 0 {
		return &SpecError{Field: evField(i, "offset"), Msg: "a positive byte offset is required"}
	}
	return nil
}

func needFrac(_ *Scenario, ev *Event, i int) error {
	if ev.Frac <= 0 || ev.Frac > 1 {
		return &SpecError{Field: evField(i, "frac"), Msg: "must be in (0, 1]"}
	}
	return nil
}

// needFleetTarget checks the event names a probe that actually exists.
func needFleetTarget(sc *Scenario, ev *Event, i int) error {
	if ev.Target == "" {
		return &SpecError{Field: evField(i, "target"), Msg: "a probe target is required"}
	}
	for _, id := range sc.Fleet.probeIDs() {
		if id == ev.Target {
			return nil
		}
	}
	return &SpecError{Field: evField(i, "target"), Msg: fmt.Sprintf("probe %q is not in the fleet", ev.Target)}
}

// perfTarget validates faultperf actions: standalone collect scenarios
// take no target; fleet scenarios accept "*" (uniform PMU weather on
// every probe, which keeps the merged histogram deterministic) or a
// probe ID (per-probe weather — the merged histogram then depends on
// cell placement and is excluded from the report).
func perfTarget(sc *Scenario, ev *Event, i int) error {
	if sc.Mode == ModeCollect {
		if ev.Target != "" {
			return &SpecError{Field: evField(i, "target"), Msg: "collect scenarios take no target"}
		}
		return nil
	}
	if ev.Target == "" || ev.Target == "*" {
		return nil
	}
	return needFleetTarget(sc, ev, i)
}

func perfWindow(sc *Scenario, ev *Event, i int) error {
	if err := perfTarget(sc, ev, i); err != nil {
		return err
	}
	if ev.Until <= ev.At {
		return &SpecError{Field: evField(i, "until"), Msg: "the window must end after it starts (until > at)"}
	}
	return nil
}

// armRun arms a faultrun fault of the given kind on the event's cell.
func armRun(kind faultrun.Kind) func(*rig, Event) {
	return func(r *rig, ev Event) {
		r.run.On(ev.Cell, faultrun.Fault{
			Kind:     kind,
			Times:    ev.Times,
			ExitCode: ev.ExitCode,
			Event:    ev.Event,
			NaN:      ev.NaN,
			Delay:    ev.Delay.D(),
		})
	}
}

// armWeather adds a faultperf fault to the weather of the event's
// target probe, or of every probe. Window times convert to engine
// cycles at the stage machine's clock rate.
func armWeather(add func(s *faultperf.Script, from, to uint64, ev Event)) func(*rig, Event) {
	return func(r *rig, ev Event) {
		from, to := cyclesAt(ev.At, r.mach), cyclesAt(ev.Until, r.mach)
		w := &r.weather
		if p := r.plans[ev.Target]; p != nil {
			w = &p.weather
		}
		*w = append(*w, func(s *faultperf.Script) { add(s, from, to, ev) })
	}
}

// commitKills maps fleet.kill_coordinator's crash windows to the
// faultfleet builders that script them.
var commitKills = map[string]func(*faultfleet.CoordinatorScript, int) *faultfleet.CoordinatorScript{
	"before_commit": (*faultfleet.CoordinatorScript).KillBeforeCommit,
	"after_write":   (*faultfleet.CoordinatorScript).KillAfterWrite,
	"torn":          (*faultfleet.CoordinatorScript).TearCommit,
}

// diskKills maps disk.kill's operation classes to the faultdisk
// builders that crash in them.
var diskKills = map[string]func(*faultdisk.Script, int) *faultdisk.Script{
	"write":   (*faultdisk.Script).KillOnWrite,
	"sync":    (*faultdisk.Script).KillOnSync,
	"create":  (*faultdisk.Script).KillOnCreate,
	"syncdir": (*faultdisk.Script).KillOnSyncDir,
}

// atLeast checks a counter from the outcome against the event's min.
func atLeast(label string, got func(out *outcome) int) func(*Scenario, Event, *outcome) (bool, string) {
	return func(_ *Scenario, ev Event, out *outcome) (bool, string) {
		n := got(out)
		return float64(n) >= *ev.Min, fmt.Sprintf("%s=%d min=%g", label, n, *ev.Min)
	}
}

var registry = map[string]*actionDef{
	// --- faultnet (fetch): the probe connection misbehaves. ---
	"net.delay_response": {
		name: "net.delay_response", modes: []string{ModeFetch},
		summary: "stall every write on the Nth accepted connection",
		params:  "conn (0-based), delay", fields: []string{"conn", "delay"},
		validate: needDelay,
		arm:      func(r *rig, ev Event) { r.conn(ev.Conn).WriteDelay = ev.Delay.D() },
	},
	"net.corrupt_response": {
		name: "net.corrupt_response", modes: []string{ModeFetch},
		summary:  "flip one bit of the response frame at a byte offset (after the HELLO)",
		params:   "conn (0-based), offset (1-based byte of the post-HELLO stream)",
		fields:   []string{"conn", "offset"},
		validate: needPositiveOffset,
		arm:      func(r *rig, ev Event) { r.conn(ev.Conn).CorruptWriteAt = ev.Offset },
	},
	"net.truncate_response": {
		name: "net.truncate_response", modes: []string{ModeFetch},
		summary:  "close the connection mid-response at a byte offset (after the HELLO)",
		params:   "conn (0-based), offset (1-based byte of the post-HELLO stream)",
		fields:   []string{"conn", "offset"},
		validate: needPositiveOffset,
		arm:      func(r *rig, ev Event) { r.conn(ev.Conn).TruncateWriteAt = ev.Offset },
	},
	"net.corrupt_request": {
		name: "net.corrupt_request", modes: []string{ModeFetch},
		summary:  "flip one bit of the client's request at a byte offset",
		params:   "conn (0-based), offset (1-based)",
		fields:   []string{"conn", "offset"},
		validate: needPositiveOffset,
		arm:      func(r *rig, ev Event) { r.conn(ev.Conn).CorruptReadAt = ev.Offset },
	},
	"net.reset_request": {
		name: "net.reset_request", modes: []string{ModeFetch},
		summary:  "reset the connection once N request bytes were read",
		params:   "conn (0-based), offset (1-based)",
		fields:   []string{"conn", "offset"},
		validate: needPositiveOffset,
		arm:      func(r *rig, ev Event) { r.conn(ev.Conn).ResetReadAt = ev.Offset },
	},
	"net.refuse_accepts": {
		name: "net.refuse_accepts", modes: []string{ModeFetch},
		summary: "fail the first N accepts with a temporary error",
		params:  "count (> 0)", fields: []string{"count"},
		validate: func(_ *Scenario, ev *Event, i int) error {
			if ev.Count <= 0 {
				return &SpecError{Field: evField(i, "count"), Msg: "a positive count is required"}
			}
			return nil
		},
		arm: func(r *rig, ev Event) { r.failAccepts = ev.Count },
	},

	// --- faultrun (campaign): a run cell misbehaves. ---
	"run.hang": {
		name: "run.hang", modes: []string{ModeCampaign},
		summary:  "block the cell's run until the supervisor's timeout abandons it",
		params:   "cell (\"p0/r1/b2\"), times (0 = every attempt)",
		fields:   []string{"cell", "times"},
		validate: needCell,
		arm:      armRun(faultrun.Hang),
	},
	"run.exit": {
		name: "run.exit", modes: []string{ModeCampaign},
		summary:  "fail the cell's run with a nonzero-exit error",
		params:   "cell, exit_code, times (1 = transient, 0 = deterministic), delay",
		fields:   []string{"cell", "exit_code", "times", "delay"},
		validate: needCell,
		arm:      armRun(faultrun.Exit),
	},
	"run.panic": {
		name: "run.panic", modes: []string{ModeCampaign},
		summary:  "panic inside the cell's run (recovered by the supervisor)",
		params:   "cell, times, delay",
		fields:   []string{"cell", "times", "delay"},
		validate: needCell,
		arm:      armRun(faultrun.Panic),
	},
	"run.corrupt": {
		name: "run.corrupt", modes: []string{ModeCampaign},
		summary:  "return an impossible counter value from the cell's run",
		params:   "cell, event (counter name, empty = first), nan, times",
		fields:   []string{"cell", "event", "nan", "times"},
		validate: needCell,
		arm:      armRun(faultrun.Corrupt),
	},
	"run.slow": {
		name: "run.slow", modes: []string{ModeCampaign},
		summary: "delay the cell's run, then let it proceed",
		params:  "cell, delay, times", fields: []string{"cell", "delay", "times"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := needCell(sc, ev, i); err != nil {
				return err
			}
			return needDelay(sc, ev, i)
		},
		arm: armRun(faultrun.Slow),
	},

	// --- faultdata (campaign): poison the gathered measurement, then
	// compare against the clean one through evsel. ---
	"data.poison_samples": {
		name: "data.poison_samples", modes: []string{ModeCampaign},
		summary:  "replace a fraction of every event's samples with NaN/negatives",
		params:   "frac ((0, 1])",
		fields:   []string{"frac"},
		validate: needFrac,
		arm: func(r *rig, ev Event) {
			r.data = append(r.data, func(in *faultdata.Injector, m *perf.Measurement) *perf.Measurement {
				return in.PoisonSamples(m, ev.Frac)
			})
		},
	},
	"data.flatten_series": {
		name: "data.flatten_series", modes: []string{ModeCampaign},
		summary: "freeze one counter's samples to a constant (zero-variance trap)",
		params:  "event (counter name), value", fields: []string{"event", "value"},
		validate: func(_ *Scenario, ev *Event, i int) error {
			if ev.Event == "" {
				return &SpecError{Field: evField(i, "event"), Msg: "a counter event name is required"}
			}
			if _, ok := counters.Lookup(ev.Event); !ok {
				return &SpecError{Field: evField(i, "event"), Msg: fmt.Sprintf("unknown counter %q", ev.Event)}
			}
			return nil
		},
		arm: func(r *rig, ev Event) {
			id, _ := counters.Lookup(ev.Event)
			r.data = append(r.data, func(in *faultdata.Injector, m *perf.Measurement) *perf.Measurement {
				return in.FlattenSeries(m, id, ev.Value)
			})
		},
	},
	"data.inject_outliers": {
		name: "data.inject_outliers", modes: []string{ModeCampaign},
		summary:  "scale a fraction of samples by a large factor",
		params:   "frac ((0, 1]), factor (default 1000)",
		fields:   []string{"frac", "factor"},
		validate: needFrac,
		arm: func(r *rig, ev Event) {
			factor := ev.Factor
			if factor == 0 {
				factor = 1000
			}
			r.data = append(r.data, func(in *faultdata.Injector, m *perf.Measurement) *perf.Measurement {
				return in.InjectOutliers(m, ev.Frac, factor)
			})
		},
	},

	// --- faultperf (collect, fleet): PMU weather over a time window.
	// Window times convert to engine cycles at the machine clock rate;
	// in fleet mode target \"*\" applies the weather uniformly. ---
	"perf.overrun_burst": {
		name: "perf.overrun_burst", modes: []string{ModeCollect, ModeFleet},
		summary: "drop every sampled record in [at, until) as buffer overruns",
		params:  "at, until (omit for unbounded), target (fleet: \"*\" or probe)",
		fields:  []string{"until", "target"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := perfTarget(sc, ev, i); err != nil {
				return err
			}
			if ev.Until != 0 && ev.Until <= ev.At {
				return &SpecError{Field: evField(i, "until"), Msg: "the window must end after it starts (until > at)"}
			}
			return nil
		},
		arm: armWeather(func(s *faultperf.Script, from, to uint64, _ Event) { s.OverrunBurst(from, to) }),
	},
	"perf.throttle_storm": {
		name: "perf.throttle_storm", modes: []string{ModeCollect, ModeFleet},
		summary:  "force interrupt throttling across [at, until)",
		params:   "at, until, target (fleet: \"*\" or probe)",
		fields:   []string{"until", "target"},
		validate: perfWindow,
		arm:      armWeather(func(s *faultperf.Script, from, to uint64, _ Event) { s.ThrottleStorm(from, to) }),
	},
	"perf.observer_stall": {
		name: "perf.observer_stall", modes: []string{ModeCollect, ModeFleet},
		summary:  "stall PMI drains across [at, until) so the buffer backs up",
		params:   "at, until, target (fleet: \"*\" or probe)",
		fields:   []string{"until", "target"},
		validate: perfWindow,
		arm:      armWeather(func(s *faultperf.Script, from, to uint64, _ Event) { s.ObserverStall(from, to) }),
	},
	"perf.starve": {
		name: "perf.starve", modes: []string{ModeCollect, ModeFleet},
		summary: "steal dwell slices from one threshold of the cycler",
		params:  "threshold (index), slices (> 0), target (fleet: \"*\" or probe)",
		fields:  []string{"threshold", "slices", "target"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := perfTarget(sc, ev, i); err != nil {
				return err
			}
			if ev.Threshold < 0 {
				return &SpecError{Field: evField(i, "threshold"), Msg: "must be >= 0"}
			}
			if ev.Slices <= 0 {
				return &SpecError{Field: evField(i, "slices"), Msg: "a positive slice count is required"}
			}
			return nil
		},
		arm: armWeather(func(s *faultperf.Script, _, _ uint64, ev Event) { s.Starve(ev.Threshold, ev.Slices) }),
	},

	// --- faultfleet (fleet): probes and the coordinator misbehave. ---
	"fleet.refuse_connects": {
		name: "fleet.refuse_connects", modes: []string{ModeFleet},
		summary: "make the probe's first N dials fail (partitioned probe)",
		params:  "target (probe), count (> 0)", fields: []string{"target", "count"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := needFleetTarget(sc, ev, i); err != nil {
				return err
			}
			if ev.Count <= 0 {
				return &SpecError{Field: evField(i, "count"), Msg: "a positive count is required"}
			}
			return nil
		},
		arm: func(r *rig, ev Event) {
			// A probe partitioned at first registers late; the stage
			// waits only for the probes that can dial in at once.
			r.late++
			r.plans[ev.Target].script.RefuseFirstConnects(ev.Count)
		},
	},
	"fleet.refuse_reconnects": {
		name: "fleet.refuse_reconnects", modes: []string{ModeFleet},
		summary:  "let the first dial through, refuse every reconnect",
		params:   "target (probe)",
		fields:   []string{"target"},
		validate: needFleetTarget,
		arm:      func(r *rig, ev Event) { r.plans[ev.Target].script.RefuseReconnects() },
	},
	"fleet.drop_heartbeat": {
		name: "fleet.drop_heartbeat", modes: []string{ModeFleet},
		summary: "suppress one heartbeat beacon (transient silence)",
		params:  "target (probe), seq (1-based)", fields: []string{"target", "seq"},
		validate: needSeq,
		arm:      func(r *rig, ev Event) { r.plans[ev.Target].script.DropHeartbeat(ev.Seq) },
	},
	"fleet.silence_heartbeats": {
		name: "fleet.silence_heartbeats", modes: []string{ModeFleet},
		summary: "suppress every heartbeat from seq on (probe goes dark)",
		params:  "target (probe), seq (1-based)", fields: []string{"target", "seq"},
		validate: needSeq,
		arm:      func(r *rig, ev Event) { r.plans[ev.Target].script.SilenceHeartbeatsFrom(ev.Seq) },
	},
	"fleet.delay_request": {
		name: "fleet.delay_request", modes: []string{ModeFleet},
		summary: "stall the probe's Nth served request",
		params:  "target (probe), n (1-based), delay", fields: []string{"target", "n", "delay"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := needNth(sc, ev, i); err != nil {
				return err
			}
			return needDelay(sc, ev, i)
		},
		arm: func(r *rig, ev Event) { r.plans[ev.Target].script.DelayRequest(ev.N, ev.Delay.D()) },
	},
	"fleet.delay_every_request": {
		name: "fleet.delay_every_request", modes: []string{ModeFleet},
		summary: "stall every request the probe serves (a slow probe)",
		params:  "target (probe), delay", fields: []string{"target", "delay"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := needFleetTarget(sc, ev, i); err != nil {
				return err
			}
			return needDelay(sc, ev, i)
		},
		arm: func(r *rig, ev Event) { r.plans[ev.Target].script.DelayEveryRequest(ev.Delay.D()) },
	},
	"fleet.crash_request": {
		name: "fleet.crash_request", modes: []string{ModeFleet},
		summary: "crash the probe on its Nth request (stay_down: never restart)",
		params:  "target (probe), n (1-based), stay_down", fields: []string{"target", "n", "stay_down"},
		validate: needNth,
		arm: func(r *rig, ev Event) {
			if ev.StayDown {
				r.plans[ev.Target].script.CrashOnRequestStayDown(ev.N)
			} else {
				r.plans[ev.Target].script.CrashOnRequest(ev.N)
			}
		},
	},
	"fleet.flap": {
		name: "fleet.flap", modes: []string{ModeFleet},
		summary:  "crash the probe on every request until strike accounting quarantines it",
		params:   "target (probe)",
		fields:   []string{"target"},
		validate: needFleetTarget,
		arm: func(r *rig, ev Event) {
			p := r.plans[ev.Target]
			p.script.CrashAlways()
			p.flaps = true
		},
	},
	"fleet.overload_answers": {
		name: "fleet.overload_answers", modes: []string{ModeFleet},
		summary: "answer requests n..n+count-1 with an \"overloaded\" ERROR carrying a retry-after hint (backpressure, not probe death)",
		params:  "target (probe), n (1-based), count (> 0), retry_after",
		fields:  []string{"target", "n", "count", "retry_after"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := needNth(sc, ev, i); err != nil {
				return err
			}
			if ev.Count <= 0 {
				return &SpecError{Field: evField(i, "count"), Msg: "a positive count is required"}
			}
			if ev.RetryAfter <= 0 {
				return &SpecError{Field: evField(i, "retry_after"), Msg: "a positive retry-after hint is required"}
			}
			return nil
		},
		arm: func(r *rig, ev Event) { r.plans[ev.Target].script.OverloadRequests(ev.N, ev.Count, ev.RetryAfter.D()) },
	},
	"fleet.kill_coordinator": {
		name: "fleet.kill_coordinator", modes: []string{ModeFleet},
		summary: "kill the coordinator mid-scatter or in a commit crash window",
		params:  "on_dispatch (1-based dispatch), or window (before_commit|after_write|torn) + n (cell index)",
		fields:  []string{"on_dispatch", "window", "n"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if !sc.Fleet.Journal || !sc.Fleet.Resume {
				return &SpecError{Field: evField(i, "action"), Msg: "fleet.kill_coordinator requires fleet.journal and fleet.resume"}
			}
			switch {
			case ev.OnDispatch > 0 && ev.Window == "":
				return nil
			case ev.OnDispatch == 0 && ev.Window != "":
				if commitKills[ev.Window] == nil {
					return &SpecError{Field: evField(i, "window"), Msg: fmt.Sprintf("unknown crash window %q", ev.Window)}
				}
				if ev.N < 0 || ev.N >= max(sc.Fleet.Campaign.Cells, 1) {
					return &SpecError{Field: evField(i, "n"), Msg: "cell index out of range"}
				}
				return nil
			default:
				return &SpecError{Field: evField(i, "on_dispatch"), Msg: "set exactly one of on_dispatch or window"}
			}
		},
		arm: func(r *rig, ev Event) {
			r.crash = true
			if ev.OnDispatch > 0 {
				// Which dispatches landed before a mid-scatter kill
				// depends on scheduling, so replay accounting does too.
				r.midScatter = true
				r.kill.KillOnDispatch(ev.OnDispatch)
				return
			}
			commitKills[ev.Window](&r.kill, ev.N)
		},
	},

	// --- faultdisk (fleet): the disk under the crash journal
	// misbehaves. Faults count global 1-based occurrences of their
	// operation class across the journal's lifetime. ---
	"disk.enospc": {
		name: "disk.enospc", modes: []string{ModeFleet},
		summary:  "fail the journal's Nth write with ENOSPC (the disk fills up)",
		params:   "n (1-based journal write; needs fleet.journal)",
		fields:   []string{"n"},
		validate: needDiskFault,
		arm:      func(r *rig, ev Event) { r.disk.ENOSPCOnWrite(ev.N) },
	},
	"disk.sync_fail": {
		name: "disk.sync_fail", modes: []string{ModeFleet},
		summary:  "fail the journal's Nth fsync with EIO (the durability barrier lies)",
		params:   "n (1-based journal fsync; needs fleet.journal)",
		fields:   []string{"n"},
		validate: needDiskFault,
		arm:      func(r *rig, ev Event) { r.disk.FailSync(ev.N) },
	},
	"disk.torn_write": {
		name: "disk.torn_write", modes: []string{ModeFleet},
		summary:  "land only half of the journal's Nth write, then kill the coordinator (a torn record)",
		params:   "n (1-based journal write; needs fleet.journal and fleet.resume)",
		fields:   []string{"n"},
		validate: needDiskKill,
		arm: func(r *rig, ev Event) {
			r.crash = true
			r.disk.TearOnWrite(ev.N)
		},
	},
	"disk.kill": {
		name: "disk.kill", modes: []string{ModeFleet},
		summary: "kill the coordinator at the journal's Nth disk operation of class `op` (crash windows including mid-rotation)",
		params:  "op (write|sync|create|syncdir), n (1-based; needs fleet.journal and fleet.resume)",
		fields:  []string{"op", "n"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := needDiskKill(sc, ev, i); err != nil {
				return err
			}
			if diskKills[ev.Op] == nil {
				return &SpecError{Field: evField(i, "op"), Msg: fmt.Sprintf("unknown journal operation %q (write, sync, create or syncdir)", ev.Op)}
			}
			return nil
		},
		arm: func(r *rig, ev Event) {
			r.crash = true
			diskKills[ev.Op](&r.disk, ev.N)
		},
	},

	// --- assertions: evaluated against the stage outcome after the
	// run; `at` orders them on the report timeline. ---
	"assert.complete": {
		name: "assert.complete", modes: []string{ModeCampaign, ModeFleet},
		summary: "every cell completed, nothing quarantined",
		params:  "-",
		check: func(sc *Scenario, _ Event, out *outcome) (bool, string) {
			if sc.Mode == ModeCampaign {
				c := out.camp
				return c.Complete(), fmt.Sprintf("cells=%d gaps=%d quarantined=%d", c.Cells, len(c.Gaps), len(c.Quarantined))
			}
			r := out.fleetRep
			return r.Complete(), fmt.Sprintf("cells=%d completed=%d gaps=%d", r.Cells, r.Completed, len(r.Gaps))
		},
	},
	"assert.gaps": {
		name: "assert.gaps", modes: []string{ModeCampaign, ModeFleet},
		summary: "exactly `count` cells ended as typed gaps",
		params:  "count", fields: []string{"count"},
		check: func(sc *Scenario, ev Event, out *outcome) (bool, string) {
			got := 0
			if sc.Mode == ModeCampaign {
				got = len(out.camp.Gaps)
			} else {
				got = len(out.fleetRep.Gaps)
			}
			return got == ev.Count, fmt.Sprintf("gaps=%d want=%d", got, ev.Count)
		},
	},
	"assert.retried": {
		name: "assert.retried", modes: []string{ModeCampaign},
		summary: "at least `min` retry attempts were taken",
		params:  "min", fields: []string{"min"},
		validate: needMin,
		check:    atLeast("retried", func(out *outcome) int { return out.camp.Retried }),
	},
	"assert.replayed": {
		name: "assert.replayed", modes: []string{ModeFleet},
		summary: "at least `min` cells were replayed from the resume journal",
		params:  "min", fields: []string{"min"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if !sc.Fleet.Resume {
				return &SpecError{Field: evField(i, "action"), Msg: "assert.replayed requires fleet.resume: true"}
			}
			return needMin(sc, ev, i)
		},
		check: atLeast("replayed", func(out *outcome) int { return out.fleetRep.Replayed }),
	},
	"assert.truncated": {
		name: "assert.truncated", modes: []string{ModeFleet},
		summary: "the resume dropped a torn final journal record",
		params:  "-",
		validate: func(sc *Scenario, ev *Event, i int) error {
			if !sc.Fleet.Resume {
				return &SpecError{Field: evField(i, "action"), Msg: "assert.truncated requires fleet.resume: true"}
			}
			return nil
		},
		check: func(_ *Scenario, _ Event, out *outcome) (bool, string) {
			return out.fleetRep.Truncated, fmt.Sprintf("truncated=%v", out.fleetRep.Truncated)
		},
	},
	"assert.quarantined": {
		name: "assert.quarantined", modes: []string{ModeCampaign, ModeFleet},
		summary: "the named probe (fleet) or counter (campaign) was quarantined",
		params:  "target (probe ID or counter name)", fields: []string{"target"},
		validate: func(_ *Scenario, ev *Event, i int) error {
			if ev.Target == "" {
				return &SpecError{Field: evField(i, "target"), Msg: "a target is required"}
			}
			return nil
		},
		check: func(sc *Scenario, ev Event, out *outcome) (bool, string) {
			if sc.Mode == ModeCampaign {
				for _, q := range out.camp.Quarantined {
					if q.Name == ev.Target {
						return true, fmt.Sprintf("counter %s quarantined after %d strikes", q.Name, q.Strikes)
					}
				}
				return false, fmt.Sprintf("counter %s not quarantined", ev.Target)
			}
			for _, q := range out.fleetRep.Quarantined {
				if q.ID == ev.Target {
					return true, fmt.Sprintf("probe %s quarantined", q.ID)
				}
			}
			return false, fmt.Sprintf("probe %s not quarantined", ev.Target)
		},
	},
	"assert.coverage": {
		name: "assert.coverage", modes: []string{ModeFetch, ModeCollect, ModeFleet},
		summary: "the histogram's sampling coverage lies in [min, max]",
		params:  "min, max (omit for 1)", fields: []string{"min", "max"},
		validate: needMin,
		check: func(_ *Scenario, ev Event, out *outcome) (bool, string) {
			if out.hist == nil {
				return false, "no deterministic histogram to assess"
			}
			c := out.hist.Coverage()
			lo, hi := *ev.Min, 1.0
			if ev.Max != nil {
				hi = *ev.Max
			}
			return c >= lo && c <= hi, fmt.Sprintf("coverage=%.4f range=[%g, %g]", c, lo, hi)
		},
	},
	"assert.records_dropped": {
		name: "assert.records_dropped", modes: []string{ModeCollect},
		summary: "the PMU script dropped at least `min` records",
		params:  "min", fields: []string{"min"},
		validate: needMin,
		check:    atLeast("records_dropped", func(out *outcome) int { return out.perfScript.RecordsDropped() }),
	},
	"assert.throttles": {
		name: "assert.throttles", modes: []string{ModeCollect},
		summary: "the PMU script fired at least `min` throttles",
		params:  "min", fields: []string{"min"},
		validate: needMin,
		check:    atLeast("throttles", func(out *outcome) int { return out.perfScript.ThrottlesFired() }),
	},
	"assert.slices_starved": {
		name: "assert.slices_starved", modes: []string{ModeCollect},
		summary: "the PMU script starved at least `min` dwell slices",
		params:  "min", fields: []string{"min"},
		validate: needMin,
		check:    atLeast("slices_starved", func(out *outcome) int { return out.perfScript.SlicesStarved() }),
	},
	"assert.degraded": {
		name: "assert.degraded", modes: []string{ModeCampaign},
		summary: "the clean-vs-poisoned comparison carries diagnostics",
		params:  "-", validate: needDataStage,
		check: func(_ *Scenario, _ Event, out *outcome) (bool, string) {
			return out.cmp.Degraded(), fmt.Sprintf("degraded=%v", out.cmp.Degraded())
		},
	},
	"assert.hard_degraded": {
		name: "assert.hard_degraded", modes: []string{ModeCampaign},
		summary: "the comparison carries trust-breaking diagnostics",
		params:  "-", validate: needDataStage,
		check: func(_ *Scenario, _ Event, out *outcome) (bool, string) {
			return out.cmp.HardDegraded(), fmt.Sprintf("hard_degraded=%v", out.cmp.HardDegraded())
		},
	},
	"assert.finite_render": {
		name: "assert.finite_render", modes: []string{ModeFetch, ModeCampaign, ModeCollect, ModeFleet},
		summary: "the human rendering of the outcome contains no NaN/Inf",
		params:  "-",
		check: func(_ *Scenario, _ Event, out *outcome) (bool, string) {
			finite := !strings.Contains(out.render, "NaN") && !strings.Contains(out.render, "Inf")
			return finite, fmt.Sprintf("finite=%v", finite)
		},
	},
	"assert.matches_reference": {
		name: "assert.matches_reference", modes: []string{ModeFetch, ModeFleet},
		summary: "the histogram is byte-identical to the locally computed reference",
		params:  "-",
		check: func(_ *Scenario, _ Event, out *outcome) (bool, string) {
			return out.matchesRef, fmt.Sprintf("matches_reference=%v", out.matchesRef)
		},
	},
	"assert.backpressure": {
		name: "assert.backpressure", modes: []string{ModeFleet},
		summary: "at least `min` cells were deferred with retry-after hints",
		params:  "min", fields: []string{"min"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if err := needOverloadStage(sc, ev, i); err != nil {
				return err
			}
			return needMin(sc, ev, i)
		},
		check: func(_ *Scenario, ev Event, out *outcome) (bool, string) {
			// The deferral tally varies with dispatch scheduling, so the
			// detail records only the threshold verdict — keeping the
			// report byte-identical across runs.
			ok := float64(out.fleetRep.Backpressure) >= *ev.Min
			return ok, fmt.Sprintf("deferrals>=%g met=%v", *ev.Min, ok)
		},
	},
	"assert.journal": {
		name: "assert.journal", modes: []string{ModeFleet},
		summary: "the crash journal's end state: degraded (resume protection honestly lost) or clean (fsck-verified on disk)",
		params:  "equals (clean | degraded; needs fleet.journal)", fields: []string{"equals"},
		validate: func(sc *Scenario, ev *Event, i int) error {
			if !sc.Fleet.Journal {
				return &SpecError{Field: evField(i, "action"), Msg: "assert.journal requires fleet.journal: true"}
			}
			switch ev.Equals {
			case "clean", "degraded":
				return nil
			}
			return &SpecError{Field: evField(i, "equals"), Msg: "must be clean or degraded"}
		},
		check: func(_ *Scenario, ev Event, out *outcome) (bool, string) {
			state := "clean"
			if out.fleetRep.JournalDegraded {
				state = "degraded"
			}
			ok := state == ev.Equals
			if ev.Equals == "clean" {
				// A clean journal must also fsck clean on disk — degradation
				// and corruption both fail the assertion.
				ok = ok && out.journalVerify == "clean"
			}
			return ok, fmt.Sprintf("journal=%s fsck=%s want=%s", state, out.journalVerify, ev.Equals)
		},
	},
	"assert.origin": {
		name: "assert.origin", modes: []string{ModeFetch},
		summary: "the fetched histogram's origin tag",
		params:  "equals (local | probe | local-fallback)", fields: []string{"equals"},
		validate: func(_ *Scenario, ev *Event, i int) error {
			switch ev.Equals {
			case "local", "probe", "local-fallback":
				return nil
			}
			return &SpecError{Field: evField(i, "equals"), Msg: "must be local, probe or local-fallback"}
		},
		check: func(_ *Scenario, ev Event, out *outcome) (bool, string) {
			return out.origin == ev.Equals, fmt.Sprintf("origin=%s want=%s", out.origin, ev.Equals)
		},
	},
}

// needNth validates a fault aimed at a probe's Nth request.
func needNth(sc *Scenario, ev *Event, i int) error {
	if err := needFleetTarget(sc, ev, i); err != nil {
		return err
	}
	if ev.N < 1 {
		return &SpecError{Field: evField(i, "n"), Msg: "n is 1-based"}
	}
	return nil
}

// needSeq validates a fault aimed at a probe's heartbeat sequence.
func needSeq(sc *Scenario, ev *Event, i int) error {
	if err := needFleetTarget(sc, ev, i); err != nil {
		return err
	}
	if ev.Seq < 1 {
		return &SpecError{Field: evField(i, "seq"), Msg: "seq is 1-based"}
	}
	return nil
}

// needDiskFault validates the non-crashing disk.* faults: they need a
// journal under the campaign and a 1-based occurrence count.
func needDiskFault(sc *Scenario, ev *Event, i int) error {
	if !sc.Fleet.Journal {
		return &SpecError{Field: evField(i, "action"), Msg: ev.Action + " requires fleet.journal: true"}
	}
	if ev.N < 1 {
		return &SpecError{Field: evField(i, "n"), Msg: "n is 1-based"}
	}
	return nil
}

// needDiskKill additionally requires resume: these faults kill the
// coordinator, so without a resumable journal the scenario cannot
// finish.
func needDiskKill(sc *Scenario, ev *Event, i int) error {
	if err := needDiskFault(sc, ev, i); err != nil {
		return err
	}
	if !sc.Fleet.Resume {
		return &SpecError{Field: evField(i, "action"), Msg: ev.Action + " requires fleet.resume: true"}
	}
	return nil
}

func needMin(_ *Scenario, ev *Event, i int) error {
	if ev.Min == nil {
		return &SpecError{Field: evField(i, "min"), Msg: "required"}
	}
	return nil
}

// needOverloadStage ties the backpressure assert to an actual overload
// fault: without scripted overload answers there is nothing deferred
// to assert about.
func needOverloadStage(sc *Scenario, ev *Event, i int) error {
	for _, other := range sc.Events {
		if other.Action == "fleet.overload_answers" {
			return nil
		}
	}
	return &SpecError{Field: evField(i, "action"), Msg: ev.Action + " requires a fleet.overload_answers fault event"}
}

// needDataStage ties degradation asserts to an actual data.* fault:
// without one there is no poisoned comparison to inspect.
func needDataStage(sc *Scenario, ev *Event, i int) error {
	for _, other := range sc.Events {
		if strings.HasPrefix(other.Action, "data.") {
			return nil
		}
	}
	return &SpecError{Field: evField(i, "action"), Msg: ev.Action + " requires a data.* fault event"}
}
