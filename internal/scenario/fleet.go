package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"numaperf/internal/faultfleet"
	"numaperf/internal/fleet"
	"numaperf/internal/journal"
	"numaperf/internal/memhist"
)

// The fleet stage runs a real coordinator plus in-process probe agents
// over loopback TCP, mirroring the faultfleet chaos harness: tight
// supervision windows (10ms beacons, 120/240ms suspect/dead) so
// failure transitions happen in test time, with ~12 beacon periods of
// slack so loaded runners never trip them spuriously. The report keeps
// only the deterministic split of fleet.Report — the merged histogram,
// gap cell indexes and quarantined probe IDs — never the dispatch
// accounting that varies with goroutine scheduling.

// probePlan is one resolved fleet member: explicit or generated, with
// its compiled fault script and any per-probe PMU weather.
type probePlan struct {
	id       string
	template string
	chaos    []string
	script   faultfleet.Script
	weather  weather
	flaps    bool // crashes on every request until quarantined
}

// resolveFleet turns the probe roster, generator templates and chaos
// rates into concrete plans. Every draw comes from one rng seeded with
// the scenario seed, consumed in a fixed order (template draws in
// generated-probe order, then the three chaos draws per probe in
// roster order), so the resolved fleet is a pure function of
// (scenario, seed).
func resolveFleet(fs *FleetSpec, seed int64) []*probePlan {
	var plans []*probePlan
	for _, id := range fs.Probes {
		plans = append(plans, &probePlan{id: id})
	}
	rng := rand.New(rand.NewSource(seed))
	if fs.Gen != nil {
		prefix := fs.Gen.Prefix
		if prefix == "" {
			prefix = "gen"
		}
		total := 0
		for _, t := range fs.Gen.Templates {
			total += t.Weight
		}
		for i := 0; i < fs.Gen.Count; i++ {
			draw := rng.Intn(total)
			var tmpl Template
			for _, t := range fs.Gen.Templates {
				if draw < t.Weight {
					tmpl = t
					break
				}
				draw -= t.Weight
			}
			p := &probePlan{id: fmt.Sprintf("%s-%d", prefix, i), template: tmpl.Name}
			applyTemplate(p, tmpl)
			plans = append(plans, p)
		}
	}
	if fs.Chaos != nil {
		for _, p := range plans {
			if rng.Float64() < fs.Chaos.CrashRate {
				p.chaos = append(p.chaos, "crash")
				p.script.CrashOnRequest(1)
			}
			if rng.Float64() < fs.Chaos.SilenceRate {
				p.chaos = append(p.chaos, "silence")
				p.script.SilenceHeartbeatsFrom(3)
			}
			if rng.Float64() < fs.Chaos.DelayRate {
				p.chaos = append(p.chaos, "delay")
				p.script.DelayEveryRequest(15 * time.Millisecond)
			}
		}
	}
	return plans
}

func applyTemplate(p *probePlan, t Template) {
	switch {
	case t.Flap:
		p.script.CrashAlways()
		p.flaps = true
	case t.CrashOnRequest > 0 && t.StayDown:
		p.script.CrashOnRequestStayDown(t.CrashOnRequest)
	case t.CrashOnRequest > 0:
		p.script.CrashOnRequest(t.CrashOnRequest)
	}
	if t.SilenceFrom > 0 {
		p.script.SilenceHeartbeatsFrom(t.SilenceFrom)
	}
}

// flapGate orders a fleet's flapping probes before its answers. A
// flapper crashes on every request until strike accounting quarantines
// it. If the other probes answered freely they could finish the
// campaign before its last strike, and the verdict would hang on
// goroutine timing. So the other probes hold their requests on the
// returned gate until every flapper has been seen quarantined on the
// current coordinator; release opens it early. The gate is nil, and
// nothing holds, without a flapper, without another probe, or with no
// more cells than other probes: each holds one cell, and a flapper
// needs a cell to crash on.
func flapGate(cur *atomic.Pointer[fleet.Coordinator], plans []*probePlan, cells int) (gate <-chan struct{}, release func()) {
	var flappers []string
	for _, p := range plans {
		if p.flaps {
			flappers = append(flappers, p.id)
		}
	}
	others := len(plans) - len(flappers)
	if len(flappers) == 0 || others == 0 || cells <= others {
		return nil, func() {}
	}
	open := make(chan struct{})
	release = sync.OnceFunc(func() { close(open) })
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for len(flappers) > 0 {
			select {
			case <-open:
				return
			case <-tick.C:
			}
			flappers = slices.DeleteFunc(flappers, func(id string) bool {
				st, _ := cur.Load().Tracker().State(id)
				return st == fleet.Quarantined
			})
		}
		release()
	}()
	return open, release
}

// heldScript is a probe's fault script behind a gate: each request
// waits for the gate to open before the script picks its fault.
type heldScript struct {
	*faultfleet.Script
	gate <-chan struct{}
}

func (h heldScript) OnRequest(n int) fleet.Fault {
	<-h.gate
	return h.Script.OnRequest(n)
}

func fleetOptions(fs *FleetSpec, opts RunOptions) fleet.Options {
	o := fleet.Options{
		SuspectAfter: 120 * time.Millisecond,
		DeadAfter:    240 * time.Millisecond,
		ProbeStrikes: 3,
		CellTimeout:  5 * time.Second,
		MaxRetries:   8,
		KeepGoing:    fs.KeepGoing,
		NoProbeGrace: 400 * time.Millisecond,
		Tick:         5 * time.Millisecond,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   15 * time.Millisecond,
		BackoffSeed:  7,
		Logf:         opts.Logf,
	}
	if fs.SuspectAfter > 0 {
		o.SuspectAfter = fs.SuspectAfter.D()
	}
	if fs.DeadAfter > 0 {
		o.DeadAfter = fs.DeadAfter.D()
	}
	if fs.ProbeStrikes > 0 {
		o.ProbeStrikes = fs.ProbeStrikes
	}
	if fs.CellTimeout > 0 {
		o.CellTimeout = fs.CellTimeout.D()
	}
	if fs.MaxRetries > 0 {
		o.MaxRetries = fs.MaxRetries
	}
	return o
}

// agentHarness owns the probe agents' lifetimes.
type agentHarness struct {
	cancel context.CancelFunc
	done   []chan struct{}
}

func (h *agentHarness) stop() {
	h.cancel()
	for _, d := range h.done {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			return
		}
	}
}

func startAgents(addr string, fs *FleetSpec, plans []*probePlan, uniform weather, gate <-chan struct{}, opts RunOptions) *agentHarness {
	ctx, cancel := context.WithCancel(context.Background())
	h := &agentHarness{cancel: cancel}
	hb := 10 * time.Millisecond
	if fs.Heartbeat > 0 {
		hb = fs.Heartbeat.D()
	}
	for _, p := range plans {
		w := p.weather
		if len(w) == 0 {
			w = uniform
		}
		var d fleet.Disruptor = &p.script
		if gate != nil && !p.flaps {
			d = heldScript{&p.script, gate}
		}
		a := &fleet.ProbeAgent{
			ID:                p.id,
			Coordinator:       addr,
			HeartbeatInterval: hb,
			Disruptor:         d,
			BackoffBase:       5 * time.Millisecond,
			BackoffMax:        15 * time.Millisecond,
			BackoffSeed:       int64(len(p.id)),
			Logf:              opts.Logf,
		}
		if len(w) > 0 {
			a.Handle = w.handle
		}
		done := make(chan struct{})
		h.done = append(h.done, done)
		go func() {
			defer close(done)
			_ = a.Run(ctx)
		}()
	}
	return h
}

// relisten rebinds addr after the killed coordinator's listener
// closed, retrying briefly in case the close has not landed yet.
func relisten(addr string) (net.Listener, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("scenario: re-listen on coordinator address: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func shutdownCoordinator(c *fleet.Coordinator) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = c.Shutdown(ctx)
}

func runFleetStage(sc *Scenario, seed int64, faults []Event, opts RunOptions) (*outcome, []FleetProbe, error) {
	fs := sc.Fleet
	plans := resolveFleet(fs, seed)
	mach, err := lookupMachine(fs.Campaign.Machine)
	if err != nil {
		return nil, nil, err
	}
	r := newRig(mach, plans, faults)
	// Per-probe PMU weather makes the merged histogram depend on which
	// probe served which cell.
	assignDep := false
	for _, p := range plans {
		assignDep = assignDep || len(p.weather) > 0
	}

	spec := fleet.Spec{
		Workload:    fs.Campaign.Workload,
		Machine:     fs.Campaign.Machine,
		Threads:     fs.Campaign.Threads,
		Bounds:      append([]uint64(nil), fs.Campaign.Bounds...),
		SliceCycles: fs.Campaign.SliceCycles,
		Adaptive:    fs.Campaign.Adaptive,
		Exact:       fs.Campaign.Exact,
		Cells:       fs.Campaign.Cells,
		RepsPerCell: fs.Campaign.RepsPerCell,
		Seed:        seed,
	}
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}

	fopts := fleetOptions(fs, opts)
	if fs.Journal {
		// The journal lives in a fresh scratch directory so reruns never
		// trip ErrJournalExists; the path itself never enters the report.
		scratch, err := os.MkdirTemp(opts.Dir, "scenario-fleet-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(scratch)
		fopts.JournalPath = filepath.Join(scratch, "fleet.journal")
		fopts.JournalSegmentBytes = fs.SegmentBytes
	}
	// The same disk script serves both coordinator lives of a
	// kill-resume scenario — its one-shot faults never refire.
	fopts.JournalFS = r.disk.FS(nil)
	fopts.Disruptor = &r.kill

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	addr := ln.Addr().String()
	c1 := fleet.NewCoordinator(fopts)
	go c1.Serve(ln)
	coord := c1
	defer func() { shutdownCoordinator(coord) }()

	var cur atomic.Pointer[fleet.Coordinator]
	cur.Store(c1)
	gate, release := flapGate(&cur, plans, spec.Cells)
	agents := startAgents(addr, fs, plans, r.weather, gate, opts)
	defer agents.stop()
	defer release() // held requests return before the agents stop

	// Probes whose first dials are scripted to fail register late; wait
	// only for the ones that can reach the coordinator immediately.
	waitN := max(len(plans)-r.late, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := c1.WaitForProbes(ctx, waitN); err != nil {
		return nil, nil, fmt.Errorf("scenario: fleet registration: %w", err)
	}

	var rep *fleet.Report
	if r.crash {
		opts.logf("fleet: driving campaign into scripted coordinator kill")
		_, kerr := c1.RunCampaign(ctx, spec)
		// A coordinator disruptor kill and a disk kill are both crashes
		// the resumed coordinator must recover from byte-identically.
		if !errors.Is(kerr, fleet.ErrCoordinatorKilled) && !errors.Is(kerr, journal.ErrCrashed) {
			return nil, nil, fmt.Errorf("scenario: campaign returned %v, want a scripted kill", kerr)
		}
		if r.kill.Fired()+r.disk.Fired() == 0 {
			return nil, nil, errors.New("scenario: coordinator kill script never fired")
		}
		shutdownCoordinator(c1)
		ln2, err := relisten(addr)
		if err != nil {
			return nil, nil, err
		}
		fopts2 := fleetOptions(fs, opts)
		fopts2.JournalPath = fopts.JournalPath
		fopts2.JournalSegmentBytes = fopts.JournalSegmentBytes
		fopts2.JournalFS = fopts.JournalFS
		fopts2.Resume = true
		c2 := fleet.NewCoordinator(fopts2)
		go c2.Serve(ln2)
		coord = c2
		cur.Store(c2)
		if err := c2.WaitForProbes(ctx, 1); err != nil {
			return nil, nil, fmt.Errorf("scenario: fleet re-registration after kill: %w", err)
		}
		opts.logf("fleet: resumed coordinator on %s", addr)
		rep, err = c2.RunCampaign(ctx, spec)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: resumed fleet campaign: %w", err)
		}
	} else {
		rep, err = c1.RunCampaign(ctx, spec)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: fleet campaign: %w", err)
		}
	}

	out := &outcome{fleetRep: rep}
	if fs.Journal {
		// Offline fsck over whatever the campaign left on disk, through
		// the real filesystem (scripted faults are spent by now). The
		// verdict is deterministic; the fault detail in rep.JournalFault
		// may carry scratch paths and never enters the report.
		vr, verr := journal.Verify(nil, fopts.JournalPath)
		if verr != nil {
			return nil, nil, fmt.Errorf("scenario: fsck over the fleet journal: %w", verr)
		}
		out.journalVerify = vr.Worst().String()
	}

	// The reference is the fault-free ground truth, computed entirely
	// locally through the same handle the agents serve with. Per-probe
	// PMU weather makes the merged histogram depend on cell placement,
	// so the comparison (and the histogram itself) drops from the
	// report.
	var histJSON json.RawMessage
	if !assignDep && rep.Histogram != nil {
		handle := memhist.HandleRequest
		if len(r.weather) > 0 {
			handle = r.weather.handle
		}
		var hs []*memhist.Histogram
		for i := 0; i < spec.Cells; i++ {
			if hasGap(rep, i) {
				continue
			}
			h, err := handle(spec.CellRequest(i))
			if err != nil {
				return nil, nil, fmt.Errorf("scenario: fleet reference cell %d: %w", i, err)
			}
			hs = append(hs, h)
		}
		ref, err := memhist.MergeHistograms(hs)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: fleet reference merge: %w", err)
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			return nil, nil, err
		}
		histJSON, err = json.Marshal(rep.Histogram)
		if err != nil {
			return nil, nil, err
		}
		out.matchesRef = rep.Complete() && bytes.Equal(histJSON, refJSON)
		out.hist = rep.Histogram
		out.render = rep.Histogram.Render(memhist.Occurrences, 60)
	}

	// Replay accounting is deterministic for commit-window kills (the
	// journal pins which cells committed before the crash) but not for
	// mid-scatter kills, where it depends on which dispatches landed.
	recReplayed := rep.Replayed
	if r.midScatter {
		recReplayed = 0
	}
	var gapIdx []int
	for _, g := range rep.Gaps {
		gapIdx = append(gapIdx, g.Cell)
	}
	var quar []string
	for _, q := range rep.Quarantined {
		quar = append(quar, q.ID)
	}
	out.records = append(out.records, Record{"outcome", fleetOutcomeRec{
		Kind: "outcome", Stage: "fleet",
		Complete: rep.Complete(), Cells: rep.Cells, Completed: rep.Completed,
		Gaps: gapIdx, Quarantined: quar,
		Replayed: recReplayed, Truncated: rep.Truncated,
		JournalDegraded: rep.JournalDegraded, JournalVerify: out.journalVerify,
		AssignmentDependent: assignDep, Histogram: histJSON,
	}})

	var probes []FleetProbe
	for _, p := range plans {
		probes = append(probes, FleetProbe{ID: p.id, Template: p.template, Chaos: p.chaos})
	}
	return out, probes, nil
}

func hasGap(rep *fleet.Report, cell int) bool {
	for _, g := range rep.Gaps {
		if g.Cell == cell {
			return true
		}
	}
	return false
}
