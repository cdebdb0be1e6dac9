package numaperf

import (
	"fmt"
	"sort"
	"strings"

	"numaperf/internal/exec"
	"numaperf/internal/metrics"
	"numaperf/internal/oslite"
)

// PlacementResult is the measured outcome of one placement
// configuration (page policy × thread mapping) for a workload — the
// practical question the paper's tools exist to answer: where should
// data and threads go?
type PlacementResult struct {
	// Policy is the page placement policy name.
	Policy string
	// Mapping is the thread pinning strategy name.
	Mapping string
	// Cycles is the makespan.
	Cycles float64
	// Seconds is the simulated wall time.
	Seconds float64
	// LocalDRAMPct is the NUMA locality of DRAM loads (percent).
	LocalDRAMPct float64
	// QPIGBs is the interconnect bandwidth consumed.
	QPIGBs float64
	// Speedup is relative to the slowest configuration (≥ 1).
	Speedup float64
}

// ComparePlacements runs the workload once under every combination of
// page policy (first-touch, interleave, bind-0) and thread mapping
// (compact, scatter), and returns the results ordered fastest first
// with speedups relative to the slowest. Every field comes from exact
// counts, so a repeated run, which re-draws only the noise, would
// change nothing.
func (s *Session) ComparePlacements(w Workload) ([]PlacementResult, error) {
	type variant struct {
		name    string
		policy  oslite.Policy
		bind    int
		mapName string
		mapping exec.Mapping
	}
	var variants []variant
	for _, p := range []struct {
		name   string
		policy oslite.Policy
		bind   int
	}{
		{"first-touch", oslite.FirstTouch, 0},
		{"interleave", oslite.Interleave, 0},
		{"bind-0", oslite.Bind, 0},
	} {
		for _, m := range []struct {
			name    string
			mapping exec.Mapping
		}{
			{"compact", exec.Compact},
			{"scatter", exec.Scatter},
		} {
			variants = append(variants, variant{p.name, p.policy, p.bind, m.name, m.mapping})
		}
	}

	body := w.Body()
	var out []PlacementResult
	for _, v := range variants {
		cfg := s.cfg
		cfg.Policy = v.policy
		cfg.BindNode = v.bind
		cfg.Mapping = v.mapping
		e, err := exec.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		res, err := e.Run(body)
		if err != nil {
			return nil, fmt.Errorf("numaperf: %s/%s: %w", v.name, v.mapName, err)
		}
		local := 100.0 // no DRAM traffic at all counts as local
		var qpi float64
		vals := metrics.Compute(res.Raw, res.Machine, res.Seconds)
		if mv, ok := metrics.ByName(vals, "local-dram"); ok && mv.OK {
			local = mv.V
		}
		if mv, ok := metrics.ByName(vals, "qpi-bw"); ok && mv.OK {
			qpi = mv.V
		}
		out = append(out, PlacementResult{
			Policy:       v.name,
			Mapping:      v.mapName,
			Cycles:       float64(res.Cycles),
			Seconds:      res.Seconds,
			LocalDRAMPct: local,
			QPIGBs:       qpi,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycles < out[j].Cycles })
	worst := out[len(out)-1].Cycles
	for i := range out {
		if out[i].Cycles > 0 {
			out[i].Speedup = worst / out[i].Cycles
		}
	}
	return out, nil
}

// RenderPlacements formats a placement comparison, fastest first.
func RenderPlacements(rows []PlacementResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-8s %14s %10s %10s %8s\n",
		"POLICY", "PINNING", "CYCLES", "LOCAL %", "QPI GB/s", "SPEEDUP")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-8s %14.4g %10.1f %10.3g %7.2fx\n",
			r.Policy, r.Mapping, r.Cycles, r.LocalDRAMPct, r.QPIGBs, r.Speedup)
	}
	return sb.String()
}
