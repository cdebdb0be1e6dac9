package scenario

import (
	"bytes"
	"testing"
)

// TestFleetPerfWeatherRouting pins how a fleet scenario routes PMU
// weather. Uniform weather (target "*") replays on every serve of a
// cell, so the merged histogram moves away from a clear-sky run yet
// still matches the weather-aware reference. Weather aimed at one probe
// makes the merged histogram depend on which probe served which cell,
// so the report flags the outcome assignment-dependent and omits the
// histogram.
func TestFleetPerfWeatherRouting(t *testing.T) {
	uniform := findOutcome(t, runScenario(t, loadScenario(t, "fleet-perf-weather"), RunOptions{}), "fleet").(fleetOutcomeRec)
	if uniform.AssignmentDependent || len(uniform.Histogram) == 0 {
		t.Fatalf("uniform weather: assignment_dependent=%v, histogram %d bytes; want false and a histogram",
			uniform.AssignmentDependent, len(uniform.Histogram))
	}

	clearSky := loadScenario(t, "fleet-perf-weather")
	clearSky.Events = clearSky.Events[1:]
	clear := findOutcome(t, runScenario(t, clearSky, RunOptions{}), "fleet").(fleetOutcomeRec)
	if bytes.Equal(uniform.Histogram, clear.Histogram) {
		t.Error("uniform weather left the merged histogram identical to a clear-sky run")
	}

	perProbe := loadScenario(t, "fleet-perf-weather")
	perProbe.Events[0].Target = "probe-a"
	perProbe.Events = perProbe.Events[:2] // weather + assert.complete
	got := findOutcome(t, runScenario(t, perProbe, RunOptions{}), "fleet").(fleetOutcomeRec)
	if !got.AssignmentDependent {
		t.Error("per-probe weather did not mark the outcome assignment-dependent")
	}
	if got.Histogram != nil {
		t.Errorf("per-probe weather kept a placement-dependent histogram in the report: %s", got.Histogram)
	}
}
