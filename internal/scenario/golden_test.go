package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScenarios are the library entries whose reports are pinned
// byte-for-byte. One per deterministic stage kind: a campaign with a
// transient run fault, a collect under a perf throttle storm, a fleet
// campaign surviving a probe crash, a fleet overload storm
// (backpressure deferrals), a journal degraded by a full disk, and
// uniform PMU weather on a fleet.
// Regenerate with
//
//	go test ./internal/scenario -run TestGoldenReports -update
//
// and review the diff: a golden change means the replayable report
// format (or the engine's determinism) changed.
var goldenScenarios = []string{
	"run-transient-exit",
	"perf-throttle-storm",
	"fleet-probe-crash",
	"fleet-overload-storm",
	"disk-journal-degraded",
	"fleet-perf-weather",
}

func TestGoldenReports(t *testing.T) {
	for _, name := range goldenScenarios {
		t.Run(name, func(t *testing.T) {
			sc, err := Load(filepath.Join("..", "..", "scenarios", name+".yaml"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("scenario failed %d assertions:\n%s", res.Failed, res.Summary())
			}
			machine, err := res.Machine()
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, name+".report", machine)
			compareGolden(t, name+".summary", []byte(res.Summary()))

			state, err := ParseReport(machine)
			if err != nil {
				t.Fatalf("machine report does not re-parse: %v", err)
			}
			if state == nil || state.Truncated {
				t.Fatal("machine report parsed truncated or empty")
			}
			// Header plus one record per journalled row.
			if got := 1 + len(state.Records); got != len(res.Records) {
				t.Errorf("re-parsed %d records, result carries %d", got, len(res.Records))
			}
		})
	}
}

func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; run with -update and review the diff\ngot:\n%s\nwant:\n%s", file, got, want)
	}
}
