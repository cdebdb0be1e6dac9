package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/workloads"
)

// cliTinyWorkload keeps the end-to-end cases fast: a few hundred loads
// over a 16 KiB buffer instead of a paper-scale working set. The -b
// variant strides twice as far, so a comparison has something to find.
type cliTinyWorkload struct {
	name   string
	stride uint64
}

func (w cliTinyWorkload) Name() string { return w.name }
func (w cliTinyWorkload) Body() func(*exec.Thread) {
	return func(t *exec.Thread) {
		buf := t.Alloc(1 << 14)
		for i := uint64(0); i < 256; i++ {
			t.Load(buf.Addr(i * w.stride % (1 << 14)))
		}
	}
}

func TestMain(m *testing.M) {
	for _, w := range []cliTinyWorkload{{"evsel-cli-tiny", 64}, {"evsel-cli-tiny-b", 128}} {
		workloads.Register(w.name, func() workloads.Workload { return w })
	}
	m.Run()
}

const tinyEvents = "INST_RETIRED.ANY,MEM_UOPS_RETIRED.ALL_LOADS"

func runCLI(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunExitCodes table-tests every exit path. The usage-error cases
// name an unknown workload: reaching the workload lookup at all would
// turn their exit 2 into 1, so they prove the checks run before
// anything is measured. A short sweep must fail before its journal is
// created.
func TestRunExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	journal := filepath.Join(t.TempDir(), "j")
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, ""},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2, ""},
		{"no workload", nil, 2, ""},
		{"resume without journal", []string{"-workload", "nope", "-resume"}, 2, "-resume requires -journal"},
		{"negative segments", []string{"-workload", "nope", "-journal", journal, "-journal-segments", "-1"}, 2, "must not be negative"},
		{"segments without journal", []string{"-workload", "nope", "-journal-segments", "400"}, 2, "-journal-segments requires -journal"},
		{"metrics with journal", []string{"-workload", "nope", "-metrics", "-journal", journal}, 2, "not a campaign"},
		{"metrics with resume", []string{"-workload", "nope", "-metrics", "-journal", journal, "-resume"}, 2, "not a campaign"},
		{"regions with parallel", []string{"-workload", "nope", "-regions", "-parallel", "2"}, 2, "not a campaign"},
		{"list", []string{"-list"}, 0, ""},
		{"workloads", []string{"-workloads"}, 0, ""},
		{"missing load file", []string{"-load-a", missing, "-load-b", missing}, 1, "evsel:"},
		{"unknown machine", []string{"-workload", "evsel-cli-tiny", "-machine", "mystery"}, 1, "unknown machine"},
		{"unknown workload", []string{"-workload", "nope"}, 1, "unknown workload"},
		{"unknown mode", []string{"-workload", "evsel-cli-tiny", "-mode", "sideways"}, 1, "unknown mode"},
		{"unknown event", []string{"-workload", "evsel-cli-tiny", "-events", "NOPE"}, 1, "unknown event"},
		{"bad sweep value", []string{"-workload", "evsel-cli-tiny", "-events", tinyEvents, "-sweep", "1,x"}, 1, "bad sweep value"},
		{"two-point sweep", []string{"-workload", "evsel-cli-tiny", "-events", tinyEvents, "-sweep", "1,2"}, 1, "a sweep needs at least 3 values"},
		{"two-point journaled sweep", []string{"-workload", "evsel-cli-tiny", "-events", tinyEvents, "-sweep", "1,2", "-journal", journal}, 1, "a sweep needs at least 3 values"},
		{"unknown compare workload", []string{"-workload", "evsel-cli-tiny", "-events", tinyEvents, "-compare", "nope"}, 1, "unknown workload"},
		{"measure", []string{"-workload", "evsel-cli-tiny", "-events", tinyEvents, "-reps", "2"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code != tc.want {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.want, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) || strings.Contains(stderr, "evsel: evsel:") {
				t.Errorf("stderr %q does not mention %q once prefixed", stderr, tc.stderr)
			}
		})
	}
	if _, err := os.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a refused run left a journal behind: %v", err)
	}
}

// A journaled sweep refuses to clobber its journal, and -resume replays
// it to the same correlation table.
func TestRunJournaledSweepResume(t *testing.T) {
	args := []string{"-workload", "evsel-cli-tiny", "-events", tinyEvents, "-sweep", "1,2,4", "-reps", "2",
		"-journal", filepath.Join(t.TempDir(), "sweep.jnl"), "-journal-segments", "200"}
	code, first, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("fresh run exit %d: %s", code, stderr)
	}
	if code, _, stderr = runCLI(args...); code != 1 || !strings.Contains(stderr, "journal already exists") {
		t.Fatalf("rerun without -resume: exit %d, stderr %q", code, stderr)
	}
	code, resumed, stderr := runCLI(append(args, "-resume")...)
	if code != 0 || !strings.Contains(stderr, "resuming") {
		t.Fatalf("resume: exit %d, stderr %q", code, stderr)
	}
	if table(first) != table(resumed) {
		t.Errorf("resumed table differs:\n%s\nvs\n%s", table(first), table(resumed))
	}
}

// TestRoutesPrintTheSameTable: a measurement, a comparison and a sweep
// print the same table (campaign accounting aside) at any -parallel
// setting, with a journal, and replayed from that journal, because
// every one of them is measured by the same campaign runner.
func TestRoutesPrintTheSameTable(t *testing.T) {
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"measure", nil},
		{"compare", []string{"-compare", "evsel-cli-tiny-b"}},
		{"sweep", []string{"-sweep", "1,2,4"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			base := append([]string{"-workload", "evsel-cli-tiny", "-events", tinyEvents, "-reps", "2"}, mode.args...)
			journal := filepath.Join(t.TempDir(), "j")
			var want string
			for i, route := range [][]string{
				{"-parallel", "1"},
				{"-parallel", "3"},
				{"-journal", journal},
				{"-journal", journal, "-resume", "-parallel", "2"},
			} {
				args := append(append([]string(nil), base...), route...)
				code, out, stderr := runCLI(args...)
				if code != 0 {
					t.Fatalf("run(%v) exit %d: %s", args, code, stderr)
				}
				if i == 0 {
					want = table(out)
					continue
				}
				if got := table(out); got != want {
					t.Errorf("%v prints\n%s\nwant (as at -parallel 1)\n%s", route, got, want)
				}
			}
		})
	}
}

// TestPartialMeasurementIsNotCalledComplete: a multiplexed run too
// short to give every event group a quantum leaves 31 of 57 events
// without a sample. The summary names the partial point instead of
// calling the campaign complete.
func TestPartialMeasurementIsNotCalledComplete(t *testing.T) {
	code, out, stderr := runCLI("-workload", "pointer-chase", "-machine", "2s", "-mode", "multiplexed", "-reps", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "0% cover") {
		t.Fatalf("no row reads 0%% cover; the run no longer leaves events unsampled:\n%s", out)
	}
	if strings.Contains(out, "campaign: complete") {
		t.Errorf("a partial measurement is called complete:\n%s", out)
	}
	if want := "partial: threads=1: 31 of 57 events carry fewer than 2 samples\n"; !strings.HasSuffix(out, want) {
		t.Errorf("output does not end with %q:\n%s", want, out)
	}
}

// table drops the campaign accounting lines, which differ between a
// fresh and a replayed run by design.
func table(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "campaign:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}
