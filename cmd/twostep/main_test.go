package main

import (
	"strings"
	"testing"
)

func runCLI(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunExitCodes table-tests every exit path but -strict's caveat
// exit. The successful rows train a small pointer chase on the
// two-socket machine, one run per size, and predict a size four times
// the largest.
func TestRunExitCodes(t *testing.T) {
	chase := []string{"-family", "chase", "-train", "512,1024,2048,4096", "-target", "16384", "-machine", "2s", "-reps", "1"}
	with := func(extra ...string) []string { return append(append([]string(nil), chase...), extra...) }
	cases := []struct {
		name           string
		args           []string
		want           int
		stdout, stderr string
	}{
		{"help", []string{"-h"}, 0, "", ""},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2, "", ""},
		{"unknown family", []string{"-family", "nope"}, 1, "", `unknown family "nope"`},
		{"unknown machine", []string{"-machine", "mystery"}, 1, "", `unknown machine "mystery"`},
		{"unknown transfer machine", with("-transfer", "mystery"), 1, "", `unknown transfer machine "mystery"`},
		{"bad training size", []string{"-train", "512,x"}, 1, "", `bad training size "x"`},
		{"fractional training size", []string{"-family", "sort", "-train", "0.5,128,256"}, 1, "", `bad training size "0.5"`},
		{"negative target", []string{"-family", "triad", "-train", "512,1024,2048,4096", "-target", "-5", "-machine", "2s", "-reps", "1"},
			1, "", "bad target size -5"},
		{"too few sizes", []string{"-family", "chase", "-train", "512", "-machine", "2s", "-reps", "1"}, 1,
			"training chase", "building strategy: core: no usable indicators found"},
		{"run timeout", with("-run-timeout", "1ns", "-max-retries", "0"), 1, "", "training: campaign: run timed out"},
		{"predicted", with("-strict"), 0, "\npredicting size 16384 on Intel Xeon E5-2690 v3 (sim):\ntwo-step", ""},
		{"transferred", with("-transfer", "uma"), 0, "re-calibrating the cost model on", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args...)
			if code != tc.want {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.want, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout %q does not contain %q", stdout, tc.stdout)
			}
			if !strings.Contains(stderr, tc.stderr) || strings.Count(stderr, "twostep:") > 1 {
				t.Errorf("stderr %q does not mention %q once prefixed", stderr, tc.stderr)
			}
		})
	}
}
