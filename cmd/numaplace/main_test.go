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

// TestRunExitCodes table-tests every exit path. The successful row
// places a small pointer chase on the two-socket machine, one run per
// configuration.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name           string
		args           []string
		want           int
		stdout, stderr string
	}{
		{"help", []string{"-h"}, 0, "", ""},
		{"workloads", []string{"-workloads"}, 0, "pointer-chase\n", ""},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2, "", ""},
		{"no workload", nil, 2, "", "Usage"},
		{"zero threads", []string{"-workload", "pointer-chase", "-threads", "0"}, 2, "", "numaplace: -threads must be at least 1, got 0\n"},
		{"unknown machine", []string{"-workload", "pointer-chase", "-machine", "mystery"}, 1, "", "unknown machine"},
		{"unknown workload", []string{"-workload", "nope"}, 1, "", "unknown workload"},
		{"too many threads", []string{"-workload", "pointer-chase", "-machine", "uma", "-threads", "9"}, 1, "", "9 threads exceed 8 cores"},
		{"placed", []string{"-workload", "pointer-chase", "-threads", "2", "-machine", "2s"}, 0,
			"\nrecommendation: first-touch pages with compact pinning", ""},
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
			if !strings.Contains(stderr, tc.stderr) || strings.Count(stderr, "numaplace:") > 1 {
				t.Errorf("stderr %q does not mention %q once prefixed", stderr, tc.stderr)
			}
		})
	}
}
