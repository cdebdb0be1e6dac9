package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"numaperf/internal/memhist"
)

func runCLI(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunExitCodes table-tests every exit path. mlc-local's threshold
// cycling starves every threshold above L2 (coverage 0) and leaves a
// negative 4–8-cycle bin, so each -strict gate fails on its own. No
// row may print the "memhist:" prefix twice.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, ""},
		{"workloads", []string{"-workloads"}, 0, ""},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2, ""},
		{"no workload", nil, 2, "Usage"},
		{"unknown mode", []string{"-workload", "mlc-local", "-mode", "sideways"}, 1, "unknown mode"},
		{"unparsable bounds", []string{"-workload", "mlc-local", "-bounds", "4,x"}, 1, "bad bound"},
		{"bad bounds", []string{"-workload", "mlc-local", "-bounds", "64,8"}, 1, "bad request"},
		{"bad remote bounds", []string{"-workload", "mlc-local", "-bounds", "64,8", "-remote", "127.0.0.1:1"}, 1, "bad request"},
		{"unknown machine", []string{"-workload", "mlc-local", "-machine", "mystery"}, 1, "unknown machine"},
		{"unknown workload", []string{"-workload", "nope"}, 1, "unknown workload"},
		{"coverage gate", []string{"-workload", "mlc-local", "-strict"}, 1, "sampling coverage 0.000 below floor 0.500"},
		{"clamped gate", []string{"-workload", "mlc-local", "-strict", "-min-coverage", "0", "-max-clamped-share", "0"}, 1, "clamped negative mass share"},
		{"clean", []string{"-workload", "mlc-local", "-strict", "-min-coverage", "0"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code != tc.want {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.want, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) || strings.Count(stderr, "memhist:") > 1 {
				t.Errorf("stderr %q does not mention %q once prefixed", stderr, tc.stderr)
			}
		})
	}
}

// TestRoutesMeasureTheSameHistogram: the local measurement, a remote
// probe and the local fallback for an unreachable probe print the same
// histogram and peaks. mlc-local's negative 4–8-cycle bin depends on
// the engine's chunk size, so an engine built differently on any route
// shows here.
func TestRoutesMeasureTheSameHistogram(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &memhist.ProbeServer{}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	closed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := closed.Addr().String()
	closed.Close()

	base := []string{"-workload", "mlc-local", "-seed", "3"}
	routes := []struct {
		name   string
		args   []string
		source string
	}{
		{"local", nil, ""},
		{"remote", []string{"-remote", ln.Addr().String()}, "source: remote probe "},
		{"fallback", []string{"-remote", deadAddr, "-fallback-local"}, "source: local fallback "},
	}
	var want string
	for _, r := range routes {
		code, out, stderr := runCLI(append(append([]string(nil), base...), r.args...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", r.name, code, stderr)
		}
		source, report, _ := strings.Cut(out, "\n\n")
		if r.source == "" {
			report = out
		} else if !strings.HasPrefix(source, r.source) {
			t.Errorf("%s: output starts %q, want %q", r.name, source, r.source)
		}
		if want == "" {
			want = report
			continue
		}
		if report != want {
			t.Errorf("%s route prints\n%s\nwant (as measured locally)\n%s", r.name, report, want)
		}
	}
}
