// Command memhist-probe is the headless measurement probe of the
// paper's Fig. 6 architecture: server platforms without a rich
// graphical interface run this probe next to the testee; the memhist
// front end connects over TCP, submits measurement requests over the
// framed probenet protocol, and receives histograms.
//
// The probe serves connections concurrently up to -max-conns (excess
// peers get an "overloaded" error) and drains gracefully on SIGINT or
// SIGTERM: in-flight measurements finish and deliver their responses,
// idle and new peers receive "shutting-down", and the process exits 0.
//
// With -fleet-coordinator the probe inverts roles: instead of listening
// for a front end, it dials the given fleet coordinator, registers
// under -probe-id, heartbeats every -heartbeat-interval, and serves the
// campaign cells the coordinator scatters to it, reconnecting with
// deterministic backoff when the link drops. The same loop carries the
// probe across coordinator restarts: when a journal-backed coordinator
// crashes and resumes (memhist-fleet -journal/-resume), the probe keeps
// redialling with -reconnect-base/-reconnect-max backoff and registers
// under a fresh instance number once the address answers again. A
// quarantine verdict from the coordinator is terminal — including one
// restored from the coordinator's journal after a restart.
//
// Usage:
//
//	memhist-probe -listen :9844 -max-conns 8 -drain-timeout 30s
//	memhist-probe -fleet-coordinator coord:9845 -probe-id node17
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"numaperf/internal/fleet"
	"numaperf/internal/memhist"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive the
// full lifecycle, cancelling ctx in place of a signal.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memhist-probe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen       = fs.String("listen", "127.0.0.1:9844", "TCP address to listen on")
		maxConns     = fs.Int("max-conns", 16, "concurrent connections before rejecting with 'overloaded'")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight measurements on shutdown")

		coordinator = fs.String("fleet-coordinator", "", "fleet coordinator address; when set, dial and serve campaign cells instead of listening")
		probeID     = fs.String("probe-id", "", "probe identity for fleet registration (default: host name)")
		heartbeat   = fs.Duration("heartbeat-interval", fleet.DefaultHeartbeatInterval, "fleet heartbeat period")
		reconnBase  = fs.Duration("reconnect-base", 0, "fleet reconnect backoff base (0 = probenet default)")
		reconnMax   = fs.Duration("reconnect-max", 0, "fleet reconnect backoff cap (0 = probenet default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reconnBase < 0 || *reconnMax < 0 {
		fmt.Fprintln(stderr, "memhist-probe: reconnect backoff durations must not be negative")
		return 2
	}

	if *coordinator != "" {
		return runFleetAgent(ctx, *coordinator, *probeID, *heartbeat, *reconnBase, *reconnMax, stdout, stderr)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "memhist-probe: %v\n", err)
		return 1
	}
	srv := &memhist.ProbeServer{
		MaxConns: *maxConns,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
	fmt.Fprintf(stdout, "memhist-probe: listening on %s (max-conns %d)\n", l.Addr(), *maxConns)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintf(stderr, "memhist-probe: %v\n", err)
			return 1
		}
		return 0
	case <-ctx.Done():
		fmt.Fprintf(stdout, "memhist-probe: draining (grace %s)...\n", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := srv.Shutdown(dctx)
		<-serveErr // Serve returns nil once the listener closes.
		stats := srv.Stats()
		fmt.Fprintf(stdout, "memhist-probe: served %d, errors %d, rejected %d, encode failures %d\n",
			stats.Served, stats.ErrorsSent, stats.RejectedOverload+stats.RejectedDraining, stats.EncodeFailures)
		// Fidelity summary, only when sampling actually lost something:
		// the drain output of a lossless probe is unchanged.
		if stats.SamplesDropped > 0 || stats.ThrottledCycles > 0 || stats.LowCoverageServed > 0 {
			fmt.Fprintf(stdout, "memhist-probe: fidelity: %d samples dropped, %d cycles throttled, %d low-coverage responses\n",
				stats.SamplesDropped, stats.ThrottledCycles, stats.LowCoverageServed)
		}
		if err != nil {
			fmt.Fprintf(stderr, "memhist-probe: drain timeout exceeded, connections force-closed: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "memhist-probe: drained cleanly")
		return 0
	}
}

// runFleetAgent runs the probe in fleet mode: register with the
// coordinator, heartbeat, serve cells, reconnect on link loss (and
// across coordinator restarts) under fresh instance numbers.
func runFleetAgent(ctx context.Context, coordinator, probeID string, heartbeat, reconnBase, reconnMax time.Duration, stdout, stderr io.Writer) int {
	if probeID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			fmt.Fprintln(stderr, "memhist-probe: -probe-id required (host name unavailable)")
			return 2
		}
		probeID = host
	}
	agent := &fleet.ProbeAgent{
		ID:                probeID,
		Coordinator:       coordinator,
		HeartbeatInterval: heartbeat,
		BackoffBase:       reconnBase,
		BackoffMax:        reconnMax,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
	fmt.Fprintf(stdout, "memhist-probe: fleet mode, probe %q -> coordinator %s (heartbeat %s)\n",
		probeID, coordinator, heartbeat)
	err := agent.Run(ctx)
	stats := agent.Stats()
	fmt.Fprintf(stdout, "memhist-probe: fleet agent stopped: %d connects, %d cells served, %d failed, %d heartbeats\n",
		stats.Connects, stats.Served, stats.Failed, stats.Heartbeats)
	if err != nil && !errors.Is(err, context.Canceled) && ctx.Err() == nil {
		fmt.Fprintf(stderr, "memhist-probe: %v\n", err)
		return 1
	}
	return 0
}
