// Command memjournal is the fsck of the campaign and fleet crash
// journals: it verifies, repairs and compacts any journal this repo's
// journal package writes — one segment at the journal path or many
// numbered ones — without knowing whose records they are. Every file is
// judged by the trust rule recovery applies.
//
// Usage:
//
//	memjournal -verify run.jnl
//	memjournal -repair run.jnl
//	memjournal -compact run.jnl
//	memjournal -verify -version 1 run.jnl
//
// -verify prints one verdict line per journal file and exits with a
// typed code; -repair makes the journal load cleanly using only
// operations that cannot destroy verified records (torn tails are
// truncated to their verified prefix, rotation casualties and corrupt
// files are quarantined to <path>.bad); -compact rewrites the journal
// offline into one fresh checkpointed segment. -version pins the
// record-format version (default: accept any).
//
// Exit codes: 0 the journal is clean (or empty); 1 usage or I/O
// error; 2 repairable crash debris (torn tail, rotation casualty);
// 3 corruption; 4 version skew (only with -version).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"numaperf/internal/journal"
)

const (
	exitClean   = 0
	exitUsage   = 1
	exitRepair  = 2
	exitCorrupt = 3
	exitVersion = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive the
// full lifecycle.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memjournal", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		verify  = fs.Bool("verify", false, "verify the journal and print per-file verdicts")
		repair  = fs.Bool("repair", false, "truncate torn tails and quarantine unrecoverable files to <path>.bad")
		compact = fs.Bool("compact", false, "rewrite the journal offline into one checkpointed segment")
		version = fs.Int("version", journal.AnyVersion, "record-format version to enforce (-1 accepts any)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	modes := 0
	for _, on := range []bool{*verify, *repair, *compact} {
		if on {
			modes++
		}
	}
	if modes != 1 || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: memjournal -verify|-repair|-compact [-version N] <journal>")
		return exitUsage
	}
	base := fs.Arg(0)

	switch {
	case *repair:
		rr, err := journal.Repair(nil, base)
		if err != nil {
			fmt.Fprintf(stderr, "memjournal: repair: %v\n", err)
			return exitUsage
		}
		for _, p := range rr.Truncated {
			fmt.Fprintf(stdout, "truncated %s to its verified prefix\n", p)
		}
		for _, p := range rr.Quarantined {
			fmt.Fprintf(stdout, "quarantined %s -> %s.bad\n", p, p)
		}
		if len(rr.Truncated)+len(rr.Quarantined) == 0 {
			fmt.Fprintln(stdout, "nothing to repair")
		}
	case *compact:
		cr, err := journal.Compact(nil, base, *version)
		if err != nil {
			fmt.Fprintf(stderr, "memjournal: compact: %v\n", err)
			return classify(err, *version)
		}
		fmt.Fprintf(stdout, "compacted %d record(s) into %s", cr.Records, cr.Path)
		if cr.DroppedTornTail {
			fmt.Fprint(stdout, " (dropped a torn final record)")
		}
		fmt.Fprintln(stdout)
		for _, p := range cr.Removed {
			fmt.Fprintf(stdout, "removed %s\n", p)
		}
	}

	// Every mode ends in a verification pass: -verify is one, and
	// repair/compact prove their work by fscking what they left behind.
	vr, err := journal.Verify(nil, base)
	if err != nil {
		fmt.Fprintf(stderr, "memjournal: %v\n", err)
		return exitUsage
	}
	code := exitClean
	for _, f := range vr.Files {
		line := fmt.Sprintf("%s: %s", f.Path, f.Verdict)
		switch f.Verdict {
		case journal.VerdictClean:
			n := f.Records
			if f.Checkpoint {
				n += f.CheckpointRecords
				line += fmt.Sprintf(" (%d record(s), %d checkpointed)", n, f.CheckpointRecords)
			} else {
				line += fmt.Sprintf(" (%d record(s))", n)
			}
		case journal.VerdictEmpty:
		default:
			line += ": " + f.Detail
		}
		fmt.Fprintln(stdout, line)
		if *version != journal.AnyVersion && f.Verdict == journal.VerdictClean && f.Version != *version {
			fmt.Fprintf(stdout, "%s: version %d, want %d\n", f.Path, f.Version, *version)
			code = max(code, exitVersion)
		}
		switch f.Verdict.Severity() {
		case 1:
			code = max(code, exitRepair)
		case 2:
			code = max(code, exitCorrupt)
		}
	}
	return code
}

// classify maps a typed journal error to the exit-code vocabulary.
func classify(err error, version int) int {
	var ve *journal.VersionError
	if errors.As(err, &ve) && version != journal.AnyVersion {
		return exitVersion
	}
	if errors.Is(err, journal.ErrCorrupt) {
		return exitCorrupt
	}
	return exitUsage
}
