// Package faultdisk injects scripted disk faults under the journal's
// filesystem seam, the way faultnet does for the wire and faultfleet
// for the coordinator: deterministic, counted, and typed. A Script
// wraps a journal.FS; each fault names an operation class (write,
// sync, create, syncdir, read, remove, truncate, rename) and fires on
// the Nth occurrence of that class, globally counted across all files.
// Journal I/O is single-committer in both campaign and fleet, so
// global counting is deterministic.
//
// Two fault families:
//
//   - failures (ENOSPC, fsync error, short write, read error, bit rot)
//     return an ordinary error — the owning package's degradation
//     policy decides what happens next;
//   - kills return an error wrapping journal.ErrCrashed — the process
//     "dies" at that instant, possibly after part of the write landed,
//     and the chaos harness resumes from whatever hit the disk.
package faultdisk

import (
	"fmt"
	"os"
	"syscall"

	"numaperf/internal/fault"
	"numaperf/internal/journal"
)

// Op is one filesystem operation class.
type Op string

const (
	OpCreate   Op = "create"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpSyncDir  Op = "syncdir"
	OpRead     Op = "read"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
	OpRename   Op = "rename"
)

// mode says what a fault does when it fires.
type mode int

const (
	modeFail      mode = iota // full failure: nothing happens, error returned
	modeShort                 // half the buffer lands, then ENOSPC
	modeTear                  // half the buffer lands, then the process dies
	modeKill                  // nothing happens, the process dies
	modeKillAfter             // the full buffer lands, then the process dies
	modeBitRot                // read succeeds with one bit flipped
)

// effect is what a disk fault does when it fires.
type effect struct {
	mode   mode
	err    error // for modeFail: the error to return
	offset int   // for modeBitRot: byte to corrupt, modulo length
}

// Script is a deterministic disk-fault plan, an adapter over
// fault.Plan with one point per operation class. Build one with the
// On/Kill helpers, wrap a journal.FS with FS, and check Fired after
// the run. The zero Script injects nothing.
type Script struct {
	plan fault.Plan[effect]
}

// NewScript returns an empty script.
func NewScript() *Script {
	return &Script{}
}

// add schedules e on the nth occurrence (1-based) of op.
func (s *Script) add(op Op, n int, e effect) *Script {
	s.plan.Add(fault.Rule[effect]{Point: string(op), From: uint64(n), To: uint64(n) + 1, Do: e})
	return s
}

func killErr(op Op, path string) error {
	return fmt.Errorf("faultdisk: scripted kill at %s %s: %w", op, path, journal.ErrCrashed)
}

// ENOSPCOnWrite fails the nth write outright with ENOSPC: nothing of
// the buffer lands.
func (s *Script) ENOSPCOnWrite(n int) *Script {
	return s.add(OpWrite, n, effect{mode: modeFail, err: fmt.Errorf("faultdisk: scripted write failure: %w", syscall.ENOSPC)})
}

// ShortWriteOnWrite lands half the nth write's buffer, then returns
// ENOSPC — the torn-record signature of a disk filling mid-write.
func (s *Script) ShortWriteOnWrite(n int) *Script {
	return s.add(OpWrite, n, effect{mode: modeShort, err: fmt.Errorf("faultdisk: scripted short write: %w", syscall.ENOSPC)})
}

// TearOnWrite lands half the nth write's buffer and kills the process.
func (s *Script) TearOnWrite(n int) *Script {
	return s.add(OpWrite, n, effect{mode: modeTear})
}

// KillOnWrite kills the process at the nth write; nothing lands.
func (s *Script) KillOnWrite(n int) *Script {
	return s.add(OpWrite, n, effect{mode: modeKill})
}

// KillAfterWrite lands the nth write fully, then kills the process —
// the post-write-pre-fsync window.
func (s *Script) KillAfterWrite(n int) *Script {
	return s.add(OpWrite, n, effect{mode: modeKillAfter})
}

// FailSync fails the nth fsync with EIO.
func (s *Script) FailSync(n int) *Script {
	return s.add(OpSync, n, effect{mode: modeFail, err: fmt.Errorf("faultdisk: scripted fsync failure: %w", syscall.EIO)})
}

// KillOnSync kills the process at the nth fsync (the write before it
// already landed — whether it is durable is the filesystem's secret,
// which is exactly the window being modelled).
func (s *Script) KillOnSync(n int) *Script {
	return s.add(OpSync, n, effect{mode: modeKill})
}

// FailCreate fails the nth file create/open-for-append with ENOSPC.
func (s *Script) FailCreate(n int) *Script {
	return s.add(OpCreate, n, effect{mode: modeFail, err: fmt.Errorf("faultdisk: scripted create failure: %w", syscall.ENOSPC)})
}

// KillOnCreate kills the process at the nth create.
func (s *Script) KillOnCreate(n int) *Script {
	return s.add(OpCreate, n, effect{mode: modeKill})
}

// FailSyncDir fails the nth directory fsync with EIO.
func (s *Script) FailSyncDir(n int) *Script {
	return s.add(OpSyncDir, n, effect{mode: modeFail, err: fmt.Errorf("faultdisk: scripted directory fsync failure: %w", syscall.EIO)})
}

// KillOnSyncDir kills the process at the nth directory fsync.
func (s *Script) KillOnSyncDir(n int) *Script {
	return s.add(OpSyncDir, n, effect{mode: modeKill})
}

// FailRead fails the nth whole-file read with EIO.
func (s *Script) FailRead(n int) *Script {
	return s.add(OpRead, n, effect{mode: modeFail, err: fmt.Errorf("faultdisk: scripted read failure: %w", syscall.EIO)})
}

// BitRotOnRead flips one bit of the nth whole-file read, at offset
// modulo the file length — silent media corruption surfacing at read
// time, for proving the CRC layer catches it.
func (s *Script) BitRotOnRead(n, offset int) *Script {
	return s.add(OpRead, n, effect{mode: modeBitRot, offset: offset})
}

// FailRemove fails the nth remove with EIO.
func (s *Script) FailRemove(n int) *Script {
	return s.add(OpRemove, n, effect{mode: modeFail, err: fmt.Errorf("faultdisk: scripted remove failure: %w", syscall.EIO)})
}

// FailTruncate fails the nth truncate with EIO.
func (s *Script) FailTruncate(n int) *Script {
	return s.add(OpTruncate, n, effect{mode: modeFail, err: fmt.Errorf("faultdisk: scripted truncate failure: %w", syscall.EIO)})
}

// Fired reports how many scripted faults have fired.
func (s *Script) Fired() int {
	return s.plan.Fired()
}

// hit counts one occurrence of op and returns the fault due to fire on
// it, if any (the first scheduled when several are).
func (s *Script) hit(op Op) *effect {
	if due := s.plan.Next(string(op), ""); len(due) > 0 {
		return &due[0]
	}
	return nil
}

// FS wraps inner (nil means the real filesystem) with this script.
// The same Script can wrap fresh FS values across a kill-resume cycle;
// counts and one-shot faults carry over, so a fault scripted for the
// first life does not refire in the second.
func (s *Script) FS(inner journal.FS) journal.FS {
	if inner == nil {
		inner = journal.OSFS
	}
	return &faultFS{script: s, inner: inner}
}

type faultFS struct {
	script *Script
	inner  journal.FS
}

func (fs *faultFS) OpenFile(path string, flag int, perm os.FileMode) (journal.File, error) {
	if f := fs.script.hit(OpCreate); f != nil {
		switch f.mode {
		case modeKill:
			return nil, killErr(OpCreate, path)
		default:
			return nil, fmt.Errorf("faultdisk: opening %s: %w", path, f.err)
		}
	}
	inner, err := fs.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{script: fs.script, inner: inner, path: path}, nil
}

func (fs *faultFS) ReadFile(path string) ([]byte, error) {
	if f := fs.script.hit(OpRead); f != nil {
		switch f.mode {
		case modeKill:
			return nil, killErr(OpRead, path)
		case modeBitRot:
			raw, err := fs.inner.ReadFile(path)
			if err != nil || len(raw) == 0 {
				return raw, err
			}
			raw[f.offset%len(raw)] ^= 0x40
			return raw, nil
		default:
			return nil, fmt.Errorf("faultdisk: reading %s: %w", path, f.err)
		}
	}
	return fs.inner.ReadFile(path)
}

func (fs *faultFS) Stat(path string) (os.FileInfo, error) { return fs.inner.Stat(path) }

func (fs *faultFS) Remove(path string) error {
	if f := fs.script.hit(OpRemove); f != nil {
		if f.mode == modeKill {
			return killErr(OpRemove, path)
		}
		return fmt.Errorf("faultdisk: removing %s: %w", path, f.err)
	}
	return fs.inner.Remove(path)
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if f := fs.script.hit(OpRename); f != nil {
		if f.mode == modeKill {
			return killErr(OpRename, oldpath)
		}
		return fmt.Errorf("faultdisk: renaming %s: %w", oldpath, f.err)
	}
	return fs.inner.Rename(oldpath, newpath)
}

func (fs *faultFS) Truncate(path string, size int64) error {
	if f := fs.script.hit(OpTruncate); f != nil {
		if f.mode == modeKill {
			return killErr(OpTruncate, path)
		}
		return fmt.Errorf("faultdisk: truncating %s: %w", path, f.err)
	}
	return fs.inner.Truncate(path, size)
}

func (fs *faultFS) Glob(pattern string) ([]string, error) { return fs.inner.Glob(pattern) }

func (fs *faultFS) SyncDir(dir string) error {
	if f := fs.script.hit(OpSyncDir); f != nil {
		if f.mode == modeKill {
			return killErr(OpSyncDir, dir)
		}
		return fmt.Errorf("faultdisk: fsyncing directory %s: %w", dir, f.err)
	}
	return fs.inner.SyncDir(dir)
}

type faultFile struct {
	script *Script
	inner  journal.File
	path   string
}

func (f *faultFile) Write(b []byte) (int, error) {
	if ft := f.script.hit(OpWrite); ft != nil {
		switch ft.mode {
		case modeShort:
			n, _ := f.inner.Write(b[:len(b)/2])
			return n, fmt.Errorf("faultdisk: writing %s: %w", f.path, ft.err)
		case modeTear:
			n, _ := f.inner.Write(b[:len(b)/2])
			return n, killErr(OpWrite, f.path)
		case modeKill:
			return 0, killErr(OpWrite, f.path)
		case modeKillAfter:
			n, err := f.inner.Write(b)
			if err != nil {
				return n, err
			}
			return n, killErr(OpWrite, f.path)
		default:
			return 0, fmt.Errorf("faultdisk: writing %s: %w", f.path, ft.err)
		}
	}
	return f.inner.Write(b)
}

func (f *faultFile) Sync() error {
	if ft := f.script.hit(OpSync); ft != nil {
		if ft.mode == modeKill {
			return killErr(OpSync, f.path)
		}
		return fmt.Errorf("faultdisk: syncing %s: %w", f.path, ft.err)
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }
