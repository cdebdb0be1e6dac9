package faultdisk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"numaperf/internal/journal"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "f")
}

func writeTo(t *testing.T, fsys journal.FS, path string, b []byte) error {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, werr := f.Write(b)
	return werr
}

func TestNthOccurrenceCounting(t *testing.T) {
	script := NewScript().ENOSPCOnWrite(3)
	fsys := script.FS(nil)
	path := tmpPath(t)
	for i := 1; i <= 4; i++ {
		err := writeTo(t, fsys, path, []byte("x"))
		if i == 3 {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("write %d: err = %v, want ENOSPC", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if script.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", script.Fired())
	}
	// The third write contributed nothing.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "xxx" {
		t.Errorf("file = %q, want the 3 successful writes only", raw)
	}
}

func TestShortWriteLandsHalf(t *testing.T) {
	script := NewScript().ShortWriteOnWrite(1)
	path := tmpPath(t)
	err := writeTo(t, script.FS(nil), path, []byte("0123456789"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	raw, _ := os.ReadFile(path)
	if string(raw) != "01234" {
		t.Errorf("file = %q, want the first half", raw)
	}
}

func TestTearAndKillWindows(t *testing.T) {
	cases := []struct {
		name      string
		script    *Script
		wantBytes string // file contents after the fault
	}{
		{"tear", NewScript().TearOnWrite(1), "01234"},
		{"kill-before", NewScript().KillOnWrite(1), ""},
		{"kill-after", NewScript().KillAfterWrite(1), "0123456789"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpPath(t)
			err := writeTo(t, tc.script.FS(nil), path, []byte("0123456789"))
			if !errors.Is(err, journal.ErrCrashed) {
				t.Fatalf("err = %v, want ErrCrashed", err)
			}
			raw, _ := os.ReadFile(path)
			if string(raw) != tc.wantBytes {
				t.Errorf("file = %q, want %q", raw, tc.wantBytes)
			}
		})
	}
}

func TestKillErrorsAreTypedEverywhere(t *testing.T) {
	path := tmpPath(t)
	if err := os.WriteFile(path, []byte("seed"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"create", func() error {
			_, err := NewScript().KillOnCreate(1).FS(nil).OpenFile(path, os.O_WRONLY, 0o644)
			return err
		}},
		{"sync", func() error {
			f, err := NewScript().KillOnSync(1).FS(nil).OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			return f.Sync()
		}},
		{"syncdir", func() error {
			return NewScript().KillOnSyncDir(1).FS(nil).SyncDir(filepath.Dir(path))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); !errors.Is(err, journal.ErrCrashed) {
				t.Errorf("err = %v, want ErrCrashed", err)
			}
		})
	}
}

func TestFailuresAreOrdinaryTypedErrors(t *testing.T) {
	path := tmpPath(t)
	if err := os.WriteFile(path, []byte("seed"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want error
		run  func() error
	}{
		{"sync", syscall.EIO, func() error {
			f, err := NewScript().FailSync(1).FS(nil).OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			return f.Sync()
		}},
		{"create", syscall.ENOSPC, func() error {
			_, err := NewScript().FailCreate(1).FS(nil).OpenFile(path, os.O_WRONLY, 0o644)
			return err
		}},
		{"syncdir", syscall.EIO, func() error {
			return NewScript().FailSyncDir(1).FS(nil).SyncDir(filepath.Dir(path))
		}},
		{"read", syscall.EIO, func() error {
			_, err := NewScript().FailRead(1).FS(nil).ReadFile(path)
			return err
		}},
		{"remove", syscall.EIO, func() error {
			return NewScript().FailRemove(1).FS(nil).Remove(path)
		}},
		{"truncate", syscall.EIO, func() error {
			return NewScript().FailTruncate(1).FS(nil).Truncate(path, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if errors.Is(err, journal.ErrCrashed) {
				t.Errorf("failure %v must not read as a crash", err)
			}
		})
	}
}

func TestBitRotFlipsOneBitOnce(t *testing.T) {
	path := tmpPath(t)
	want := []byte("abcdefgh")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	script := NewScript().BitRotOnRead(1, 2)
	fsys := script.FS(nil)
	got, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != want[2]^0x40 {
		t.Errorf("byte 2 = %#x, want %#x", got[2], want[2]^0x40)
	}
	if bytes.Equal(got, want) {
		t.Error("bit rot did not fire")
	}
	// The rot is read-time, not on media: a second read is clean.
	got2, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Errorf("second read = %q, want clean %q", got2, want)
	}
}

// A Script survives a kill-resume cycle: re-wrapping a fresh FS keeps
// the op counts and fired flags, so a one-shot fault scripted for the
// first life does not refire in the second.
func TestScriptDoesNotRefireAcrossResume(t *testing.T) {
	script := NewScript().KillOnWrite(1)
	path := tmpPath(t)
	if err := writeTo(t, script.FS(nil), path, []byte("a")); !errors.Is(err, journal.ErrCrashed) {
		t.Fatalf("first life: err = %v, want ErrCrashed", err)
	}
	if err := writeTo(t, script.FS(nil), path, []byte("b")); err != nil {
		t.Fatalf("second life refired: %v", err)
	}
	if script.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", script.Fired())
	}
}

// The dir-fsync on journal creation is a real durability barrier: when
// it fails, creation fails loudly instead of leaving a file whose
// directory entry may not survive a power cut.
func TestOpenAppendSurfacesDirFsyncFailure(t *testing.T) {
	script := NewScript().FailSyncDir(1)
	_, err := journal.OpenSegmented(script.FS(nil), tmpPath(t), nil, journal.SegmentedOptions{
		Version: 1, Header: map[string]any{"kind": "header", "v": 1},
	})
	if err == nil {
		t.Fatal("create with failing dir-fsync succeeded")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("err = %v, want EIO", err)
	}
	if !strings.Contains(err.Error(), "fsyncing directory") {
		t.Errorf("err = %v, want a directory-fsync diagnosis", err)
	}
}

// CRC catches media bit rot at recovery time: a journal whose segment
// rots on disk fails recovery with a typed corruption error, never
// silently resumes over damaged records.
func TestBitRotCaughtByRecovery(t *testing.T) {
	base := filepath.Join(t.TempDir(), "j")
	w, err := journal.OpenSegmented(nil, base, nil, journal.SegmentedOptions{
		Version: 1, Header: map[string]any{"kind": "header", "v": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(map[string]any{"kind": "rec", "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Rot a byte in the middle of the file (never the final record:
	// offset 20 lands in the header line, whose CRC must catch it).
	script := NewScript().BitRotOnRead(1, 20)
	_, err = journal.LoadSegmented(script.FS(nil), base, 1)
	if err == nil {
		t.Fatal("recovery accepted a rotten journal")
	}
	var ce *journal.CorruptError
	if !errors.As(err, &ce) {
		t.Errorf("err = %v, want a typed CorruptError", err)
	}
}
