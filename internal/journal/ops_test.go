package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// opRecorder wraps OSFS and logs every operation class internal/faultdisk
// counts — create, write, sync, syncdir, read, remove, truncate, rename —
// so a test can pin the exact sequence a journal path issues. A scripted
// fault fires on the Nth operation of its class, so any drift in these
// sequences would silently move every chaos window.
type opRecorder struct {
	FS
	ops []string
}

func (r *opRecorder) log(op, path string) { r.ops = append(r.ops, op+":"+filepath.Base(path)) }

func (r *opRecorder) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	r.log("create", path)
	f, err := r.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r, path: path}, nil
}

func (r *opRecorder) ReadFile(path string) ([]byte, error) {
	r.log("read", path)
	return r.FS.ReadFile(path)
}

func (r *opRecorder) Remove(path string) error {
	r.log("remove", path)
	return r.FS.Remove(path)
}

func (r *opRecorder) Rename(oldpath, newpath string) error {
	r.log("rename", oldpath)
	return r.FS.Rename(oldpath, newpath)
}

func (r *opRecorder) Truncate(path string, size int64) error {
	r.log("truncate", path)
	return r.FS.Truncate(path, size)
}

func (r *opRecorder) SyncDir(dir string) error {
	r.ops = append(r.ops, "syncdir")
	return r.FS.SyncDir(dir)
}

type recFile struct {
	File
	r    *opRecorder
	path string
}

func (f *recFile) Write(b []byte) (int, error) {
	f.r.log("write", f.path)
	return f.File.Write(b)
}

func (f *recFile) Sync() error {
	f.r.log("sync", f.path)
	return f.File.Sync()
}

// appendN appends records first..first+n-1 and closes the writer.
func appendN(t *testing.T, w *SegmentedWriter, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeN writes records first..first+n-1 with Write, fsyncs them with
// one Sync and closes the writer.
func writeN(t *testing.T, w *SegmentedWriter, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		if err := w.Write(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// tornJournal builds a journal of two records plus a torn third.
func tornJournal(t *testing.T, base string, segmentBytes int) {
	t.Helper()
	w := mustOpen(t, base, nil, segmentBytes)
	for i := 0; i < 2; i++ {
		if err := w.Append(&segTestRec{Kind: "rec", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	payload, _ := json.Marshal(&segTestRec{Kind: "rec", N: 2})
	frame := Frame(payload)
	if err := w.WriteRaw(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

// TestOpSequencesPinned pins the filesystem operation sequence of every
// journal path: fresh single file, fresh segmented journal, resume after
// a torn tail (both layouts), migration, rotation, compaction, and
// records written as a batch with one Sync.
func TestOpSequencesPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, rec *opRecorder, base string)
		want []string
	}{
		{
			name: "fresh single file",
			run: func(t *testing.T, rec *opRecorder, base string) {
				w, err := OpenSegmented(rec, base, nil, segOpts(0))
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, w, 0, 2)
			},
			want: []string{"create:j", "syncdir", "write:j", "sync:j",
				"write:j", "sync:j", "write:j", "sync:j"},
		},
		{
			name: "fresh segmented",
			run: func(t *testing.T, rec *opRecorder, base string) {
				w, err := OpenSegmented(rec, base, nil, segOpts(1<<20))
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, w, 0, 2)
			},
			want: []string{"create:j.000001", "syncdir", "write:j.000001", "sync:j.000001",
				"write:j.000001", "sync:j.000001", "write:j.000001", "sync:j.000001"},
		},
		{
			name: "resume torn tail single file",
			run: func(t *testing.T, rec *opRecorder, base string) {
				tornJournal(t, base, 0)
				st, err := LoadSegmented(rec, base, segTestVersion)
				if err != nil {
					t.Fatal(err)
				}
				w, err := OpenSegmented(rec, base, st, segOpts(0))
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, w, 2, 1)
			},
			want: []string{"read:j", "truncate:j", "create:j", "write:j", "sync:j"},
		},
		{
			// Only the writer side is pinned here: recovery runs unrecorded.
			name: "resume torn tail segmented",
			run: func(t *testing.T, rec *opRecorder, base string) {
				tornJournal(t, base, 1<<20)
				w, err := OpenSegmented(rec, base, mustLoad(t, base), segOpts(1<<20))
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, w, 2, 1)
			},
			want: []string{"truncate:j.000001", "create:j.000001", "write:j.000001", "sync:j.000001"},
		},
		{
			name: "migration",
			run: func(t *testing.T, rec *opRecorder, base string) {
				appendN(t, mustOpen(t, base, nil, 0), 0, 2)
				st, err := LoadSegmented(rec, base, segTestVersion)
				if err != nil {
					t.Fatal(err)
				}
				w, err := OpenSegmented(rec, base, st, segOpts(1<<20))
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, w, 2, 1)
			},
			want: []string{"read:j", "create:j.000001", "syncdir", "write:j.000001", "write:j.000001",
				"sync:j.000001", "remove:j", "write:j.000001", "sync:j.000001"},
		},
		{
			name: "rotation",
			run: func(t *testing.T, rec *opRecorder, base string) {
				w, err := OpenSegmented(rec, base, nil, segOpts(1))
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, w, 0, 2)
			},
			want: []string{"create:j.000001", "syncdir", "write:j.000001", "sync:j.000001",
				"write:j.000001", "sync:j.000001",
				"read:j.000001", "create:j.000002", "syncdir", "write:j.000002", "write:j.000002",
				"sync:j.000002", "remove:j.000001",
				"write:j.000002", "sync:j.000002",
				"read:j.000002", "create:j.000003", "syncdir", "write:j.000003", "write:j.000003",
				"sync:j.000003", "remove:j.000002"},
		},
		{
			name: "batch",
			run: func(t *testing.T, rec *opRecorder, base string) {
				w, err := OpenSegmented(rec, base, nil, segOpts(0))
				if err != nil {
					t.Fatal(err)
				}
				writeN(t, w, 0, 3)
			},
			want: []string{"create:j", "syncdir", "write:j", "sync:j",
				"write:j", "write:j", "write:j", "sync:j"},
		},
		{
			name: "sync with nothing written",
			run: func(t *testing.T, rec *opRecorder, base string) {
				w, err := OpenSegmented(rec, base, nil, segOpts(0))
				if err != nil {
					t.Fatal(err)
				}
				writeN(t, w, 0, 0)
			},
			want: []string{"create:j", "syncdir", "write:j", "sync:j"},
		},
		{
			// A record that fills the segment is fsynced and rotated by
			// its Write: the ops of the "rotation" row.
			name: "rotation by write",
			run: func(t *testing.T, rec *opRecorder, base string) {
				w, err := OpenSegmented(rec, base, nil, segOpts(1))
				if err != nil {
					t.Fatal(err)
				}
				writeN(t, w, 0, 2)
			},
			want: []string{"create:j.000001", "syncdir", "write:j.000001", "sync:j.000001",
				"write:j.000001", "sync:j.000001",
				"read:j.000001", "create:j.000002", "syncdir", "write:j.000002", "write:j.000002",
				"sync:j.000002", "remove:j.000001",
				"write:j.000002", "sync:j.000002",
				"read:j.000002", "create:j.000003", "syncdir", "write:j.000003", "write:j.000003",
				"sync:j.000003", "remove:j.000002"},
		},
		{
			// Compact starts its segment on the writer's path, so like
			// every other segment start it fsyncs the directory right
			// after the create. Compact runs offline only; no fault
			// script counts its operations.
			name: "compact",
			run: func(t *testing.T, rec *opRecorder, base string) {
				appendN(t, mustOpen(t, base, nil, 0), 0, 2)
				if _, err := Compact(rec, base, segTestVersion); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{"read:j", "create:j.000001", "syncdir", "write:j.000001", "write:j.000001",
				"sync:j.000001", "remove:j"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &opRecorder{FS: OSFS}
			tc.run(t, rec, filepath.Join(t.TempDir(), "j"))
			if fmt.Sprint(rec.ops) != fmt.Sprint(tc.want) {
				t.Errorf("ops:\n got  %v\n want %v", rec.ops, tc.want)
			}
		})
	}
}
