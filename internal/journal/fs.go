package journal

import (
	"io"
	"os"
	"path/filepath"
)

// File is the journal's view of one open log file: ordered writes, an
// explicit flush to stable storage, and close. *os.File satisfies it
// directly; internal/faultdisk wraps it to script write and fsync
// failures.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem seam under every journal: the small set of
// operations the SegmentedWriter and the fsck surface need. Production code uses OSFS; internal/faultdisk wraps an
// FS to inject ENOSPC, fsync failures, torn writes, read-time bit rot
// and scripted kills at any operation.
type FS interface {
	// OpenFile opens path with the given flags and permissions.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// Stat returns file metadata.
	Stat(path string) (os.FileInfo, error)
	// Remove deletes a file.
	Remove(path string) error
	// Rename moves a file (the fsck quarantine path).
	Rename(oldpath, newpath string) error
	// Truncate cuts a file to size (dropping a torn tail on resume).
	Truncate(path string, size int64) error
	// Glob lists paths matching a pattern (segment discovery).
	Glob(pattern string) ([]string, error)
	// SyncDir fsyncs a directory, making entries created or removed in
	// it durable.
	SyncDir(dir string) error
}

// OSFS is the production filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(path string) ([]byte, error)   { return os.ReadFile(path) }
func (osFS) Stat(path string) (os.FileInfo, error)  { return os.Stat(path) }
func (osFS) Remove(path string) error               { return os.Remove(path) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFS) Glob(pattern string) ([]string, error)  { return filepath.Glob(pattern) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
