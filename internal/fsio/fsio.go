// Package fsio abstracts the filesystem operations the storage engine
// performs — file creation, appends, fsyncs, renames, removals and
// directory syncs — behind a small interface with two implementations:
// OS, a passthrough to the real filesystem, and FaultFS, a
// deterministic fault injector for crash and degraded-mode testing.
//
// The interface is deliberately narrow: it covers exactly what
// internal/wal, internal/manifest and the shard checkpoint path need,
// so every durability-relevant syscall flows through one choke point
// where tests can fail the Nth operation, make fsync lie, run the disk
// out of space, tear a write in half, or cut the power.
package fsio

import (
	"fmt"
	"io"
	"os"
)

// File is an open file handle. It is the subset of *os.File the
// storage engine writes through.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage. A Sync error
	// means the unflushed bytes may be gone — per the POSIX fsync
	// contract (and the Postgres fsync-gate lesson), callers must not
	// retry the sync and assume success covers the earlier bytes.
	Sync() error
	// Truncate resizes the file.
	Truncate(size int64) error
	// Close releases the handle (without syncing).
	Close() error
	// Name reports the path the file was opened with.
	Name() string
}

// FS is the filesystem the storage engine runs on.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole file.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to name, creating or truncating it. It
	// does not sync; durable writers open + Write + Sync explicitly.
	WriteFile(name string, data []byte, perm os.FileMode) error
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// MkdirAll creates a directory path.
	MkdirAll(path string, perm os.FileMode) error
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate resizes the file at name.
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making entry creations, renames and
	// removals durable. File content syncs alone do not make a new
	// file findable after a power cut; the parent directory must be
	// synced too.
	SyncDir(dir string) error
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsio: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsio: fsync %s: %w", dir, err)
	}
	return nil
}
