// Package iofault is the filesystem seam of the durability paths: the
// store's WriteTo callers, the sweep journal, checkpoint writes and
// `rustore fsck -repair` route their file I/O through an FS, and
// WriteAtomic is the one atomic-replace sequence they share. OS is the
// only FS a binary uses; no binary links fault injection. The chaos
// matrix (internal/iofault/chaostest) swaps OS for its seeded FaultFS
// to crash writes at exact byte offsets, fill the disk, fail fsyncs and
// renames, and rot reads.
package iofault

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the slice of *os.File the durability paths need. *os.File
// satisfies it directly; chaostest.FaultFS wraps one with fault injection.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
	Name() string
}

// FS abstracts the filesystem operations durability-critical code
// performs. OS is the passthrough; chaostest.NewFaultFS wraps any FS
// with a deterministic fault profile.
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename is os.Rename.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// SyncDir fsyncs the directory at dir, making a rename inside it
	// durable (the final step of an atomic replace).
	SyncDir(dir string) error
}

// OS is the real filesystem: every operation delegates to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

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

// Create opens name for writing, truncating it — os.Create through fsys.
func Create(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Open opens name read-only — os.Open through fsys.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// WriteAtomic durably replaces path with whatever write produces:
// write a temp file in the same directory, fsync it, close, rename over
// path, fsync the directory. A crash at any byte of the sequence leaves
// either the previous content of path or the new one — never a torn
// mixture, and never neither. On error the temp file is removed and
// path is untouched.
func WriteAtomic(fsys FS, path string, write func(w io.Writer) error) error {
	if fsys == nil {
		fsys = OS
	}
	tmp := path + ".tmp"
	f, err := Create(fsys, tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	// The rename must never expose bytes that are not yet on stable
	// storage: fsync the file before it becomes visible under path.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// And the rename itself must survive power loss: fsync the directory.
	return fsys.SyncDir(filepath.Dir(path))
}
