// Package durable publishes finished files crash-safely. Every writer of a
// persistent file (index, labels, artifact, lookup table, artifact-store
// entry) writes a temp file beside its destination and commits it here:
// the temp file's data is flushed to stable storage, the file is renamed
// over the destination, and the parent directory is flushed so the rename
// itself survives a crash. A reader therefore sees either the old file or
// the complete new one, never a torn or missing one.
package durable

import (
	"os"
	"path/filepath"
	"runtime"
)

// Commit fsyncs the closed file tmp, renames it to path and fsyncs path's
// directory. On failure it removes tmp and returns the error, leaving path
// as it was (unless the failure is the final directory fsync, after which
// path holds the new file but its rename may not survive a crash).
func Commit(tmp, path string) error {
	if err := syncFile(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncFile(name string) error {
	f, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir flushes a directory's entries. Windows cannot open a directory
// for fsync and orders renames itself, so there it is a no-op.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
