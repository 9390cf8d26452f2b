package journal

import (
	"io"
	"io/fs"
	"os"
)

// FS is the file layer under a journal directory and under a standby's
// mirror of one: every file operation of the durable path goes through it.
// OS is the only production implementation; tests wrap it to fail or to
// record operations. Names are paths; a directory name is a path too.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// ReadAt returns up to max bytes of name from offset off on; none at or
	// past its end.
	ReadAt(name string, off int64, max int) ([]byte, error)
	// Create opens name empty for writing, creating it if absent.
	Create(name string) (File, error)
	// Append opens name for appends, creating it if absent.
	Append(name string) (File, error)
	Truncate(name string, size int64) error
	Rename(from, to string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making the renames, creations and
	// removals in it durable.
	SyncDir(dir string) error
}

// File is a file FS opened for writing.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the operating system's files, the FS of a journal whose Options
// leave it nil.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) Truncate(name string, size int64) error    { return os.Truncate(name, size) }
func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }

func (osFS) Create(name string) (File, error) { return openFile(name, os.O_TRUNC) }
func (osFS) Append(name string) (File, error) { return openFile(name, os.O_APPEND) }

// openFile returns an *os.File, which is a File, or a nil File on error.
func openFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadAt(name string, off int64, max int) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only handle; nothing to flush
	fi, err := f.Stat()
	if err != nil || off >= fi.Size() {
		return nil, err
	}
	buf := make([]byte, min(int64(max), fi.Size()-off))
	n, err := f.ReadAt(buf, off)
	if err == io.EOF {
		err = nil
	}
	return buf[:n], err
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	_ = d.Close() // read-only directory handle; nothing left to flush
	return err
}
