package journal

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testFS is the OS file layer with its writes, syncs, renames and removals
// recorded by base name, with every file sync failing while fail is set,
// every directory sync while failDir is and every read of a snapshot while
// failSnapRead is.
type testFS struct {
	FS
	mu                          sync.Mutex
	fail, failDir, failSnapRead error
	ops                         []string
}

func (t *testFS) failSyncs(err error) {
	t.mu.Lock()
	t.fail = err
	t.mu.Unlock()
}

func (t *testFS) failDirSyncs(err error) {
	t.mu.Lock()
	t.failDir = err
	t.mu.Unlock()
}

// do records op on name and returns the injected failure of a sync.
func (t *testFS) do(op, name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops = append(t.ops, op+" "+filepath.Base(name))
	switch op {
	case "sync":
		return t.fail
	case "syncdir":
		return t.failDir
	}
	return nil
}

// recorded returns the operations on names that contain any of subs.
func (t *testFS) recorded(subs ...string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for _, op := range t.ops {
		if slices.ContainsFunc(subs, func(s string) bool { return strings.Contains(op, s) }) {
			out = append(out, op)
		}
	}
	return out
}

func (t *testFS) ReadFile(name string) ([]byte, error) {
	t.mu.Lock()
	err := t.failSnapRead
	t.mu.Unlock()
	if err != nil && strings.HasSuffix(name, ".snap") {
		return nil, err
	}
	return t.FS.ReadFile(name)
}

func (t *testFS) Create(name string) (File, error) { return t.wrap(name, t.FS.Create) }
func (t *testFS) Append(name string) (File, error) { return t.wrap(name, t.FS.Append) }

func (t *testFS) wrap(name string, open func(string) (File, error)) (File, error) {
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	return testFile{f, t, name}, nil
}

func (t *testFS) Rename(from, to string) error {
	_ = t.do("rename", from)
	return t.FS.Rename(from, to)
}

func (t *testFS) Remove(name string) error {
	_ = t.do("remove", name)
	return t.FS.Remove(name)
}

func (t *testFS) SyncDir(dir string) error {
	if err := t.do("syncdir", dir); err != nil {
		return err
	}
	return t.FS.SyncDir(dir)
}

type testFile struct {
	File
	fs   *testFS
	name string
}

func (f testFile) Write(p []byte) (int, error) {
	_ = f.fs.do("write", f.name)
	return f.File.Write(p)
}

func (f testFile) Sync() error {
	if err := f.fs.do("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestInstallOrder: a snapshot reaches its name the durable way — the temp
// file written, synced and renamed, then the directory synced — and the
// segments it covers are removed only after that, for the journal's own
// snapshot and for one a Mirror installs.
func TestInstallOrder(t *testing.T) {
	dir := t.TempDir()
	fsys := &testFS{FS: OS}
	j := mustOpen(t, Options{Dir: dir, FS: fsys})
	appendAll(t, j, lifecycle(1, "aa")...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	installed := func(seq uint64, dir string) []string {
		tmp := SnapshotFileName(seq) + ".tmp"
		return []string{"write " + tmp, "sync " + tmp, "rename " + tmp, "syncdir " + filepath.Base(dir)}
	}
	want := append(installed(2, dir), "remove "+SegmentFileName(1))
	if got := fsys.recorded(".snap", "syncdir", "remove"); !slices.Equal(got[max(0, len(got)-len(want)):], want) {
		t.Fatalf("Close's snapshot: operations %q, want them to end %q", got, want)
	}

	mirror := filepath.Join(t.TempDir(), "mirror")
	mfs := &testFS{FS: OS}
	m, err := OpenMirror(mirror, mfs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := OS.ReadFile(filepath.Join(dir, SnapshotFileName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallSnapshot(2, data); err != nil {
		t.Fatal(err)
	}
	if got, want := mfs.recorded(".snap", "syncdir"), installed(2, mirror); !slices.Equal(got, want) {
		t.Fatalf("mirror's install: operations %q, want %q", got, want)
	}
	if err := m.InstallSnapshot(3, data[:len(data)-1]); err == nil {
		t.Fatal("a truncated snapshot was installed")
	}
}

// TestSnapshotReadErrorFailsOpen: a snapshot that cannot be read is an I/O
// failure, not corruption: Open fails on it rather than fall back past it.
func TestSnapshotReadErrorFailsOpen(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir})
	appendAll(t, j, lifecycle(1, "aa")...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected read failure")
	if _, err := Open(Options{Dir: dir, FS: &testFS{FS: OS, failSnapRead: boom}}); !errors.Is(err, boom) {
		t.Fatalf("Open = %v, want the injected read failure", err)
	}
}

// TestSyncFailureAfterWrite: an fsync that fails after the write succeeded
// fails the Sync (and an Append) but not the journal — once the fault heals,
// a later ticket syncs.
func TestSyncFailureAfterWrite(t *testing.T) {
	fsys := &testFS{FS: OS}
	j := mustOpen(t, Options{Dir: t.TempDir(), FS: fsys})
	defer j.Close()
	boom := errors.New("injected fsync failure")
	fsys.failSyncs(boom)
	tk, err := j.Write(Record{Kind: Submitted, ID: 1, Name: "one"})
	if err != nil {
		t.Fatalf("Write must not see the sync fault: %v", err)
	}
	if err := j.Sync(tk); !errors.Is(err, boom) {
		t.Fatalf("Sync = %v, want the injected failure", err)
	}
	if err := j.Append(Record{Kind: Started, ID: 1}); !errors.Is(err, boom) {
		t.Fatalf("Append = %v, want the injected failure", err)
	}
	fsys.failSyncs(nil)
	appendAll(t, j, Record{Kind: Succeeded, ID: 1, SinkDigest: "aa"})
}

// TestRotationAbortsOnDirSyncFailure: a rotation whose directory sync fails
// is aborted, as one whose create fails is: records go on into the old
// segment, whose name is durable, not into one a crash may unlink. The next
// threshold crossing rotates.
func TestRotationAbortsOnDirSyncFailure(t *testing.T) {
	fsys := &testFS{FS: OS}
	j := mustOpen(t, Options{Dir: t.TempDir(), FS: fsys, SegmentBytes: 1, Logf: func(string, ...any) {}})
	defer j.Close()
	fsys.failDirSyncs(errors.New("injected directory sync failure"))
	appendAll(t, j, Record{Kind: Submitted, ID: 1, Name: "one"})
	if seg := j.Stats().Segment; seg != 1 {
		t.Fatalf("a rotation whose directory sync failed switched to segment %d", seg)
	}
	fsys.failDirSyncs(nil)
	appendAll(t, j, Record{Kind: Submitted, ID: 2, Name: "two"})
	if seg := j.Stats().Segment; seg != 2 {
		t.Fatalf("the next rotation left the journal on segment %d, want 2", seg)
	}
}
