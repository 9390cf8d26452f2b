package service

// Crash-point enumeration: an acknowledged job survives every prefix of the
// journal's file operations. A scripted workload over two server lifetimes
// runs on crashFS, which records each operation together with the
// acknowledgements seen before it. Each prefix is then opened as a crash
// would leave it and replayed; a second pass fails each operation in turn.

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
)

// inode is one file: the bytes written to it and the bytes an fsync made
// durable.
type inode struct{ data, synced []byte }

// disk is a journal directory as a crash finds it: its current entries and
// its entries as of the last directory sync. The journal keeps one
// directory, so a directory sync makes every current entry durable.
type disk struct{ cur, durable map[string]*inode }

func newDisk() *disk { return &disk{cur: map[string]*inode{}, durable: map[string]*inode{}} }

// clone copies the disk; two entries of one inode stay one inode.
func (d *disk) clone() *disk {
	c := newDisk()
	copies := make(map[*inode]*inode)
	cp := func(in *inode) *inode {
		if copies[in] == nil {
			copies[in] = &inode{data: slices.Clone(in.data), synced: slices.Clone(in.synced)}
		}
		return copies[in]
	}
	for name, in := range d.cur {
		c.cur[name] = cp(in)
	}
	for name, in := range d.durable {
		c.durable[name] = cp(in)
	}
	return c
}

// lost is the disk after a power loss: the durable entries, each with only
// its synced bytes.
func (d *disk) lost() *disk {
	c := newDisk()
	for name, in := range d.durable {
		kept := &inode{data: slices.Clone(in.synced), synced: slices.Clone(in.synced)}
		c.cur[name], c.durable[name] = kept, kept
	}
	return c
}

// fsOp is one recorded file operation. acked and done are how many
// acknowledged submissions and closed done channels had been seen when it
// ran: the ones a crash just before it must keep.
type fsOp struct {
	kind, name, to string
	data           []byte
	size           int64
	acked, done    int
}

func (op fsOp) String() string { return op.kind + " " + filepath.Base(op.name) }

// mutates reports whether op changes the disk.
func (op fsOp) mutates() bool {
	switch op.kind {
	case "mkdir", "readdir", "read", "close":
		return false
	}
	return true
}

func (d *disk) apply(op fsOp) {
	in := d.cur[op.name]
	switch op.kind {
	case "create", "append":
		if in == nil {
			d.cur[op.name] = &inode{}
		} else if op.kind == "create" {
			in.data = nil
		}
	case "write":
		if in != nil {
			in.data = append(slices.Clip(in.data), op.data...)
		}
	case "sync":
		if in != nil {
			in.synced = slices.Clone(in.data)
		}
	case "truncate":
		if in != nil {
			in.data = slices.Clone(in.data[:min(op.size, int64(len(in.data)))])
		}
	case "rename":
		if in != nil {
			d.cur[op.to] = in
			delete(d.cur, op.name)
		}
	case "remove":
		delete(d.cur, op.name)
	case "syncdir":
		d.durable = maps.Clone(d.cur)
	case "crash":
		*d = *d.lost()
	}
}

var (
	errCrashed  = errors.New("crashfs: this lifetime crashed")
	errInjected = errors.New("crashfs: injected failure")
)

// crashFS is a journal.FS on a disk in memory. It records every operation
// it applies, fails the one named by fail ("<kind> <file> #<n>", the nth
// such operation), and fails every call of a lifetime that has crashed.
type crashFS struct {
	mu    sync.Mutex
	disk  *disk
	ops   []fsOp
	life  int
	fail  string
	count map[string]int
	// acked lists the acknowledged submissions and done the jobs seen with
	// their done channel closed, both in the order seen; watched holds the
	// done channels not yet seen closed.
	acked, done []int64
	watched     map[int64]<-chan struct{}
	// exempt names why a job may close its done channel with no durable
	// terminal record.
	exempt map[int64]string
}

func newCrashFS(d *disk, fail string) *crashFS {
	return &crashFS{disk: d, fail: fail, count: map[string]int{}, watched: map[int64]<-chan struct{}{}, exempt: map[int64]string{}}
}

// do runs op for lifetime life: it notes the done channels closed by now,
// records op with the acknowledgements seen, applies it and calls read, if
// any, on the disk. The operation to fail returns errInjected, and every
// operation of a crashed lifetime errCrashed; neither is recorded.
func (c *crashFS) do(life int, op fsOp, read func(*disk)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if life != c.life {
		return errCrashed
	}
	c.poll()
	c.count[op.String()]++
	if c.fail == fmt.Sprintf("%s #%d", op, c.count[op.String()]) {
		return errInjected
	}
	op.acked, op.done = len(c.acked), len(c.done)
	c.ops = append(c.ops, op)
	c.disk.apply(op)
	if read != nil {
		read(c.disk)
	}
	return nil
}

// poll notes, without blocking, the watched done channels that have closed.
func (c *crashFS) poll() {
	for id, ch := range c.watched {
		select {
		case <-ch:
			c.done = append(c.done, id)
			delete(c.watched, id)
		default:
		}
	}
}

// ack notes an acknowledged submission and watches its done channel.
func (c *crashFS) ack(h *Handle) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acked = append(c.acked, h.j.id)
	c.watched[h.j.id] = h.j.done
}

func (c *crashFS) watch(id int64, done <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.watched[id] = done
}

func (c *crashFS) exemptJob(id int64, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exempt[id] = why
}

// crash ends the current lifetime: the disk loses what was not durable, and
// the done channels of that lifetime's jobs are no longer watched.
func (c *crashFS) crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.poll()
	op := fsOp{kind: "crash", acked: len(c.acked), done: len(c.done)}
	c.ops = append(c.ops, op)
	c.disk.apply(op)
	c.life++
	clear(c.watched)
}

// view is the FS the current lifetime opens its journal on.
func (c *crashFS) view() journal.FS {
	c.mu.Lock()
	defer c.mu.Unlock()
	return lifeFS{c, c.life}
}

// logf is a lifetime's Config.Logf. A terminal record that journalAppend
// could not append is its logged degraded mode: the job's done channel
// closes over no durable record, by design.
func (c *crashFS) logf(life int) func(string, ...any) {
	return func(format string, args ...any) {
		if strings.HasPrefix(format, "service: journal append") {
			c.mu.Lock()
			if life == c.life {
				c.exempt[args[1].(int64)] = "journalAppend's logged degraded mode"
			}
			c.mu.Unlock()
		}
	}
}

func discard(string, ...any) {}

// lifeFS is one lifetime's journal.FS over the shared disk.
type lifeFS struct {
	c    *crashFS
	life int
}

func (f lifeFS) op(kind, name string) error { return f.c.do(f.life, fsOp{kind: kind, name: name}, nil) }

func (f lifeFS) MkdirAll(dir string) error                { return f.op("mkdir", dir) }
func (f lifeFS) Remove(name string) error                 { return f.op("remove", name) }
func (f lifeFS) SyncDir(dir string) error                 { return f.op("syncdir", dir) }
func (f lifeFS) Create(name string) (journal.File, error) { return f.open("create", name) }
func (f lifeFS) Append(name string) (journal.File, error) { return f.open("append", name) }

func (f lifeFS) open(kind, name string) (journal.File, error) {
	if err := f.op(kind, name); err != nil {
		return nil, err
	}
	return memFile{f, name}, nil
}

func (f lifeFS) Truncate(name string, size int64) error {
	return f.c.do(f.life, fsOp{kind: "truncate", name: name, size: size}, nil)
}

func (f lifeFS) Rename(from, to string) error {
	return f.c.do(f.life, fsOp{kind: "rename", name: from, to: to}, nil)
}

func (f lifeFS) ReadDir(dir string) (entries []fs.DirEntry, err error) {
	err = f.c.do(f.life, fsOp{kind: "readdir", name: dir}, func(d *disk) {
		files := fstest.MapFS{}
		for name, in := range d.cur {
			files[filepath.Base(name)] = &fstest.MapFile{Data: slices.Clone(in.data)}
		}
		entries, err = fs.ReadDir(files, ".")
	})
	return entries, err
}

func (f lifeFS) ReadFile(name string) (data []byte, err error) {
	if err := f.c.do(f.life, fsOp{kind: "read", name: name}, func(d *disk) {
		if in := d.cur[name]; in != nil {
			data = append([]byte{}, in.data...)
		}
	}); err != nil {
		return nil, err
	}
	if data == nil {
		return nil, fs.ErrNotExist
	}
	return data, nil
}

func (f lifeFS) ReadAt(name string, off int64, max int) ([]byte, error) {
	data, err := f.ReadFile(name)
	if err != nil || off >= int64(len(data)) {
		return nil, err
	}
	return data[off:min(int64(len(data)), off+int64(max))], nil
}

type memFile struct {
	f    lifeFS
	name string
}

func (m memFile) Write(p []byte) (int, error) {
	if err := m.f.c.do(m.f.life, fsOp{kind: "write", name: m.name, data: slices.Clone(p)}, nil); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (m memFile) Sync() error  { return m.f.op("sync", m.name) }
func (m memFile) Close() error { return m.f.op("close", m.name) }

const crashDir = "/data"

// rebuildCrashJob is the script's Config.Rebuild: a three-task chain named by
// its payload, whose Verify fails for "failed".
func rebuildCrashJob(payload []byte) (JobSpec, error) {
	spec := JobSpec{Name: string(payload), Spec: graph.Chain(3, nil), Payload: payload}
	if spec.Name == "failed" {
		spec.Verify = func(*core.Result) error { return errors.New("wrong sink") }
	}
	return spec, nil
}

// runScript runs the workload on c. Lifetime 1 ends one job succeeded, one
// cancelled and one failed, then crashes with a payload-less job running and
// a job queued. Lifetime 2 opens the durable image: replay fails the
// payload-less job (failRestored) and re-runs the queued one; one more job
// succeeds and Shutdown aborts the last. A failed operation may fail a Submit
// or an Open: what that did not acknowledge, the checks do not expect.
func runScript(t *testing.T, c *crashFS) {
	t.Helper()
	start := func(life int) *Server {
		jr, err := journal.Open(journal.Options{Dir: crashDir, SegmentBytes: 512, FS: c.view(), Logf: discard})
		if err != nil {
			return nil
		}
		return New(Config{Workers: 1, MaxConcurrentJobs: 1, Journal: jr, Rebuild: rebuildCrashJob, Logf: c.logf(life)})
	}
	// submit admits a job whose first task waits for its gate; nil if the
	// Submit failed.
	submit := func(s *Server, name string, payload bool) (*Handle, chan struct{}) {
		spec, _ := rebuildCrashJob([]byte(name))
		if !payload {
			spec.Payload = nil
		}
		gate := make(chan struct{})
		spec.Spec = graph.Chain(3, func(key graph.Key, _ [][]float64) []float64 {
			if key == 0 {
				<-gate
			}
			return []float64{float64(key)}
		})
		h, err := s.Submit(spec)
		if err != nil {
			close(gate) // the job may have reached the runner before its fsync failed
			return nil, nil
		}
		c.ack(h)
		return h, gate
	}
	run := func(h *Handle, gate chan struct{}) {
		if h != nil {
			close(gate)
			_, _ = h.Wait()
		}
	}

	if s := start(0); s != nil {
		// The job to cancel waits in the queue behind the first, so the
		// runner sees its cancel before it would start it.
		first, gate := submit(s, "succeeded", true)
		cancelled, cancelGate := submit(s, "cancelled", true)
		if cancelled != nil {
			cancelled.Cancel()
		}
		run(first, gate)
		run(cancelled, cancelGate)
		run(submit(s, "failed", true))
		_, running := submit(s, "payload-less", false)
		_, queued := submit(s, "queued", true)
		c.crash()
		for _, gate := range []chan struct{}{running, queued} {
			if gate != nil {
				close(gate)
			}
		}
		s.Close()
	} else {
		c.crash()
	}

	s := start(1)
	if s == nil {
		return
	}
	for _, st := range s.Jobs() {
		h, _ := s.Job(st.ID)
		c.watch(st.ID, h.j.done)
	}
	for _, st := range s.Jobs() {
		h, _ := s.Job(st.ID)
		_, _ = h.Wait()
	}
	run(submit(s, "succeeded", true))
	last, gate := submit(s, "aborted", true)
	if last == nil {
		s.Close()
		return
	}
	stopped := make(chan struct{})
	go func() { s.Shutdown(time.Millisecond); close(stopped) }()
	for deadline := time.Now().Add(10 * time.Second); !abortedByShutdown(last.j); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never aborted the running job")
		}
	}
	// Shutdown's abort closes the job's done channel and journals no end for
	// it: it stays incomplete and re-runs on the next boot.
	c.exemptJob(last.ID(), "aborted by Shutdown")
	close(gate)
	<-stopped
}

func abortedByShutdown(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shutdownAbort
}

// enumerate checks a crash image at every stride-th prefix of the recorded
// operations that ends before a mutating one, and at the whole record: the
// disk as written (a killed process), the disk after a power loss, and,
// when the prefix ends in a write, the disk with only half of that write.
// full adds the checks that start a server. It returns how many images it
// checked.
func (c *crashFS) enumerate(t *testing.T, stride int, full bool) int {
	t.Helper()
	c.mu.Lock()
	c.poll()
	ops := append(c.ops, fsOp{kind: "end", acked: len(c.acked), done: len(c.done)})
	c.mu.Unlock()
	d, images, prefixes := newDisk(), 0, 0
	var torn *disk
	for i, op := range ops {
		if !op.mutates() {
			continue
		}
		if prefixes++; prefixes%stride == 0 || op.kind == "end" {
			acked, done := c.acked[:op.acked], c.done[:op.done]
			what := fmt.Sprintf("crash before op %d (%s)", i, op)
			if c.fail != "" {
				what = fmt.Sprintf("%q failing, %s", c.fail, what)
			}
			c.check(t, what+", as written", d.clone(), acked, done, full)
			c.check(t, what+", after a power loss", d.lost(), acked, done, full)
			images += 2
			if torn != nil {
				c.check(t, what+", its last write torn", torn, acked, done, full)
				images++
			}
		}
		torn = nil
		if op.kind == "write" && len(op.data) > 1 {
			torn = d.clone()
			half := op
			half.data = op.data[:len(op.data)/2]
			torn.apply(half)
		}
		d.apply(op)
	}
	return images
}

// check opens one crash image and holds it to the four properties:
// every acknowledged submission is present; no job whose done channel had
// closed is incomplete, unless exempt; replay is idempotent; and, with
// full, every incomplete job re-runs to a journaled end.
func (c *crashFS) check(t *testing.T, what string, img *disk, acked, done []int64, full bool) {
	t.Helper()
	fsys := newCrashFS(img, "")
	open := func() *journal.Journal {
		jr, err := journal.Open(journal.Options{Dir: crashDir, FS: fsys.view(), Logf: discard})
		if err != nil {
			t.Fatalf("%s: Open: %v", what, err)
		}
		return jr
	}
	st := open().State()
	for _, id := range acked {
		if st.Jobs[id] == nil {
			t.Fatalf("%s: acknowledged job %d is missing", what, id)
		}
	}
	for _, id := range done {
		if js := st.Jobs[id]; c.exempt[id] == "" && (js == nil || !js.Terminal()) {
			t.Fatalf("%s: job %d's done channel had closed, but the image holds it %+v", what, id, js)
		}
	}
	// Open again on what the first Open left: the same state.
	jr := open()
	if again := jr.State(); !reflect.DeepEqual(st, again) {
		t.Fatalf("%s: replay is not idempotent:\n%+v\nthen\n%+v", what, st, again)
	}
	if !full {
		return
	}
	s := New(Config{Workers: 1, MaxConcurrentJobs: 1, Journal: jr, Rebuild: rebuildCrashJob, Logf: discard})
	defer s.Close()
	for id, js := range st.Jobs {
		if js.Terminal() {
			continue
		}
		h, err := s.Job(id)
		if err != nil {
			t.Fatalf("%s: incomplete job %d was not restored", what, id)
		}
		_, _ = h.Wait()
		if js := jr.State().Jobs[id]; !js.Terminal() {
			t.Fatalf("%s: incomplete job %d re-ran to no journaled end: %+v", what, id, js)
		}
	}
}

// crashStride is how many prefixes apart the enumeration checks images:
// every one in a plain build, a fixed sample under the race detector, whose
// sweep runs this package twenty-one times (make race).
func crashStride() int {
	if raceEnabled {
		return 5
	}
	return 1
}

// TestCrashPoints enumerates the script's crash points, then fails each of
// its operations in turn and enumerates again.
func TestCrashPoints(t *testing.T) {
	c := newCrashFS(newDisk(), "")
	runScript(t, c)
	rotations, compactions := -1, 0 // the first segment is Open's
	for _, op := range c.ops {
		switch {
		case op.kind == "create" && strings.HasSuffix(op.name, ".log"):
			rotations++
		case op.kind == "remove" && strings.HasSuffix(op.name, ".log"):
			compactions++
		}
	}
	if rotations < 2 || compactions < 1 {
		t.Fatalf("the script rotated %d times and compacted %d segments, want at least 2 and 1", rotations, compactions)
	}
	images := c.enumerate(t, crashStride(), true)
	jr, err := journal.Open(journal.Options{Dir: crashDir, FS: newCrashFS(c.disk.clone(), "").view(), Logf: discard})
	if err != nil {
		t.Fatal(err)
	}
	st := jr.State()
	want := []journal.Kind{journal.Succeeded, journal.Cancelled, journal.Failed, journal.Failed, journal.Succeeded, journal.Succeeded}
	for i, kind := range want {
		if js := st.Jobs[int64(i+1)]; js == nil || js.State != kind {
			t.Fatalf("job %d ended the script as %+v, want %v", i+1, js, kind)
		}
	}
	if js := st.Jobs[4]; !strings.Contains(js.Error, "not recoverable after restart") {
		t.Fatalf("the payload-less job failed with %q, not through failRestored", js.Error)
	}
	if js := st.Jobs[7]; js == nil || js.Terminal() {
		t.Fatalf("the job Shutdown aborted ended the script as %+v, want it incomplete", js)
	}

	var failures []string
	seen := map[string]int{}
	for _, op := range c.ops {
		if op.kind != "crash" {
			seen[op.String()]++
			failures = append(failures, fmt.Sprintf("%s #%d", op, seen[op.String()]))
		}
	}
	for i, fail := range failures {
		if i%crashStride() != 0 {
			continue
		}
		fc := newCrashFS(newDisk(), fail)
		runScript(t, fc)
		images += fc.enumerate(t, crashStride(), false)
	}
	t.Logf("%d operations, %d images", len(c.ops), images)
}

// TestFailRestoredCrashPoints: failRestored runs inside New, before any
// caller can hold the job, so the script cannot watch its done channel. Here
// it is watched from the start: no crash point may find the channel closed
// and the job incomplete.
func TestFailRestoredCrashPoints(t *testing.T) {
	c := newCrashFS(newDisk(), "")
	jr, err := journal.Open(journal.Options{Dir: crashDir, FS: c.view(), Logf: discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(journal.Record{Kind: journal.Submitted, ID: 1, Name: "payload-less"}); err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{Journal: jr, Logf: c.logf(0)}}
	j := &job{id: 1, done: make(chan struct{})}
	c.watch(1, j.done)
	s.failRestored(j, errors.New("no payload"))
	c.enumerate(t, 1, false)
}
