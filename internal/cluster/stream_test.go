package cluster

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ftdag/internal/journal"
)

// newPrimary opens a journal and serves its tailing endpoint.
func newPrimary(t *testing.T) (*journal.Journal, *httptest.Server) {
	return servePrimary(t, journal.Options{Dir: t.TempDir()}, nil)
}

// servePrimary opens a journal with opts and serves its tailing endpoint,
// through p when p is non-nil.
func servePrimary(t *testing.T, opts journal.Options, p *flakyProxy) (*journal.Journal, *httptest.Server) {
	t.Helper()
	j, err := journal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /journal/stream", streamHandler(j))
	var h http.Handler = mux
	if p != nil {
		p.inner, h = mux, p
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return j, ts
}

func appendJobs(t *testing.T, j *journal.Journal, from, to int, finish bool) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := j.Append(journal.Record{Kind: journal.Submitted, ID: int64(i), Name: "repl", Payload: []byte(`{"t":1}`)}); err != nil {
			t.Fatal(err)
		}
		if finish {
			if err := j.Append(journal.Record{Kind: journal.Succeeded, ID: int64(i), SinkDigest: "d"}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameStates fails unless the two journals fold to identical job states.
func sameStates(t *testing.T, want, got *journal.Journal) {
	t.Helper()
	ws, gs := want.State(), got.State()
	if len(ws.Jobs) != len(gs.Jobs) || ws.MaxID != gs.MaxID {
		t.Fatalf("state mismatch: %d jobs maxID %d vs %d jobs maxID %d", len(ws.Jobs), ws.MaxID, len(gs.Jobs), gs.MaxID)
	}
	for id, wj := range ws.Jobs {
		gj := gs.Jobs[id]
		if gj == nil || gj.State != wj.State || gj.SinkDigest != wj.SinkDigest {
			t.Fatalf("job %d: want %+v, got %+v", id, wj, gj)
		}
	}
}

// TestFollowerMirrorsAndPromotes: a follower converges on the primary's
// bytes across appends, and promotion replays the mirror into the same
// state — including an incomplete job left mid-flight.
func TestFollowerMirrorsAndPromotes(t *testing.T) {
	j, ts := newPrimary(t)
	defer j.Close()
	appendJobs(t, j, 1, 3, true)

	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// New appends after the first round, one left incomplete.
	appendJobs(t, j, 4, 5, true)
	appendJobs(t, j, 6, 6, false)
	n, err := f.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("second sync copied nothing despite new appends")
	}
	if extra, err := f.Sync(); err != nil || extra != 0 {
		t.Fatalf("idle sync = %d bytes, err %v; want 0, nil", extra, err)
	}

	promoted, err := f.Promote(journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	sameStates(t, j, promoted)
	if js := promoted.State().Jobs[6]; js == nil || js.Terminal() {
		t.Fatalf("incomplete job after promotion = %+v, want non-terminal", js)
	}
	st := f.Stats()
	if st.Rounds != 3 || st.Records != 11 || st.Bytes == 0 {
		t.Fatalf("stats = %+v, want 3 rounds with 11 records and bytes", st)
	}
}

// flakyProxy wraps a handler and mutates the first non-trivial response
// to a request carrying the query parameter param ("seg" or "snap"):
// truncating it (a dropped connection: the reply still declares its whole
// length) or flipping a bit (corruption in transit). Other requests pass
// through untouched.
type flakyProxy struct {
	inner   http.Handler
	param   string
	mutate  func([]byte) []byte
	mu      sync.Mutex
	tripped bool
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get(p.param) == "" {
		p.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	size := len(body)
	p.mu.Lock()
	if !p.tripped && len(body) > 64 {
		body = p.mutate(bytes.Clone(body))
		p.tripped = true
	}
	p.mu.Unlock()
	for k, vs := range rec.Header() {
		w.Header()[k] = vs
	}
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// sameFiles fails unless every segment and snapshot in the primary's
// directory has a byte-identical copy in the mirror.
func sameFiles(t *testing.T, j *journal.Journal, primary, mirror string) {
	t.Helper()
	m, err := j.TailManifest()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, seg := range m.Segments {
		names = append(names, journal.SegmentFileName(seg.Seq))
	}
	for _, snap := range m.Snapshots {
		names = append(names, journal.SnapshotFileName(snap.Seq))
	}
	for _, name := range names {
		want, err := journal.OS.ReadFile(filepath.Join(primary, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := journal.OS.ReadFile(filepath.Join(mirror, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: mirror differs (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

func testFollowerRecovers(t *testing.T, mutate func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	j, ts := servePrimary(t, journal.Options{Dir: dir}, &flakyProxy{param: "seg", mutate: mutate})
	defer j.Close()
	appendJobs(t, j, 1, 20, true)

	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 hits the mutated response: some prefix may apply, the
	// damaged record must not, and the round says so. Round 2 resumes from
	// the durable offset and converges.
	if _, err := f.Sync(); err == nil {
		t.Fatal("the round that met the damaged reply returned nil")
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Resumes == 0 {
		t.Fatalf("stats = %+v, want at least one resume", st)
	}
	sameFiles(t, j, dir, f.dir)
}

// TestFollowerResumesAfterDroppedConnection: a connection dropped mid-record
// applies the whole records before the cut; the next round resumes at the
// durable offset.
func TestFollowerResumesAfterDroppedConnection(t *testing.T) {
	testFollowerRecovers(t, func(b []byte) []byte { return b[:len(b)-7] })
}

// TestFollowerRejectsCorruptRecord: a bit flipped in transit fails the
// record's CRC; nothing corrupt lands in the mirror and the retry converges.
func TestFollowerRejectsCorruptRecord(t *testing.T) {
	testFollowerRecovers(t, func(b []byte) []byte {
		b[len(b)/2] ^= 0x20
		return b
	})
}

// TestPromotionAbsorbsTornTail: a partially streamed record on the
// mirror's tail — the at-most-one-batch loss window — truncates cleanly
// at promotion, exactly like a crash restart.
func TestPromotionAbsorbsTornTail(t *testing.T) {
	j, ts := newPrimary(t)
	appendJobs(t, j, 1, 4, true)

	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	wantState := j.State()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the stream dying mid-record: append half a record frame to
	// the mirror's newest segment.
	local, err := journal.ScanTailDir(f.dir)
	if err != nil || len(local.Segments) == 0 {
		t.Fatalf("mirror scan: %v (%d segments)", err, len(local.Segments))
	}
	last := local.Segments[len(local.Segments)-1]
	seg := filepath.Join(f.dir, journal.SegmentFileName(last.Seq))
	fh, err := journal.OS.Append(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	promoted, err := f.Promote(journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if n, truncated := promoted.Truncated(); !truncated || n == 0 {
		t.Fatalf("promotion did not truncate the torn tail (n=%d, truncated=%v)", n, truncated)
	}
	got := promoted.State()
	if len(got.Jobs) != len(wantState.Jobs) {
		t.Fatalf("promoted jobs = %d, want %d", len(got.Jobs), len(wantState.Jobs))
	}
	for id, wj := range wantState.Jobs {
		if gj := got.Jobs[id]; gj == nil || gj.State != wj.State {
			t.Fatalf("job %d: want %+v, got %+v", id, wj, gj)
		}
	}
}

// TestFollowerRestartsPastATornTail: a follower restarted on a mirror whose
// last record was cut mid-write resumes from the record boundary before it
// and converges on the primary's bytes, and reopening a mirror fsyncs what
// the killed follower wrote.
func TestFollowerRestartsPastATornTail(t *testing.T) {
	dir, mirror := t.TempDir(), t.TempDir()
	j, ts := servePrimary(t, journal.Options{Dir: dir}, nil)
	defer j.Close()
	appendJobs(t, j, 1, 3, true)
	f, err := NewFollower(ts.URL, mirror, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// Killed while writing job 4's records, the follower left the first
	// bytes of them at the end of its copy.
	appendJobs(t, j, 4, 4, true)
	name := journal.SegmentFileName(1)
	want, err := journal.OS.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	got, err := journal.OS.ReadFile(filepath.Join(mirror, name))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := journal.OS.Create(filepath.Join(mirror, name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(want[:len(got)+5]); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = NewFollower(ts.URL, mirror, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, j, dir, mirror)

	// A restarted follower cannot know what the killed one fsynced: its
	// mirror fsyncs every segment before a round may return nil over it.
	fsys := &opsFS{FS: journal.OS}
	if _, err := journal.OpenMirror(mirror, fsys); err != nil {
		t.Fatal(err)
	}
	if ops := fsys.take(nil); !slices.Contains(ops, "sync "+name) {
		t.Fatalf("reopening the mirror did operations %q, no fsync of %s", ops, name)
	}
}

// TestFollowerReplicatesARecordLargerThanOneResponse: a submission of the
// largest body a node accepts journals as one record longer than a
// /journal/stream reply; the follower carries its first reply's bytes into
// the next request and mirrors the record whole.
func TestFollowerReplicatesARecordLargerThanOneResponse(t *testing.T) {
	dir := t.TempDir()
	j, ts := servePrimary(t, journal.Options{Dir: dir, SegmentBytes: 8 << 20}, nil)
	defer j.Close()
	appendJobs(t, j, 1, 2, true)
	big := bytes.Repeat([]byte{0xA5}, maxSubmitBody)
	if err := j.Append(journal.Record{Kind: journal.Submitted, ID: 3, Name: "big", Payload: big}); err != nil {
		t.Fatal(err)
	}
	appendJobs(t, j, 4, 4, false)
	if m, err := j.TailManifest(); err != nil || len(m.Segments) != 1 || m.Segments[0].Size <= streamMaxResponse {
		t.Fatalf("manifest %+v (err %v): want one segment holding a record longer than one reply", m, err)
	}
	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Resumes != 0 {
		t.Fatalf("stats = %+v, want the segment copied in one round without a resume", st)
	}
	sameFiles(t, j, dir, f.dir)
	promoted, err := f.Promote(journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	sameStates(t, j, promoted)
	if js := promoted.State().Jobs[3]; js == nil || !bytes.Equal(js.Payload, big) {
		t.Fatal("promoted journal lost the large submission's payload")
	}
}

// TestFollowerRefetchesCorruptSnapshot: a snapshot flipped in transit
// fails the check Open applies, so it is not installed and the next round
// fetches it again. Installed, it would be skipped forever, and promotion
// would fall back past segments the primary had already compacted.
func TestFollowerRefetchesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	flip := func(b []byte) []byte {
		b[len(b)/2] ^= 0x08
		return b
	}
	j, ts := servePrimary(t, journal.Options{Dir: dir, SegmentBytes: 2 << 10},
		&flakyProxy{param: "snap", mutate: flip})
	defer j.Close()
	appendJobs(t, j, 1, 40, true)
	appendJobs(t, j, 41, 41, false)
	if m, err := j.TailManifest(); err != nil || len(m.Snapshots) != 2 || m.Segments[0].Seq == 1 {
		t.Fatalf("manifest %+v (err %v): want a snapshot covering compacted segments", m, err)
	}

	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err == nil {
		t.Fatal("the round that met the flipped snapshot returned nil")
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, j, dir, f.dir)
	promoted, err := f.Promote(journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	sameStates(t, j, promoted)
	if st := f.Stats(); st.Resumes == 0 {
		t.Fatalf("stats = %+v, want the corrupt snapshot counted as a resume", st)
	}
}

// TestFollowerBoundsEndlessReplies: a primary whose manifest never ends
// costs the follower one bounded read and an error, not a hang or its
// memory.
func TestFollowerBoundsEndlessReplies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"segments":[{"seq":1,"size":"`))
		chunk := []byte(strings.Repeat("9", 64<<10))
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()

	f, err := NewFollower(ts.URL, t.TempDir(), &http.Client{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := f.Sync(); err == nil {
		t.Fatal("Sync against an endless manifest returned no error")
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("Sync took %v: the read was not bounded", d)
	}
}

// opsFS is the OS file layer with the operations of a follower round
// recorded by base name — opens for appends, syncs, renames, directory
// syncs, removals — and with every file sync failing while fail is set.
type opsFS struct {
	journal.FS
	mu   sync.Mutex
	fail error
	ops  []string
}

// do records op on name and returns the injected failure of a file sync.
func (o *opsFS) do(op, name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ops = append(o.ops, op+" "+filepath.Base(name))
	if op == "sync" {
		return o.fail
	}
	return nil
}

// take returns the operations recorded since the last take and sets fail.
func (o *opsFS) take(fail error) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	ops := o.ops
	o.ops, o.fail = nil, fail
	return ops
}

func (o *opsFS) Create(name string) (journal.File, error) { return o.wrap(name, o.FS.Create) }
func (o *opsFS) Append(name string) (journal.File, error) {
	_ = o.do("append", name)
	return o.wrap(name, o.FS.Append)
}

func (o *opsFS) wrap(name string, open func(string) (journal.File, error)) (journal.File, error) {
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	return opsFile{f, o, name}, nil
}

func (o *opsFS) Rename(from, to string) error {
	_ = o.do("rename", from)
	return o.FS.Rename(from, to)
}

func (o *opsFS) Remove(name string) error {
	_ = o.do("remove", name)
	return o.FS.Remove(name)
}

func (o *opsFS) SyncDir(dir string) error {
	_ = o.do("syncdir", dir)
	return o.FS.SyncDir(dir)
}

type opsFile struct {
	journal.File
	fs   *opsFS
	name string
}

func (f opsFile) Sync() error {
	if err := f.fs.do("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestFollowerReturnsSyncFailure: a mirrored segment whose fsync fails fails
// the round, so a nil error still means the mirror holds every record; once
// the fault heals, the next round converges. A round returns nil only over
// bytes it fsynced, in segments whose names are durable: a segment the
// mirror creates is followed by a directory sync, and the healed round
// fsyncs the segment the failed round wrote, though it has no new bytes for
// it.
func TestFollowerReturnsSyncFailure(t *testing.T) {
	dir := t.TempDir()
	j, ts := servePrimary(t, journal.Options{Dir: dir}, nil)
	defer j.Close()
	appendJobs(t, j, 1, 3, true)
	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fsys := &opsFS{FS: journal.OS}
	if f.mirror, err = journal.OpenMirror(f.dir, fsys); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	fsys.take(boom)
	if _, err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync = %v, want the injected fsync failure", err)
	}
	seg := journal.SegmentFileName(1)
	ops := fsys.take(nil)
	if i := slices.Index(ops, "append "+seg); i < 0 || !slices.Contains(ops[i:], "syncdir "+filepath.Base(f.dir)) {
		t.Fatalf("operations %q: no directory sync after %s was created", ops, seg)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if ops := fsys.take(nil); !slices.Contains(ops, "sync "+seg) {
		t.Fatalf("the healed round returned nil with operations %q: %s, which the failed round wrote, was never fsynced", ops, seg)
	}
	sameFiles(t, j, dir, f.dir)
}

// TestFollowerPrunesAfterInstall: a round removes the segments a new
// snapshot covers only after that snapshot's install — temp file synced,
// renamed, directory synced — and a round whose install fails removes
// nothing, so a power loss never leaves the mirror with neither.
func TestFollowerPrunesAfterInstall(t *testing.T) {
	dir := t.TempDir()
	j, ts := servePrimary(t, journal.Options{Dir: dir, SegmentBytes: 2 << 10}, nil)
	defer j.Close()
	appendJobs(t, j, 1, 4, true)
	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fsys := &opsFS{FS: journal.OS}
	if f.mirror, err = journal.OpenMirror(f.dir, fsys); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	appendJobs(t, j, 5, 40, true)
	if m, err := j.TailManifest(); err != nil || len(m.Snapshots) != 2 || m.Segments[0].Seq == 1 {
		t.Fatalf("manifest %+v (err %v): want a snapshot covering compacted segments", m, err)
	}

	boom := errors.New("injected fsync failure")
	fsys.take(boom)
	if _, err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync = %v, want the injected fsync failure", err)
	}
	for _, op := range fsys.take(nil) {
		if strings.HasPrefix(op, "remove") || strings.HasPrefix(op, "rename") {
			t.Fatalf("a round whose snapshot did not sync did %q", op)
		}
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	ops := fsys.take(nil)
	synced := -1
	for i, op := range ops {
		switch {
		case strings.HasPrefix(op, "syncdir"):
			if i < 2 || !strings.HasPrefix(ops[i-1], "rename snap-") || !strings.HasPrefix(ops[i-2], "sync snap-") {
				t.Fatalf("operations %q: the directory sync does not follow a snapshot's sync and rename", ops)
			}
			synced = i
		case strings.HasPrefix(op, "remove wal-"):
			if synced < 0 {
				t.Fatalf("operations %q: %q before the covering snapshot's directory sync", ops, op)
			}
		}
	}
	if !slices.ContainsFunc(ops, func(op string) bool { return strings.HasPrefix(op, "remove wal-") }) {
		t.Fatalf("operations %q: no covered segment removed", ops)
	}
	sameFiles(t, j, dir, f.dir)
}
