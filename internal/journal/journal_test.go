package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ftdag/internal/core"
)

// testLogf collects warnings so tests can assert on recovery messages.
type testLogf struct {
	mu   sync.Mutex
	msgs []string
}

func (l *testLogf) logf(format string, args ...any) {
	l.mu.Lock()
	l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *testLogf) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}

func mustOpen(t *testing.T, opts Options) *Journal {
	t.Helper()
	j, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return j
}

func appendAll(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%v job %d): %v", r.Kind, r.ID, err)
		}
	}
}

// lifecycle returns the records of one complete job.
func lifecycle(id int64, digest string) []Record {
	return []Record{
		{Kind: Submitted, ID: id, Name: fmt.Sprintf("job-%d", id), Payload: []byte(`{"i":1}`), Plan: []byte(`{"injections":[]}`)},
		{Kind: Started, ID: id},
		{Kind: Succeeded, ID: id, SinkDigest: digest, SinkLen: 3, Elapsed: time.Millisecond,
			Tasks: 7, ReexecutedTasks: 2, Metrics: &core.Metrics{Computes: 9, Recoveries: 2}},
	}
}

// TestLifecycleRoundTrip: appended lifecycles survive close-and-reopen with
// every field intact, including a job left incomplete.
func TestLifecycleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir})
	appendAll(t, j, lifecycle(1, "aa")...)
	appendAll(t, j, lifecycle(2, "bb")...)
	appendAll(t, j,
		Record{Kind: Submitted, ID: 3, Name: "incomplete", Payload: []byte("p3")},
		Record{Kind: Started, ID: 3},
		Record{Kind: Submitted, ID: 4, Name: "failed"},
		Record{Kind: Failed, ID: 4, Error: "boom"},
	)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := j.Append(Record{Kind: Started, ID: 1}); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	j2 := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	st := j2.State()
	if len(st.Jobs) != 4 || st.MaxID != 4 {
		t.Fatalf("replayed %d jobs maxID=%d, want 4/4", len(st.Jobs), st.MaxID)
	}
	if got := st.Jobs[1]; got.State != Succeeded || got.SinkDigest != "aa" ||
		got.Tasks != 7 || got.ReexecutedTasks != 2 || got.Metrics.Recoveries != 2 {
		t.Errorf("job 1 state = %+v", got)
	}
	if got := st.Jobs[3]; got.State != Started || got.Terminal() ||
		string(got.Payload) != "p3" || got.Name != "incomplete" {
		t.Errorf("job 3 state = %+v", got)
	}
	if got := st.Jobs[4]; got.State != Failed || got.Error != "boom" {
		t.Errorf("job 4 state = %+v", got)
	}
	if got := st.Finished.IDs(); !slices.Equal(got, []int64{1, 2, 4}) {
		t.Errorf("finished = %v, want [1 2 4]", got)
	}
	if _, truncated := j2.Truncated(); truncated {
		t.Error("clean reopen reported truncation")
	}
}

// segFiles returns the journal's segment file paths, sorted.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestTornTailTruncated: garbage appended to the live segment (a torn
// write) is observed at read time, truncated with a warning, and every
// record before it survives.
func TestTornTailTruncated(t *testing.T) {
	for name, garbage := range map[string][]byte{
		"partial-header": {0x01, 0x02},
		"partial-record": encodeFrame(nil, []byte(`{"kind":"started","id":1}`))[:10],
		"random":         []byte("this is not a journal frame at all......."),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, Options{Dir: dir})
			appendAll(t, j, lifecycle(1, "aa")...)
			appendAll(t, j, Record{Kind: Submitted, ID: 2, Name: "tail"})
			// Crash: no Close. Corrupt the tail out-of-band.
			segs := segFiles(t, dir)
			if len(segs) != 1 {
				t.Fatalf("segments = %v", segs)
			}
			f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(garbage); err != nil {
				t.Fatal(err)
			}
			f.Close()

			var lg testLogf
			j2 := mustOpen(t, Options{Dir: dir, Logf: lg.logf})
			defer j2.Close()
			if n, truncated := j2.Truncated(); !truncated || n != int64(len(garbage)) {
				t.Fatalf("Truncated() = %d,%v, want %d,true", n, truncated, len(garbage))
			}
			if !lg.contains("torn tail") {
				t.Errorf("no torn-tail warning logged: %v", lg.msgs)
			}
			st := j2.State()
			if len(st.Jobs) != 2 || st.Jobs[1].State != Succeeded || st.Jobs[2].State != Submitted {
				t.Fatalf("state after truncation = %+v", st.Jobs)
			}
			// The journal must accept appends right where it truncated.
			appendAll(t, j2, Record{Kind: Started, ID: 2}, Record{Kind: Succeeded, ID: 2, SinkDigest: "cc"})
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3 := mustOpen(t, Options{Dir: dir})
			defer j3.Close()
			if got := j3.State().Jobs[2]; got.State != Succeeded || got.SinkDigest != "cc" {
				t.Fatalf("job 2 after re-append = %+v", got)
			}
		})
	}
}

// TestCorruptedMidRecord: flipping a byte inside an earlier record drops
// that record and everything after it (the tail is truncated at the first
// bad frame), but the prefix replays.
func TestCorruptedMidRecord(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir})
	appendAll(t, j, lifecycle(1, "aa")...)
	seg := segFiles(t, dir)[0]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := fi.Size()                       // start of job 2's first record
	appendAll(t, j, lifecycle(2, "bb")...) // these will be corrupted away
	f, err := os.OpenFile(seg, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of job 2's first record.
	if _, err := f.WriteAt([]byte{0xFF}, off+frameHeader+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var lg testLogf
	j2 := mustOpen(t, Options{Dir: dir, Logf: lg.logf})
	defer j2.Close()
	st := j2.State()
	if len(st.Jobs) != 1 || st.Jobs[1].State != Succeeded {
		t.Fatalf("state after mid-record corruption = %+v", st.Jobs)
	}
	if _, truncated := j2.Truncated(); !truncated {
		t.Error("corruption not reported as truncation")
	}
}

// TestRotationSnapshotCompaction: a tiny segment threshold forces many
// rotations; old segments are compacted away down to the two the retained
// snapshots need, snapshots stay bounded, and a reopen reconstructs the full
// state from snapshot + live segment.
func TestRotationSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})
	const jobs = 40
	for id := int64(1); id <= jobs; id++ {
		appendAll(t, j, lifecycle(id, fmt.Sprintf("%02x", id))...)
	}
	if s := j.Stats(); s.Rotations == 0 || s.Snapshots == 0 {
		t.Fatalf("expected rotations+snapshots, stats = %+v", s)
	}
	if segs := segFiles(t, dir); len(segs) != keepSnapshots {
		t.Errorf("compaction left %d segments: %v", len(segs), segs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) > 2 {
		t.Errorf("kept %d snapshots: %v", len(snaps), snaps)
	}
	// Crash (no Close) and reopen: snapshot + live segment must rebuild
	// everything.
	j2 := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	st := j2.State()
	if len(st.Jobs) != jobs || st.MaxID != jobs {
		t.Fatalf("replayed %d jobs maxID=%d, want %d", len(st.Jobs), st.MaxID, jobs)
	}
	for id := int64(1); id <= jobs; id++ {
		if st.Jobs[id] == nil || st.Jobs[id].State != Succeeded {
			t.Fatalf("job %d lost across rotation: %+v", id, st.Jobs[id])
		}
	}
}

// TestCorruptSnapshotFallsBack: with the newest snapshot corrupted after a
// crash, Open warns and falls back to the older snapshot instead of failing
// boot, and the segments kept since it restore every acknowledged job.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})
	const jobs = 30
	for id := int64(1); id <= jobs; id++ {
		appendAll(t, j, lifecycle(id, "dd")...)
	}
	// Crash: no Close.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) < 2 {
		t.Fatalf("want ≥2 snapshots, got %v", snaps)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var lg testLogf
	j2, err := Open(Options{Dir: dir, Logf: lg.logf})
	if err != nil {
		t.Fatalf("Open with corrupt snapshot must not fail boot: %v", err)
	}
	defer j2.Close()
	if !lg.contains("falling back") {
		t.Errorf("no fallback warning: %v", lg.msgs)
	}
	st := j2.State()
	for id := int64(1); id <= jobs; id++ {
		if js := st.Jobs[id]; js == nil || js.State != Succeeded || js.SinkDigest != "dd" {
			t.Errorf("job %d lost or changed across the fallback: %+v", id, js)
		}
	}
}

// TestGroupCommitConcurrentAppends: concurrent appenders are all durable
// and the journal stays consistent; with batching, fsyncs ≤ appends.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir})
	const writers, per = 8, 25
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := int64(w*per + i + 1)
				if err := j.Append(Record{Kind: Submitted, ID: id, Name: fmt.Sprintf("w%d-%d", w, i)}); err != nil {
					t.Errorf("append %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := j.Stats()
	if s.Appends != writers*per {
		t.Fatalf("appends = %d, want %d", s.Appends, writers*per)
	}
	if s.Fsyncs > s.Appends {
		t.Errorf("fsyncs %d > appends %d", s.Fsyncs, s.Appends)
	}
	// Crash-reopen: every append must be on disk (Append returned only
	// after its group's fsync).
	j2 := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if got := len(j2.State().Jobs); got != writers*per {
		t.Fatalf("recovered %d jobs, want %d", got, writers*per)
	}
}

// TestTerminalStateSticky: replay tolerates duplicate and out-of-order
// lifecycle records (possible across crash/re-enqueue cycles) — a terminal
// record wins and stays won.
func TestTerminalStateSticky(t *testing.T) {
	st := newState()
	st.apply(&Record{Kind: Submitted, ID: 1, Name: "a"})
	st.apply(&Record{Kind: Started, ID: 1})
	st.apply(&Record{Kind: Started, ID: 1}) // re-enqueued after crash
	st.apply(&Record{Kind: Succeeded, ID: 1, SinkDigest: "aa"})
	st.apply(&Record{Kind: Started, ID: 1}) // stray late record
	if js := st.Jobs[1]; js.State != Succeeded || js.SinkDigest != "aa" {
		t.Fatalf("state = %+v", js)
	}
	// A Started with no Submitted (Submitted fell into a torn tail)
	// still creates a visible — if unrunnable — job.
	st.apply(&Record{Kind: Started, ID: 9})
	if js := st.Jobs[9]; js == nil || js.State != Started || js.Terminal() {
		t.Fatalf("orphan Started = %+v", st.Jobs[9])
	}
}

// TestDigestProperties: sensitive to value and length, stable across calls.
func TestDigestProperties(t *testing.T) {
	a := Digest([]float64{1, 2, 3})
	if a != Digest([]float64{1, 2, 3}) {
		t.Error("digest not deterministic")
	}
	for _, other := range [][]float64{{1, 2}, {1, 2, 4}, {3, 2, 1}, nil, {}} {
		if Digest(other) == a {
			t.Errorf("digest collision with %v", other)
		}
	}
	if Digest(nil) == "" || Digest([]float64{}) == "" {
		t.Error("empty digest must still be non-empty string")
	}
}

// TestEncodeDecodeRecord: wire round-trip preserves every field; decoding
// rejects kindless and id-less records.
func TestEncodeDecodeRecord(t *testing.T) {
	in := Record{
		Kind: Succeeded, ID: 42, Time: time.Now().Round(0),
		SinkDigest: "0123456789abcdef", SinkLen: 5, Elapsed: 3 * time.Second,
		Tasks: 10, ReexecutedTasks: 4, Metrics: &core.Metrics{Computes: 14},
	}
	frame, err := EncodeRecord(&in)
	if err != nil {
		t.Fatal(err)
	}
	payload, n, err := decodeFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("decodeFrame: n=%d err=%v", n, err)
	}
	out, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.ID != in.ID || out.SinkDigest != in.SinkDigest ||
		out.Elapsed != in.Elapsed || out.Metrics == nil || out.Metrics.Computes != 14 {
		t.Fatalf("round trip: got %+v", out)
	}
	for _, bad := range []string{`{}`, `{"kind":"started"}`, `{"kind":"nope","id":1}`, `{"kind":"started","id":0}`, `not json`} {
		if _, err := DecodeRecord([]byte(bad)); err == nil {
			t.Errorf("DecodeRecord(%q) accepted", bad)
		}
	}
}

// TestOpenRequiresDir: misuse errors are explicit.
func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir accepted")
	}
}

// BenchmarkAppend measures the hot submit-path append (group commit,
// single writer — the worst case for batching).
func BenchmarkAppend(b *testing.B) {
	j, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	payload := bytes.Repeat([]byte("x"), 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(Record{Kind: Submitted, ID: int64(i + 1), Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendParallel shows group-commit batching under concurrency.
func BenchmarkAppendParallel(b *testing.B) {
	j, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	var next int64
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			next++
			id := next
			mu.Unlock()
			if err := j.Append(Record{Kind: Submitted, ID: id}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWriteThenSync: Write returns without touching the disk's write-back
// and the state shows the record at once; Sync of a ticket covers every
// earlier write with one fsync; a ticket already covered costs none; Append
// is the two together.
func TestWriteThenSync(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir})
	var tickets []Ticket
	for _, rec := range lifecycle(1, "aa") {
		tk, err := j.Write(rec)
		if err != nil {
			t.Fatalf("Write(%v): %v", rec.Kind, err)
		}
		tickets = append(tickets, tk)
	}
	if s := j.Stats(); s.Appends != 3 || s.Fsyncs != 0 {
		t.Fatalf("after three writes: appends %d fsyncs %d, want 3 and 0", s.Appends, s.Fsyncs)
	}
	if got := j.State().Jobs[1]; got == nil || got.State != Succeeded {
		t.Fatalf("written records not folded into the state: %+v", got)
	}
	if err := j.Sync(tickets[2]); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(tickets[0]); err != nil {
		t.Fatal(err)
	}
	if s := j.Stats(); s.Fsyncs != 1 {
		t.Fatalf("fsyncs = %d after syncing the last ticket and then a covered one, want 1", s.Fsyncs)
	}
	appendAll(t, j, Record{Kind: Submitted, ID: 2, Name: "two"})
	if s := j.Stats(); s.Appends != 4 || s.Fsyncs != 2 {
		t.Fatalf("after Append: appends %d fsyncs %d, want 4 and 2", s.Appends, s.Fsyncs)
	}
	// Crash-reopen (no Close): everything synced is there.
	j2 := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if st := j2.State(); len(st.Jobs) != 2 || st.Jobs[1].State != Succeeded || st.Jobs[2].State != Submitted {
		t.Fatalf("recovered state = %+v", st.Jobs)
	}
}

// TestUnsyncedStartedTail: the service writes Started and waits for no
// fsync, so a crash can leave it as the tail of the log — whole, torn, or
// missing. Every variant replays to an incomplete job (to be re-run), the
// torn one with its bytes truncated, and the log takes the re-run's records.
func TestUnsyncedStartedTail(t *testing.T) {
	for name, keep := range map[string]func(frameLen int64) int64{
		"whole":   func(n int64) int64 { return n },
		"torn":    func(n int64) int64 { return n / 2 },
		"missing": func(int64) int64 { return 0 },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, Options{Dir: dir})
			appendAll(t, j, lifecycle(1, "aa")...)
			appendAll(t, j, Record{Kind: Submitted, ID: 2, Name: "tail", Payload: []byte(`{}`)})
			seg := segFiles(t, dir)[0]
			synced, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Write(Record{Kind: Started, ID: 2}); err != nil {
				t.Fatal(err)
			}
			if s := j.Stats(); s.Appends != 5 || s.Fsyncs != 4 {
				t.Fatalf("appends %d fsyncs %d, want 5 and 4: Started must not be synced", s.Appends, s.Fsyncs)
			}
			// Crash: no Close. The unsynced frame made it to disk in part.
			written, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			kept := keep(written.Size() - synced.Size())
			if err := os.Truncate(seg, synced.Size()+kept); err != nil {
				t.Fatal(err)
			}

			var lg testLogf
			j2 := mustOpen(t, Options{Dir: dir, Logf: lg.logf})
			wantState, wantTorn := Submitted, int64(0)
			switch name {
			case "whole":
				wantState = Started
			case "torn":
				wantTorn = kept
			}
			if n, _ := j2.Truncated(); n != wantTorn {
				t.Fatalf("truncated %d bytes, want %d", n, wantTorn)
			}
			got := j2.State().Jobs[2]
			if got.State != wantState || got.Terminal() || string(got.Payload) != `{}` {
				t.Fatalf("job 2 replays to %+v, want incomplete in state %v with its payload", got, wantState)
			}
			if one := j2.State().Jobs[1]; one.State != Succeeded || one.SinkDigest != "aa" {
				t.Fatalf("job 1 = %+v", one)
			}
			// The re-run journals over the truncated tail.
			appendAll(t, j2, Record{Kind: Started, ID: 2}, Record{Kind: Succeeded, ID: 2, SinkDigest: "cc"})
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3 := mustOpen(t, Options{Dir: dir})
			defer j3.Close()
			if got := j3.State().Jobs[2]; got.State != Succeeded || got.SinkDigest != "cc" {
				t.Fatalf("job 2 after the re-run = %+v", got)
			}
		})
	}
}

// TestReplayFoldsIdentically: the same data dir — terminal and incomplete
// jobs on both sides of a rotated snapshot — folds to the same State in
// every process incarnation, submission order included, and so to the same
// snapshot bytes. Crash-replay digests and a standby's promoted journal
// rest on this.
func TestReplayFoldsIdentically(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})
	for id := int64(1); id <= 40; id++ {
		switch id % 4 {
		case 0:
			appendAll(t, j, lifecycle(id, fmt.Sprintf("%02x", id))...)
		case 1:
			appendAll(t, j, Record{Kind: Submitted, ID: id, Name: "incomplete", Payload: []byte("p")})
		case 2:
			appendAll(t, j, Record{Kind: Submitted, ID: id, Name: "started"}, Record{Kind: Started, ID: id})
		case 3:
			appendAll(t, j, Record{Kind: Submitted, ID: id, Name: "failed"}, Record{Kind: Failed, ID: id, Error: "boom"})
		}
	}
	if s := j.Stats(); s.Snapshots == 0 {
		t.Fatalf("no rotated snapshot to replay from: %+v", s)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	replay := func() (*State, []byte) {
		j := mustOpen(t, Options{Dir: dir})
		defer j.Close()
		st := j.State()
		snap, err := st.marshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st, snap
	}
	st1, snap1 := replay()
	st2, snap2 := replay()
	if len(st1.Jobs) != 40 || len(st1.Finished.IDs()) != 20 {
		t.Fatalf("replayed %d jobs, finished %v; want 40 and 20", len(st1.Jobs), st1.Finished.IDs())
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("two replays of one data dir fold differently:\n%+v\n%+v", st1, st2)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("two replays of one data dir snapshot differently:\n%s\n%s", snap1, snap2)
	}
}
