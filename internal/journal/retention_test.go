package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ftdag/internal/core"
)

// noSyncFS is the OS file layer with every sync skipped, for tests that
// append tens of thousands of records: what they check is what the files
// hold, not when it reached the disk.
type noSyncFS struct{ FS }

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) Create(name string) (File, error) { return noSync(f.FS.Create(name)) }
func (f noSyncFS) Append(name string) (File, error) { return noSync(f.FS.Append(name)) }
func (noSyncFS) SyncDir(string) error               { return nil }

func noSync(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// TestWindowEvictsOldestFirst: the window holds the last KeepFinished IDs
// pushed, hands back each ID it drops in push order, and lists oldest first.
func TestWindowEvictsOldestFirst(t *testing.T) {
	var w Window
	for id := int64(1); id <= KeepFinished; id++ {
		if ev := w.Push(id); ev != 0 {
			t.Fatalf("push %d into a window of %d evicted %d", id, id-1, ev)
		}
	}
	for id := int64(KeepFinished + 1); id <= 3*KeepFinished+5; id++ {
		if ev := w.Push(id); ev != id-KeepFinished {
			t.Fatalf("push %d evicted %d, want %d", id, ev, id-KeepFinished)
		}
	}
	ids := w.IDs()
	if len(ids) != KeepFinished || ids[0] != 2*KeepFinished+6 || ids[KeepFinished-1] != 3*KeepFinished+5 {
		t.Fatalf("window lists %d IDs from %d to %d", len(ids), ids[0], ids[len(ids)-1])
	}
	if !slices.IsSorted(ids) {
		t.Fatal("window does not list oldest first")
	}
}

// finishedJob is a finished job's records as the service journals them, but
// for the Started record, which adds nothing the test reads: a request
// body, then a success carrying every executor counter.
func finishedJob(id int64) []Record {
	m := core.Metrics{Computes: 4097, ComputeErrors: 3, Recoveries: 2, Resets: 1, Registrations: 8191,
		ReinitEnqueues: 5, Notifications: 8190, InjectionsFired: 2, OverwriteMarks: 7}
	return []Record{
		{Kind: Submitted, ID: id, Name: "LU", Payload: []byte(`{"app":"LU","n":96,"b":16,"verify":true,"faults":{"count":3,"point":"after-compute","seed":9}}`),
			Trace: "0123456789abcdef0123456789abcdef-0123456789abcdef"},
		{Kind: Succeeded, ID: id, SinkDigest: "0123456789abcdef", SinkLen: 256, Elapsed: 3 * time.Millisecond,
			Tasks: 4096, ReexecutedTasks: 1, Metrics: &m},
	}
}

// TestRetentionKeepsTheNewestWindow: 30 000 finished jobs come back after a
// crash and after Close as the newest KeepFinished of them, with MaxID at
// the last one. Every job's whole history in one snapshot would pass the
// frame bound near 24 000 jobs, and Open would then fall back past the
// segments compaction had deleted.
func TestRetentionKeepsTheNewestWindow(t *testing.T) {
	const jobs = 30000
	dir := t.TempDir()
	opts := Options{Dir: dir, FS: noSyncFS{OS}, Logf: t.Logf}
	j := mustOpen(t, opts)
	for id := int64(1); id <= jobs; id++ {
		appendAll(t, j, finishedJob(id)...)
	}
	if s := j.Stats(); s.Snapshots == 0 {
		t.Fatalf("no rotation snapshot over %d jobs: %+v", jobs, s)
	}
	check := func(when string) {
		t.Helper()
		j2 := mustOpen(t, opts)
		st := j2.State()
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if st.MaxID != jobs || len(st.Jobs) != KeepFinished || len(st.Finished.IDs()) != KeepFinished {
			t.Fatalf("%s: MaxID %d, %d jobs, window of %d; want %d, %d, %d",
				when, st.MaxID, len(st.Jobs), len(st.Finished.IDs()), jobs, KeepFinished, KeepFinished)
		}
		for id := int64(jobs - KeepFinished + 1); id <= jobs; id++ {
			if js := st.Jobs[id]; js == nil || js.State != Succeeded || js.Tasks != 4096 {
				t.Fatalf("%s: job %d = %+v, want it succeeded", when, id, js)
			}
		}
	}
	check("after a crash") // j is still open: nothing was closed or flushed
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")
}

// TestOversizedStateIsNotSnapshotted: 16 queued jobs carrying 1 MiB bodies
// encode to more than one frame. The snapshot Close writes is refused and
// compacts nothing, so the segment still holds every job at the next Open.
func TestOversizedStateIsNotSnapshotted(t *testing.T) {
	const jobs = 16
	dir := t.TempDir()
	opts := Options{Dir: dir, FS: noSyncFS{OS}, SegmentBytes: 64 << 20}
	j := mustOpen(t, opts)
	body := bytes.Repeat([]byte("x"), 1<<20)
	for id := int64(1); id <= jobs; id++ {
		appendAll(t, j, Record{Kind: Submitted, ID: id, Name: "big", Payload: body})
	}
	if err := j.Close(); err == nil || !strings.Contains(err.Error(), "frame bound") {
		t.Fatalf("Close = %v, want the refused snapshot's error", err)
	}
	j2 := mustOpen(t, opts)
	defer j2.Close()
	st := j2.State()
	if st.MaxID != jobs || len(st.Jobs) != jobs {
		t.Fatalf("reopened with MaxID %d and %d jobs, want %d and %d", st.MaxID, len(st.Jobs), jobs, jobs)
	}
	for id := int64(1); id <= jobs; id++ {
		if js := st.Jobs[id]; js == nil || js.State != Submitted || !bytes.Equal(js.Payload, body) {
			t.Fatalf("job %d came back without its body", id)
		}
	}
}

// TestFinishedJobKeepsNoPayload: only a re-run reads a job's body and fault
// plan, so neither outlives the job's terminal record, in the state or in
// the snapshot; an incomplete job keeps both.
func TestFinishedJobKeepsNoPayload(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Options{Dir: dir})
	appendAll(t, j, lifecycle(1, "aa")...)
	appendAll(t, j, lifecycle(2, "bb")[:2]...)
	st := j.State()
	if js := st.Jobs[1]; js.Payload != nil || js.Plan != nil {
		t.Fatalf("succeeded job keeps payload %q and plan %q", js.Payload, js.Plan)
	}
	if js := st.Jobs[2]; js.Payload == nil || js.Plan == nil {
		t.Fatalf("running job lost its payload or plan: %+v", js)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := j.SnapshotBytes(j.Stats().Segment + 1)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotJSON
	if err := json.Unmarshal(data[len(snapMagic)+frameHeader:], &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 || snap.Jobs[0].ID != 2 || snap.Jobs[1].ID != 1 {
		t.Fatalf("snapshot lists %+v, want the live job 2, then the finished job 1", snap.Jobs)
	}
	if js := snap.Jobs[1]; js.Payload != nil || js.Plan != nil {
		t.Fatalf("snapshot of a succeeded job carries payload %q and plan %q", js.Payload, js.Plan)
	}
}

// TestMaxIDOutlivesItsJob: the job with the highest ID finishes first and
// ages out of the window; MaxID still names it after a crash and after
// Close, so no ID is handed out twice.
func TestMaxIDOutlivesItsJob(t *testing.T) {
	const top = KeepFinished + 1
	dir := t.TempDir()
	opts := Options{Dir: dir, FS: noSyncFS{OS}, SegmentBytes: 64 << 10}
	j := mustOpen(t, opts)
	appendAll(t, j, lifecycle(top, "ff")...)
	for id := int64(1); id < top; id++ {
		appendAll(t, j, lifecycle(id, "aa")...)
	}
	for _, when := range []string{"after a crash", "after Close"} {
		if when == "after Close" {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		j2 := mustOpen(t, opts)
		st := j2.State()
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if st.MaxID != top || st.Jobs[top] != nil || len(st.Jobs) != KeepFinished {
			t.Fatalf("%s: MaxID %d, job %d kept: %v, %d jobs; want MaxID %d, the job gone and %d jobs",
				when, st.MaxID, top, st.Jobs[top] != nil, len(st.Jobs), top, KeepFinished)
		}
	}
}

// TestWholeHistorySnapshotIsPruned: a snapshot that lists every job ever
// finished, in submission order, loads as the live jobs and the last
// KeepFinished finished ones, without their bodies.
func TestWholeHistorySnapshotIsPruned(t *testing.T) {
	const finished = 3000
	var in snapshotJSON
	in.MaxID = finished + 1
	for id := int64(1); id <= finished; id++ {
		in.Jobs = append(in.Jobs, &JobState{ID: id, State: Succeeded, Payload: []byte("body"), SinkDigest: fmt.Sprint(id)})
		if id == 7 {
			in.Jobs = append(in.Jobs, &JobState{ID: finished + 1, State: Started, Payload: []byte("live")})
		}
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := unmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != KeepFinished+1 || st.MaxID != finished+1 {
		t.Fatalf("loaded %d jobs with MaxID %d, want %d and %d", len(st.Jobs), st.MaxID, KeepFinished+1, finished+1)
	}
	if js := st.Jobs[finished+1]; js == nil || string(js.Payload) != "live" {
		t.Fatalf("live job lost or stripped: %+v", js)
	}
	ids := st.Finished.IDs()
	if ids[0] != finished-KeepFinished+1 || ids[len(ids)-1] != finished {
		t.Fatalf("window spans %d..%d, want %d..%d", ids[0], ids[len(ids)-1], finished-KeepFinished+1, finished)
	}
	for _, id := range ids {
		if js := st.Jobs[id]; js.Payload != nil || js.SinkDigest != fmt.Sprint(id) {
			t.Fatalf("finished job %d loaded as %+v", id, js)
		}
	}
	if _, err := unmarshalSnapshot([]byte(`{"max_id":1,"jobs":[null]}`)); err == nil {
		t.Fatal("a snapshot listing a null job loaded")
	}
}
