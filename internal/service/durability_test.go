package service_test

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/service"
)

// syncingServer is a durable server whose journal really fsyncs, so the
// orderings around the fsync are the production ones, through a file layer
// whose fsyncs a test can make fail.
func syncingServer(t *testing.T, cfg service.Config) (*service.Server, *journal.Journal, *failFS) {
	t.Helper()
	fsys := &failFS{FS: journal.OS}
	jr, err := journal.Open(journal.Options{Dir: t.TempDir(), Logf: t.Logf, FS: fsys})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	cfg.Journal, cfg.Rebuild, cfg.Logf = jr, rebuildTestJob, t.Logf
	return service.New(cfg), jr, fsys
}

// failFS is the OS file layer with every file sync failing while err is set.
type failFS struct {
	journal.FS
	err atomic.Pointer[error]
}

func (f *failFS) Create(name string) (journal.File, error) { return f.wrap(f.FS.Create(name)) }
func (f *failFS) Append(name string) (journal.File, error) { return f.wrap(f.FS.Append(name)) }

func (f *failFS) wrap(file journal.File, err error) (journal.File, error) {
	if err != nil {
		return nil, err
	}
	return failFile{file, f}, nil
}

type failFile struct {
	journal.File
	fs *failFS
}

func (f failFile) Sync() error {
	if err := f.fs.err.Load(); err != nil {
		return *err
	}
	return f.File.Sync()
}

// TestTerminalStatusIsDurable: Status is what every HTTP client polls. The
// first terminal Status a poller sees must find the job's terminal record in
// the journal already — an outcome a crash would take back (and re-run) must
// never have been visible.
func TestTerminalStatusIsDurable(t *testing.T) {
	s, jr, _ := syncingServer(t, service.Config{Workers: 2, MaxConcurrentJobs: 2})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		h, err := s.Submit(durableJob(t, "FW", i%2, int64(i)))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := h.Status()
				if !st.State.Terminal() {
					runtime.Gosched()
					continue
				}
				js := jr.State().Jobs[h.ID()]
				if js == nil || !js.Terminal() {
					t.Errorf("job %d polled as %v (digest %q) while its journal state is %+v", h.ID(), st.State, st.SinkDigest, js)
				}
				return
			}
		}()
	}
	wg.Wait()
}

// TestSubmitWaitsForItsFsync: Submit is write → enqueue → sync → ack, and the
// Started record is written without a sync. With the job held in its Verify,
// the only fsync that can happen before Submit returns is the one Submit
// waited for; the terminal record's is the second and last — three appends,
// two fsyncs, none between the started and finished stamps.
func TestSubmitWaitsForItsFsync(t *testing.T) {
	s, jr, _ := syncingServer(t, service.Config{Workers: 2, MaxConcurrentJobs: 1})
	defer s.Close()
	release := make(chan struct{})
	spec := durableJob(t, "FW", 0, 1)
	verify := spec.Verify
	spec.Verify = func(res *core.Result) error { <-release; return verify(res) }

	before := jr.Stats()
	h, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := jr.Stats().Fsyncs - before.Fsyncs; got != 1 {
		t.Fatalf("%d fsyncs by the time Submit returned, want exactly its own", got)
	}
	// The job is held in Verify: once Started is written nothing more can be.
	for deadline := time.Now().Add(5 * time.Second); jr.Stats().Appends-before.Appends < 2; {
		if time.Now().After(deadline) {
			t.Fatal("Started record never written")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if a := jr.Stats(); a.Appends-before.Appends != 2 || a.Fsyncs-before.Fsyncs != 1 {
		t.Fatalf("running job: %d appends, %d fsyncs, want 2 (Submitted, Started) and 1: Started is not to be synced",
			a.Appends-before.Appends, a.Fsyncs-before.Fsyncs)
	}
	close(release)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if a := jr.Stats(); a.Appends-before.Appends != 3 || a.Fsyncs-before.Fsyncs != 2 {
		t.Fatalf("finished job: %d appends, %d fsyncs, want 3 and 2", a.Appends-before.Appends, a.Fsyncs-before.Fsyncs)
	}
}

// TestJournalTrafficPerJob: sequential jobs cost three appends and at most
// two fsyncs each (one, when the job's terminal record rode the fsync its
// own Submit was still waiting for).
func TestJournalTrafficPerJob(t *testing.T) {
	s, jr, _ := syncingServer(t, service.Config{Workers: 2, MaxConcurrentJobs: 1})
	defer s.Close()
	const jobs = 16
	before := jr.Stats()
	for i := 0; i < jobs; i++ {
		h, err := s.Submit(durableJob(t, "FW", 0, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	a := jr.Stats()
	if got := a.Appends - before.Appends; got != 3*jobs {
		t.Fatalf("%d appends for %d jobs, want %d", got, jobs, 3*jobs)
	}
	if got := a.Fsyncs - before.Fsyncs; got > 2*jobs || got < jobs {
		t.Fatalf("%d fsyncs for %d jobs, want between %d and %d", got, jobs, jobs, 2*jobs)
	}
}

// heldSpec lets a test watch one job's graph being collected.
type heldSpec struct{ graph.Spec }

// TestFinishedJobsAreReleased: a finished job is a record. After hundreds of
// jobs the live heap has not grown with their number, one job's graph is
// collected while its handle is still held, and what the handle answers —
// Status field by field, Wait with the sink — is what it answered when the
// job finished.
func TestFinishedJobsAreReleased(t *testing.T) {
	jr := openTestJournal(t, t.TempDir())
	s := service.New(service.Config{Workers: 2, MaxConcurrentJobs: 2, Journal: jr, Rebuild: rebuildTestJob, Logf: t.Logf})
	defer s.Close()
	run := func(n int) {
		for i := 0; i < n; i++ {
			h, err := s.Submit(durableJob(t, "LU", i%2, int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	collected := make(chan struct{})
	spec := durableJob(t, "LU", 2, 99)
	held := &heldSpec{spec.Spec}
	runtime.SetFinalizer(held, func(*heldSpec) { close(collected) })
	spec.Spec = held
	h, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec, held = service.JobSpec{}, nil
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	statusAtFinish := h.Status()

	run(40)
	base := liveHeap()
	const more = 260
	run(more)
	grown := int64(liveHeap()) - int64(base)
	// A job's graph, block store and task table are > 100 KB; the record
	// that stays (job, result, sink, journal state) is a few KB.
	if perJob := grown / more; perJob > 16<<10 {
		t.Fatalf("live heap grew %d bytes over %d finished jobs (%d per job): finished jobs keep their executor or graph", grown, more, perJob)
	}
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a finished job's graph.Spec is still reachable after GC")
	}

	if got := h.Status(); !reflect.DeepEqual(got, statusAtFinish) {
		t.Fatalf("status changed after release:\n got %+v\nwant %+v", got, statusAtFinish)
	}
	again, err := h.Wait()
	if err != nil || again != res || len(again.Sink) == 0 {
		t.Fatalf("Wait after release: res %p (was %p), sink of %d, err %v", again, res, len(again.Sink), err)
	}
	if got := len(s.Jobs()); got != 1+40+more {
		t.Fatalf("Jobs() lists %d, want %d", got, 1+40+more)
	}
}

// TestSubmitSyncFailure: the fsync fails after the job was enqueued. Submit
// reports the failure, the job is cancelled (the runner's Cancelled record
// reaches the journal's state) and gone from the listing, its queue slot
// comes back, and neither a later Submit nor Close hangs.
func TestSubmitSyncFailure(t *testing.T) {
	s, jr, fsys := syncingServer(t, service.Config{Workers: 2, MaxConcurrentJobs: 1, MaxQueuedJobs: 1})
	boom := errors.New("injected fsync failure")
	fsys.err.Store(&boom)
	h, err := s.Submit(service.JobSpec{Name: "doomed", Spec: slowGraph(5 * time.Millisecond), Payload: []byte(`{}`)})
	if !errors.Is(err, boom) || h != nil {
		t.Fatalf("Submit = (%v, %v), want the injected failure and no handle", h, err)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("failed submission still listed: %+v", jobs)
	}
	if _, ok := s.Job(1); ok {
		t.Fatal("failed submission still reachable by id")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if js := jr.State().Jobs[1]; js != nil && js.State == journal.Cancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the enqueued job was never cancelled: journal state %+v", jr.State().Jobs[1])
		}
		time.Sleep(time.Millisecond)
	}
	fsys.err.Store(nil)
	// The one queue slot is free again once the runner has taken the doomed
	// job off the queue, which it had to do to cancel it.
	h, err = s.Submit(durableJob(t, "FW", 0, 1))
	if err != nil {
		t.Fatalf("Submit after the fault healed: %v", err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs after a failed submission")
	}
}
