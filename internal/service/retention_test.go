package service_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/service"
)

// noSyncFS is the OS file layer with every sync skipped: the retention
// tests run thousands of jobs and check what the files hold, not when it
// reached the disk.
type noSyncFS struct{ journal.FS }

type noSyncFile struct{ journal.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) Create(name string) (journal.File, error) { return noSync(f.FS.Create(name)) }
func (f noSyncFS) Append(name string) (journal.File, error) { return noSync(f.FS.Append(name)) }
func (noSyncFS) SyncDir(string) error                       { return nil }

func noSync(f journal.File, err error) (journal.File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// durableFields is what a finished job's Status carries from its terminal
// record, and so reads the same before and after a restart.
type durableFields struct {
	ID              int64
	Name            string
	State           service.State
	Error           string
	Tasks           int
	ReexecutedTasks int64
	SinkDigest      string
	Metrics         core.Metrics
}

func durable(st service.Status) durableFields {
	return durableFields{st.ID, st.Name, st.State, st.Error, st.Tasks, st.ReexecutedTasks, st.SinkDigest, *st.Metrics}
}

// TestRetentionWindow: the table keeps the live jobs and the last
// journal.KeepFinished to finish, the journal's state the same count, and
// the snapshot stays the same size as jobs go by. A job inside the window
// reads the same before and after a restart, one outside it reads expired
// both times, and a restarted server numbers on after every ID it handed
// out.
func TestRetentionWindow(t *testing.T) {
	const n = journal.KeepFinished
	dir := t.TempDir()
	var jr *journal.Journal
	var s *service.Server
	boot := func() {
		var err error
		jr, err = journal.Open(journal.Options{Dir: dir, FS: noSyncFS{journal.OS}, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		s = service.New(service.Config{Workers: 2, MaxConcurrentJobs: 2, Journal: jr, Rebuild: rebuildTestJob, Logf: t.Logf})
	}
	run := func(jobs int) {
		for i := 0; i < jobs; i++ {
			h, err := s.Submit(service.JobSpec{Name: "trivial", Spec: graph.Chain(2, nil), Payload: []byte(`{}`)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// closeAndMeasure checks the table against the journal's state, closes
	// the server and returns the bytes of the snapshot Close wrote.
	closeAndMeasure := func(total int) int64 {
		t.Helper()
		if got, inJournal := len(s.Jobs()), len(jr.State().Jobs); got != n || inJournal != n {
			t.Fatalf("after %d jobs: Jobs() lists %d, the journal's state holds %d; want %d", total, got, inJournal, n)
		}
		s.Close()
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("no snapshot after Close: %v", err)
		}
		fi, err := os.Stat(snaps[len(snaps)-1])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	expired := func(id int64, when string) {
		t.Helper()
		if _, err := s.Job(id); !errors.Is(err, service.ErrExpired) {
			t.Fatalf("%s: job %d answers %v, want it expired", when, id, err)
		}
	}

	boot()
	run(2 * n)
	inside, err := s.Job(2 * n)
	if err != nil {
		t.Fatal(err)
	}
	before := durable(inside.Status())
	expired(1, "before the restart")
	expired(n, "before the restart")
	if _, err := s.Job(2*n + 1); !errors.Is(err, service.ErrNoJob) {
		t.Fatalf("an ID never handed out answers %v, want ErrNoJob", err)
	}
	snap2n := closeAndMeasure(2 * n)

	boot()
	expired(1, "after the restart")
	expired(n, "after the restart")
	h, err := s.Job(2 * n)
	if err != nil {
		t.Fatalf("job %d inside the window after the restart: %v", 2*n, err)
	}
	if after := durable(h.Status()); !reflect.DeepEqual(after, before) {
		t.Fatalf("job %d read\n%+v\nbefore the restart and\n%+v\nafter it", 2*n, before, after)
	}
	first, err := s.Submit(service.JobSpec{Name: "trivial", Spec: graph.Chain(2, nil), Payload: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if first.ID() != 2*n+1 {
		t.Fatalf("first job after the restart got ID %d, want %d", first.ID(), 2*n+1)
	}
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	run(n - 1)
	snap3n := closeAndMeasure(3 * n)
	if d := float64(snap3n-snap2n) / float64(snap2n); d > 0.05 || d < -0.05 {
		t.Fatalf("snapshot of %d bytes after %d jobs, %d after %d: not flat", snap2n, 2*n, snap3n, 3*n)
	}

	boot()
	defer s.Close()
	expired(2*n, "after the second restart")
	if snap := s.Snapshot(); snap.Succeeded != n || snap.Queued != 0 || snap.Running != 0 {
		t.Fatalf("restored snapshot counts %+v, want %d succeeded and nothing live", snap, n)
	}
}

// BenchmarkHundredThousandJobs runs 10⁵ trivial jobs, one after another,
// through a durable server whose journal does not fsync, and reports what
// they leave behind: the live heap, the bytes of the snapshot Close writes,
// and the time of one Jobs() at the end. Run it once:
//
//	go test -run '^$' -bench HundredThousandJobs -benchtime 1x ./internal/service
func BenchmarkHundredThousandJobs(b *testing.B) {
	const jobs = 100000
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		jr, err := journal.Open(journal.Options{Dir: dir, FS: noSyncFS{journal.OS}, Logf: b.Logf})
		if err != nil {
			b.Fatal(err)
		}
		s := service.New(service.Config{Workers: 2, MaxConcurrentJobs: 2, Journal: jr, Logf: b.Logf})
		for k := 1; k <= jobs; k++ {
			h, err := s.Submit(service.JobSpec{Name: "trivial", Spec: graph.Chain(2, nil), Payload: []byte(`{}`)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Wait(); err != nil {
				b.Fatal(err)
			}
			if k%20000 == 0 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				b.Logf("%6d jobs: live heap %.1f MB", k, float64(m.HeapAlloc)/1e6)
			}
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		start := time.Now()
		listed := len(s.Jobs())
		took := time.Since(start)
		s.Close()
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil || len(snaps) == 0 {
			b.Fatalf("no snapshot after Close: %v", err)
		}
		fi, err := os.Stat(snaps[len(snaps)-1])
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("Jobs() listed %d", listed)
		b.ReportMetric(float64(m.HeapAlloc)/1e6, "heap_MB")
		b.ReportMetric(float64(fi.Size()), "snapshot_bytes")
		b.ReportMetric(float64(took.Microseconds())/1e3, "jobs_ms")
	}
}
