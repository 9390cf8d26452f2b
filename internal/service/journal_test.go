package service_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/harness"
	"ftdag/internal/journal"
	"ftdag/internal/service"
)

// testPayload is the opaque job description the durable-service tests
// persist with each submission, mirroring how cmd/ftserve journals its
// request JSON.
type testPayload struct {
	App    string `json:"app"`
	Faults int    `json:"faults"`
	Seed   int64  `json:"seed"`
}

// rebuildTestJob is the Config.Rebuild used across restarts: payload JSON
// back to a runnable JobSpec whose Verify checks the sink against the
// sequential reference.
func rebuildTestJob(payload []byte) (service.JobSpec, error) {
	var p testPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return service.JobSpec{}, err
	}
	a, err := harness.MakeApp(p.App, serviceSizes[p.App])
	if err != nil {
		return service.JobSpec{}, err
	}
	var plan *fault.Plan
	if p.Faults > 0 {
		plan = fault.PlanCount(a.Spec(), fault.AnyTask, fault.AfterCompute, p.Faults, p.Seed)
	}
	return service.JobSpec{
		Name:      p.App,
		Spec:      a.Spec(),
		Retention: a.Retention(),
		Plan:      plan,
		Verify:    func(res *core.Result) error { return a.VerifySink(res.Sink) },
	}, nil
}

// durableJob builds a submittable JobSpec carrying its own payload, so the
// same job can be rebuilt by rebuildTestJob after a restart.
func durableJob(t *testing.T, app string, faults int, seed int64) service.JobSpec {
	t.Helper()
	payload, err := json.Marshal(testPayload{App: app, Faults: faults, Seed: seed})
	if err != nil {
		t.Fatalf("marshal payload: %v", err)
	}
	spec, err := rebuildTestJob(payload)
	if err != nil {
		t.Fatalf("building %s: %v", app, err)
	}
	spec.Payload = payload
	return spec
}

func openTestJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	jr, err := journal.Open(journal.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return jr
}

func durableServer(t *testing.T, dir string) *service.Server {
	t.Helper()
	return service.New(service.Config{
		Workers:           4,
		MaxConcurrentJobs: 2,
		Journal:           openTestJournal(t, dir),
		Rebuild:           rebuildTestJob,
		Logf:              t.Logf,
	})
}

// TestJournalDurableLifecycle: completed jobs survive a clean restart —
// state, sink digest, and metrics come back queryable, job numbering
// continues after the journaled maximum.
func TestJournalDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir)
	type outcome struct {
		id     int64
		digest string
		tasks  int
	}
	var outs []outcome
	for _, app := range []string{"LU", "FW"} {
		for _, faults := range []int{0, 2} {
			h, err := s.Submit(durableJob(t, app, faults, 31))
			if err != nil {
				t.Fatalf("submit %s: %v", app, err)
			}
			if _, err := h.Wait(); err != nil {
				t.Fatalf("job %d (%s): %v", h.ID(), app, err)
			}
			st := h.Status()
			if st.SinkDigest == "" {
				t.Fatalf("job %d: no sink digest on success", h.ID())
			}
			outs = append(outs, outcome{h.ID(), st.SinkDigest, st.Tasks})
		}
	}
	s.Close()

	s2 := durableServer(t, dir)
	defer s2.Close()
	for _, o := range outs {
		h, ok := s2.Job(o.id)
		if !ok {
			t.Fatalf("job %d lost across restart", o.id)
		}
		st := h.Status()
		if st.State != service.Succeeded {
			t.Fatalf("job %d restored as %v, want succeeded", o.id, st.State)
		}
		if !st.Restored {
			t.Fatalf("job %d not marked restored", o.id)
		}
		if st.SinkDigest != o.digest {
			t.Fatalf("job %d digest drifted across restart: %s != %s", o.id, st.SinkDigest, o.digest)
		}
		if st.Tasks != o.tasks {
			t.Fatalf("job %d task count drifted: %d != %d", o.id, st.Tasks, o.tasks)
		}
		// The sink data itself is not journaled; Wait must still return.
		if res, err := h.Wait(); err != nil || res == nil {
			t.Fatalf("job %d restored Wait: res=%v err=%v", o.id, res, err)
		}
	}
	// Numbering continues after the journaled maximum.
	h, err := s2.Submit(durableJob(t, "LU", 0, 1))
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if want := outs[len(outs)-1].id + 1; h.ID() != want {
		t.Fatalf("post-restart id = %d, want %d", h.ID(), want)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatalf("post-restart job: %v", err)
	}
}

// TestJournalReenqueueIncomplete: a job that was journaled Submitted/Started
// but never finished (a crash) is rebuilt and re-run on the next boot, and
// the journaled fault plan — not the rebuilt one — governs the re-run.
func TestJournalReenqueueIncomplete(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(testPayload{App: "LU", Faults: 0, Seed: 0})
	// Journal a plan manifest alongside a payload that rebuilds WITHOUT
	// faults: injections firing proves the journaled plan won.
	spec := durableJob(t, "LU", 3, 77)
	planJSON, err := json.Marshal(spec.Plan)
	if err != nil {
		t.Fatalf("marshal plan: %v", err)
	}
	jr := openTestJournal(t, dir)
	must := func(rec journal.Record) {
		t.Helper()
		if err := jr.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	must(journal.Record{Kind: journal.Submitted, ID: 1, Name: "LU", Payload: payload, Plan: planJSON})
	must(journal.Record{Kind: journal.Started, ID: 1})
	must(journal.Record{Kind: journal.Submitted, ID: 2, Name: "FW", Payload: mustPayload(t, "FW", 1, 5)})
	if err := jr.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	s := durableServer(t, dir)
	defer s.Close()
	for id := int64(1); id <= 2; id++ {
		h, ok := s.Job(id)
		if !ok {
			t.Fatalf("incomplete job %d not restored", id)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("re-run job %d: %v", id, err)
		}
		if st := h.Status(); st.State != service.Succeeded || !st.Restored {
			t.Fatalf("job %d: state %v restored %v", id, st.State, st.Restored)
		}
		if id == 1 && res.Metrics.InjectionsFired == 0 {
			t.Fatalf("journaled fault plan was not applied on re-run")
		}
	}
}

func mustPayload(t *testing.T, app string, faults int, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(testPayload{App: app, Faults: faults, Seed: seed})
	if err != nil {
		t.Fatalf("marshal payload: %v", err)
	}
	return b
}

// TestJournalUnrebuildableFails: an incomplete job without a usable payload
// is restored Failed — visibly and durably, not silently dropped and not
// retried forever.
func TestJournalUnrebuildableFails(t *testing.T) {
	dir := t.TempDir()
	jr := openTestJournal(t, dir)
	if err := jr.Append(journal.Record{Kind: journal.Submitted, ID: 1, Name: "ghost"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := jr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s := durableServer(t, dir)
	h, ok := s.Job(1)
	if !ok {
		t.Fatalf("unrebuildable job not listed")
	}
	_, err := h.Wait()
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("want payload error, got %v", err)
	}
	if st := h.Status(); st.State != service.Failed {
		t.Fatalf("state %v, want failed", st.State)
	}
	s.Close()

	// The failure itself was journaled: the next incarnation sees a
	// terminal job, not another rebuild attempt.
	jr2 := openTestJournal(t, dir)
	defer jr2.Close()
	js := jr2.State().Jobs[1]
	if js == nil || js.State != journal.Failed {
		t.Fatalf("failure not durable: %+v", js)
	}
}

// TestShutdownDrains: Shutdown with no grace bound finishes every admitted
// job, journals the outcomes, and a restart sees only terminal jobs.
func TestShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir)
	var ids []int64
	for i := 0; i < 4; i++ {
		h, err := s.Submit(durableJob(t, "FW", i%2, int64(i)))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, h.ID())
	}
	s.Shutdown(0)
	jr := openTestJournal(t, dir)
	defer jr.Close()
	st := jr.State()
	for _, id := range ids {
		js := st.Jobs[id]
		if js == nil || js.State != journal.Succeeded {
			t.Fatalf("job %d after drain: %+v", id, js)
		}
		if js.SinkDigest == "" {
			t.Fatalf("job %d drained without digest", id)
		}
	}
}

// TestShutdownGraceExpiry: jobs still in flight when the grace period
// expires are aborted WITHOUT terminal journal records — the next
// incarnation re-enqueues and completes them.
func TestShutdownGraceExpiry(t *testing.T) {
	dir := t.TempDir()
	jr := openTestJournal(t, dir)
	release := make(chan struct{})
	s := service.New(service.Config{
		Workers:           2,
		MaxConcurrentJobs: 1,
		Journal:           jr,
		Rebuild:           rebuildTestJob,
		Logf:              t.Logf,
	})
	// Two jobs finish (and are released) before the shutdown: they must stay
	// terminal in the journal and out of the aborted set.
	var finished []int64
	for i := 0; i < 2; i++ {
		h, err := s.Submit(durableJob(t, "FW", i, int64(10+i)))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatalf("job %d: %v", h.ID(), err)
		}
		finished = append(finished, h.ID())
	}
	blocker := durableJob(t, "LU", 0, 3)
	blocker.Verify = func(*core.Result) error { <-release; return nil }
	hb, err := s.Submit(blocker)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hb.Status().State != service.Running {
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	var queued []int64
	for i := 0; i < 3; i++ {
		h, err := s.Submit(durableJob(t, "FW", 0, int64(i)))
		if err != nil {
			t.Fatalf("submit queued: %v", err)
		}
		queued = append(queued, h.ID())
	}
	done := make(chan struct{})
	go func() { s.Shutdown(50 * time.Millisecond); close(done) }()
	time.Sleep(300 * time.Millisecond) // let the grace expire and abort fire
	close(release)
	<-done

	// Every job must be incomplete in the journal: the blocker had
	// Started, the queued ones only Submitted.
	jr2 := openTestJournal(t, dir)
	st := jr2.State()
	for _, id := range append([]int64{hb.ID()}, queued...) {
		js := st.Jobs[id]
		if js == nil {
			t.Fatalf("job %d missing from journal", id)
		}
		if js.Terminal() {
			t.Fatalf("shutdown-aborted job %d journaled terminal (%v)", id, js.State)
		}
	}
	for _, id := range finished {
		if js := st.Jobs[id]; js == nil || js.State != journal.Succeeded || js.SinkDigest == "" {
			t.Fatalf("job %d finished before the shutdown, journal has %+v", id, js)
		}
	}

	// The next incarnation re-runs all of them to success.
	s2 := service.New(service.Config{
		Workers:           2,
		MaxConcurrentJobs: 2,
		Journal:           jr2,
		Rebuild:           rebuildTestJob,
		Logf:              t.Logf,
	})
	defer s2.Close()
	for _, id := range append([]int64{hb.ID()}, queued...) {
		h, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %d not re-enqueued", id)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatalf("re-run job %d: %v", id, err)
		}
	}
}
