package service_test

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/harness"
	"ftdag/internal/journal"
	"ftdag/internal/service"
)

// TestReplicatedJobEndToEnd: a replicate-all job with planned SDCs must
// detect and recover every one of them, and the sink must still verify
// against the sequential reference.
func TestReplicatedJobEndToEnd(t *testing.T) {
	s := service.New(service.Config{Workers: 4, MaxConcurrentJobs: 2})
	defer s.Close()

	a, err := harness.MakeApp("LU", serviceSizes["LU"])
	if err != nil {
		t.Fatalf("building LU: %v", err)
	}
	victims := fault.SelectTasks(a.Spec(), fault.AnyTask, 3, 41)
	plan := fault.NewPlan()
	for _, k := range victims {
		plan.Add(k, fault.SDC, 1)
	}
	h, err := s.Submit(service.JobSpec{
		Name:     "LU-replicated",
		Spec:     a.Spec(),
		Recovery: service.RecoverReplicateAll,
		Plan:     plan,
		Verify:   func(res *core.Result) error { return a.VerifySink(res.Sink) },
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatalf("replicated job: %v", err)
	}
	m := res.Metrics
	if m.SDCInjected != int64(len(victims)) || m.SDCDetected != m.SDCInjected || m.SDCMissed != 0 {
		t.Fatalf("SDC accounting = %d/%d/%d (injected/detected/missed), want %d/%d/0",
			m.SDCInjected, m.SDCDetected, m.SDCMissed, len(victims), len(victims))
	}
	if m.ShadowComputes == 0 || m.ReplicatedTasks == 0 {
		t.Fatalf("no replication happened: %+v", m)
	}
	if st := h.Status(); st.Recovery != string(service.RecoverReplicateAll) {
		t.Fatalf("Status.Recovery = %q, want %q", st.Recovery, service.RecoverReplicateAll)
	}
}

// TestSelectiveRecoveryValidation: bad policy names and out-of-range budgets
// are rejected at Submit, before anything is journaled or enqueued.
func TestSelectiveRecoveryValidation(t *testing.T) {
	s := service.New(service.Config{Workers: 2, MaxConcurrentJobs: 1})
	defer s.Close()
	spec := makeAppJob(t, "FW", 0, 0)
	spec.Recovery = "triple-vote"
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("unknown recovery policy accepted")
	}
	spec = makeAppJob(t, "FW", 0, 0)
	spec.Recovery = service.RecoverReplicateSelective
	spec.ReplicaBudget = 1.5
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("out-of-range replica budget accepted")
	}
	if _, err := service.ParseRecovery(""); err != nil {
		t.Fatalf("empty policy must parse to the default: %v", err)
	}
}

// TestRecoveryPolicyJournalReplay: the per-job recovery policy round-trips
// through the write-ahead log. The payload rebuilds WITHOUT a recovery
// policy, so shadow executions on the re-run prove the journaled field won —
// the same arrangement as the fault-plan replay test.
func TestRecoveryPolicyJournalReplay(t *testing.T) {
	dir := t.TempDir()
	payload, err := json.Marshal(testPayload{App: "LU", Faults: 0, Seed: 0})
	if err != nil {
		t.Fatalf("marshal payload: %v", err)
	}
	jr := openTestJournal(t, dir)
	rec := journal.Record{
		Kind: journal.Submitted, ID: 1, Name: "LU", Payload: payload,
		Recovery: string(service.RecoverReplicateSelective), ReplicaBudget: 0.5,
	}
	if err := jr.Append(rec); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := jr.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	s := durableServer(t, dir)
	h, err := s.Job(1)
	if err != nil {
		t.Fatal("incomplete job not restored")
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if res.Metrics.ShadowComputes == 0 || res.Metrics.ReplicatedTasks == 0 {
		t.Fatalf("journaled recovery policy not applied on re-run: %+v", res.Metrics)
	}
	// Budget 0.5 must not replicate everything.
	if res.Metrics.ReplicatedTasks >= int64(res.Tasks) {
		t.Fatalf("selective budget ignored: %d of %d tasks replicated",
			res.Metrics.ReplicatedTasks, res.Tasks)
	}
	st := h.Status()
	if st.Recovery != string(service.RecoverReplicateSelective) || st.ReplicaBudget != 0.5 {
		t.Fatalf("restored status lost the policy: %+v", st)
	}
	s.Close()

	// And the policy survives a second restart on the now-terminal job.
	s2 := durableServer(t, dir)
	defer s2.Close()
	h2, err := s2.Job(1)
	if err != nil {
		t.Fatal("job lost across second restart")
	}
	if st := h2.Status(); st.Recovery != string(service.RecoverReplicateSelective) {
		t.Fatalf("terminal restored job lost the policy: %+v", st)
	}
}

// TestQueueFullRetryAfter: admission rejections carry a usable backpressure
// hint and still satisfy errors.Is(err, ErrQueueFull).
func TestQueueFullRetryAfter(t *testing.T) {
	s := service.New(service.Config{Workers: 2, MaxConcurrentJobs: 1, MaxQueuedJobs: 1})
	defer s.Close()
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	blocker := makeAppJob(t, "FW", 0, 0)
	blocker.Verify = func(*core.Result) error { <-release; return nil }
	hb, err := s.Submit(blocker)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hb.Status().State != service.Running {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(makeAppJob(t, "FW", 0, 1)); err != nil {
		t.Fatalf("queue slot submit: %v", err)
	}
	_, err = s.Submit(makeAppJob(t, "FW", 0, 2))
	if err == nil {
		t.Fatal("over-capacity submit accepted")
	}
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("errors.Is(ErrQueueFull) broken: %v", err)
	}
	var qf *service.QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("error is not a QueueFullError: %T %v", err, err)
	}
	if qf.RetryAfter < time.Second || qf.RetryAfter > time.Minute {
		t.Fatalf("RetryAfter %v outside [1s, 60s]", qf.RetryAfter)
	}
	close(release)
}
