package service

import (
	"errors"
	"testing"
	"time"

	"ftdag/internal/graph"
	"ftdag/internal/journal"
)

// TestDrainMigratesIncompleteJobs: a drain lets finishable jobs finish,
// checkpoints the blocked ones incomplete (no terminal journal record) and
// reports their IDs, and rejects new admissions with ErrDraining while
// keeping status queries live.
func TestDrainMigratesIncompleteJobs(t *testing.T) {
	dir := t.TempDir()
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, MaxConcurrentJobs: 2, Journal: jr, Rebuild: func(p []byte) (JobSpec, error) {
		return JobSpec{Spec: graph.Chain(2, nil)}, nil
	}})

	// One job that finishes instantly, one that blocks until released.
	release := make(chan struct{})
	quick, err := srv.Submit(JobSpec{Name: "quick", Spec: graph.Chain(2, nil), Payload: []byte(`{"job":"quick"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quick.Wait(); err != nil {
		t.Fatal(err)
	}
	blocked, err := srv.Submit(JobSpec{
		Name: "blocked",
		Spec: graph.Chain(3, func(key graph.Key, vals [][]float64) []float64 {
			if key == 1 {
				<-release
			}
			return []float64{float64(key)}
		}),
		Recovery:      RecoverReplicateSelective,
		ReplicaBudget: 0.5,
		Payload:       []byte(`{"job":"blocked"}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for blocked.Status().State != Running {
		if time.Now().After(deadline) {
			t.Fatal("blocked job never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Cancellation is cooperative (between tasks), so the gated compute must
	// be released for the aborted run to return. Open the gate only after
	// the 1ms grace has long expired and the abort flag is set, so the job
	// is deterministically checkpointed incomplete rather than completing.
	go func() {
		for !srv.Draining() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	res := srv.Drain(time.Millisecond)
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if res.Completed != 0 {
		// quick was already terminal before the drain began, so it is not
		// counted; only blocked was in flight.
		t.Fatalf("Completed = %d, want 0 (in-flight only)", res.Completed)
	}
	if len(res.Incomplete) != 1 || res.Incomplete[0] != blocked.ID() {
		t.Fatalf("Incomplete = %v, want the blocked job's ID %d", res.Incomplete, blocked.ID())
	}

	// The aborted job is Cancelled in memory but must stay incomplete in
	// the journal (no terminal record), with what a restart re-runs it from.
	if st := blocked.Status(); st.State != Cancelled {
		t.Fatalf("blocked state = %v, want cancelled", st.State)
	}
	js := jr.State().Jobs[blocked.ID()]
	if js == nil || js.Terminal() {
		t.Fatalf("journal state for blocked = %+v, want incomplete", js)
	}
	if string(js.Payload) != `{"job":"blocked"}` || js.Recovery != string(RecoverReplicateSelective) || js.ReplicaBudget != 0.5 {
		t.Fatalf("journal lost the blocked job's identity: %+v", js)
	}
	// Both jobs are records now: executor, graph and payload released.
	for _, h := range []*Handle{quick, blocked} {
		if j := h.j; j.exec != nil || j.spec.Spec != nil || j.spec.Plan != nil || j.spec.Verify != nil || j.spec.Payload != nil {
			t.Fatalf("finished job %q still holds its executor, graph or payload", j.spec.Name)
		}
	}
	if st := quick.Status(); st.State != Succeeded || st.Name != "quick" || st.SinkDigest == "" {
		t.Fatalf("released job's status = %+v", st)
	}

	// Admission is closed, queries are not.
	if _, err := srv.Submit(JobSpec{Spec: graph.Chain(2, nil)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
	if got := len(srv.Jobs()); got != 2 {
		t.Fatalf("Jobs() after drain = %d entries, want 2", got)
	}
	// A second drain finds nothing in flight.
	if res2 := srv.Drain(time.Millisecond); res2.Completed != 0 || len(res2.Incomplete) != 0 {
		t.Fatalf("second drain = %+v, want empty", res2)
	}
	srv.Close()
}

// TestDrainFullGraceCompletes: with no blockage, Drain waits out the work
// and reports it completed with nothing to migrate.
func TestDrainFullGraceCompletes(t *testing.T) {
	srv := New(Config{Workers: 2, MaxConcurrentJobs: 2})
	slow := graph.Chain(4, func(key graph.Key, vals [][]float64) []float64 {
		time.Sleep(2 * time.Millisecond)
		return []float64{1}
	})
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(JobSpec{Spec: slow}); err != nil {
			t.Fatal(err)
		}
	}
	res := srv.Drain(0) // unbounded grace: full drain
	if res.Completed != 3 || len(res.Incomplete) != 0 {
		t.Fatalf("drain = %+v, want 3 completed / 0 incomplete", res)
	}
	for _, st := range srv.Jobs() {
		if st.State != Succeeded {
			t.Fatalf("job %d = %v, want succeeded", st.ID, st.State)
		}
	}
	srv.Close()
}
