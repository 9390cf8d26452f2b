package service_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/harness"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// serviceSizes are tiny per-app configurations: big enough for hundreds of
// tasks per graph, small enough for a ten-job multi-tenant test to stay
// fast.
var serviceSizes = map[string]apps.Config{
	"LCS":      {N: 128, B: 16, Seed: 11},
	"SW":       {N: 128, B: 16, Seed: 12},
	"FW":       {N: 64, B: 16, Seed: 13},
	"LU":       {N: 96, B: 16, Seed: 14},
	"Cholesky": {N: 96, B: 16, Seed: 15},
}

// makeAppJob builds a fresh instance of the named benchmark and a JobSpec
// that verifies its sink against the sequential reference.
func makeAppJob(t *testing.T, name string, faults int, seed int64) service.JobSpec {
	t.Helper()
	a, err := harness.MakeApp(name, serviceSizes[name])
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	var plan *fault.Plan
	if faults > 0 {
		plan = fault.PlanCount(a.Spec(), fault.AnyTask, fault.AfterCompute, faults, seed)
	}
	return service.JobSpec{
		Name:      name,
		Spec:      a.Spec(),
		Retention: a.Retention(),
		Plan:      plan,
		Verify:    func(res *core.Result) error { return a.VerifySink(res.Sink) },
	}
}

// TestServerMultiTenantTheorem1 drives ten concurrent jobs — all five app
// kernels, each once fault-free and once under an after-compute fault plan —
// through one Server and verifies every sink against the sequential
// reference: Theorem 1 (fault-free-equivalent results) holds under
// multi-tenancy on a shared pool.
func TestServerMultiTenantTheorem1(t *testing.T) {
	s := service.New(service.Config{Workers: 4, MaxConcurrentJobs: 4, MaxQueuedJobs: 32})
	names := []string{"LCS", "SW", "FW", "LU", "Cholesky"}
	type sub struct {
		name    string
		faulted bool
		h       *service.Handle
	}
	var subs []sub
	for i, name := range names {
		for _, faults := range []int{0, 3} {
			h, err := s.Submit(makeAppJob(t, name, faults, int64(100+i)))
			if err != nil {
				t.Fatalf("submit %s: %v", name, err)
			}
			subs = append(subs, sub{name, faults > 0, h})
		}
	}
	if len(subs) < 8 {
		t.Fatalf("want >= 8 concurrent jobs, have %d", len(subs))
	}
	injected := int64(0)
	for _, sb := range subs {
		res, err := sb.h.Wait()
		if err != nil {
			t.Fatalf("job %d (%s, faulted=%v): %v", sb.h.ID(), sb.name, sb.faulted, err)
		}
		if st := sb.h.Status(); st.State != service.Succeeded {
			t.Fatalf("job %d state = %v, want succeeded", sb.h.ID(), st.State)
		}
		if sb.faulted {
			if res.Metrics.InjectionsFired == 0 {
				t.Errorf("job %d (%s): fault plan fired no injections", sb.h.ID(), sb.name)
			}
			if res.Metrics.Recoveries == 0 {
				t.Errorf("job %d (%s): injections fired but no recoveries", sb.h.ID(), sb.name)
			}
			injected += res.Metrics.InjectionsFired
		}
	}
	snap := s.Snapshot()
	if snap.Succeeded != len(subs) {
		t.Errorf("snapshot succeeded = %d, want %d", snap.Succeeded, len(subs))
	}
	if snap.Totals.InjectionsFired != injected {
		t.Errorf("snapshot injection total = %d, want %d", snap.Totals.InjectionsFired, injected)
	}
	if stats := s.Close(); stats.Jobs == 0 {
		t.Error("pool executed no jobs")
	}
}

// slowGraph is a layered DAG whose every task sleeps, so jobs stay in flight
// long enough to be cancelled or to blow a deadline.
func slowGraph(d time.Duration) *graph.Static {
	return graph.Layered(3, 4, 2, 42, func(key graph.Key, vals [][]float64) []float64 {
		time.Sleep(d)
		return []float64{float64(key)}
	})
}

// TestServerCancellationIsLocalized cancels one running job (and deadlines a
// second) while healthy jobs share the same pool; only the targeted jobs
// abort, the rest complete and verify.
func TestServerCancellationIsLocalized(t *testing.T) {
	s := service.New(service.Config{Workers: 4, MaxConcurrentJobs: 4, MaxQueuedJobs: 16})
	defer s.Close()

	victim, err := s.Submit(service.JobSpec{Name: "victim", Spec: slowGraph(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	deadlined, err := s.Submit(service.JobSpec{
		Name:     "deadlined",
		Spec:     slowGraph(5 * time.Millisecond),
		Deadline: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bystanders := []*service.Handle{}
	for i := 0; i < 2; i++ {
		h, err := s.Submit(makeAppJob(t, "LU", 2, int64(200+i)))
		if err != nil {
			t.Fatal(err)
		}
		bystanders = append(bystanders, h)
	}

	time.Sleep(2 * time.Millisecond) // let the victim start
	victim.Cancel()
	if _, err := victim.Wait(); !errors.Is(err, core.ErrCancelled) {
		t.Errorf("victim error = %v, want ErrCancelled", err)
	}
	if st := victim.Status(); st.State != service.Cancelled {
		t.Errorf("victim state = %v, want cancelled", st.State)
	}
	if _, err := deadlined.Wait(); !errors.Is(err, service.ErrDeadlineExceeded) {
		t.Errorf("deadlined error = %v, want ErrDeadlineExceeded", err)
	}
	for i, h := range bystanders {
		if _, err := h.Wait(); err != nil {
			t.Errorf("bystander %d failed alongside a cancellation: %v", i, err)
		}
	}
}

// TestServerAdmissionControl fills the single runner with a gated job and
// the bounded queue behind it; the next Submit must be rejected with
// ErrQueueFull and counted, and everything admitted must still drain once
// the gate opens.
func TestServerAdmissionControl(t *testing.T) {
	s := service.New(service.Config{Workers: 1, MaxConcurrentJobs: 1, MaxQueuedJobs: 2})

	gate := make(chan struct{})
	var gateOnce sync.Once
	blocked := graph.NewStatic(func(key graph.Key, vals [][]float64) []float64 {
		gateOnce.Do(func() { <-gate })
		return []float64{1}
	})
	blocked.AddTaskAuto(0).SetSink(0)

	var handles []*service.Handle
	h, err := s.Submit(service.JobSpec{Name: "gated", Spec: blocked})
	if err != nil {
		t.Fatal(err)
	}
	handles = append(handles, h)
	// Wait until the runner has dequeued the gated job so the queue is
	// empty again, making the admission arithmetic below deterministic.
	for i := 0; ; i++ {
		if st := h.Status(); st.State == service.Running {
			break
		}
		if i > 1000 {
			t.Fatal("gated job never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		h, err := s.Submit(service.JobSpec{Name: "queued", Spec: graph.Diamond(nil)})
		if err != nil {
			t.Fatalf("admitting job %d into a queue of 2: %v", i, err)
		}
		handles = append(handles, h)
	}
	if _, err := s.Submit(service.JobSpec{Name: "overflow", Spec: graph.Diamond(nil)}); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	if snap := s.Snapshot(); snap.Rejected != 1 {
		t.Errorf("snapshot rejected = %d, want 1", snap.Rejected)
	}
	close(gate)
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Errorf("admitted job %d: %v", i, err)
		}
	}
	s.Close()
}

// TestServerCloseCancelsQueued: Close reaches every admitted job — queued
// jobs end Cancelled rather than dangling.
func TestServerCloseCancelsQueued(t *testing.T) {
	s := service.New(service.Config{Workers: 1, MaxConcurrentJobs: 1, MaxQueuedJobs: 8})
	slow, err := s.Submit(service.JobSpec{Name: "slow", Spec: slowGraph(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	var queued []*service.Handle
	for i := 0; i < 3; i++ {
		h, err := s.Submit(service.JobSpec{Name: "queued", Spec: slowGraph(2 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}
	s.Close()
	if _, err := s.Submit(service.JobSpec{Name: "late", Spec: graph.Diamond(nil)}); !errors.Is(err, service.ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
	for _, h := range append(queued, slow) {
		if st := h.Status(); !st.State.Terminal() {
			t.Errorf("job %d state %v not terminal after Close", h.ID(), st.State)
		}
	}
}

// TestServerPerJobTrace: after completion a job's lifecycle is in the
// server's span ring under the trace its handle names, one compute span per
// compute the job's metrics count.
func TestServerPerJobTrace(t *testing.T) {
	tracer := trace.NewSpans("test", 256)
	s := service.New(service.Config{Workers: 2, MaxConcurrentJobs: 2, Tracer: tracer})
	defer s.Close()
	h, err := s.Submit(service.JobSpec{Name: "traced", Spec: graph.Diamond(nil)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Span().Valid() {
		t.Fatal("job admitted by a traced server has no trace context")
	}
	names := map[string]int64{}
	for _, sp := range tracer.ForTrace(h.Span().Trace) {
		if sp.Job == h.ID() {
			names[sp.Name]++
		}
	}
	if names["compute"] != res.Metrics.Computes || names["submit"] != 1 || names["job-run"] != 1 {
		t.Errorf("job's spans by name %v; want %d computes, one submit and one job-run", names, res.Metrics.Computes)
	}
}
