package service_test

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftdag/internal/block"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
)

// counterFamilies are the executor and block-store counter families, each
// with the per-job count it sums.
var counterFamilies = map[string]func(core.Metrics, block.Stats) int64{
	"ftdag_tasks_computed_total":          func(m core.Metrics, _ block.Stats) int64 { return m.Computes },
	"ftdag_compute_errors_total":          func(m core.Metrics, _ block.Stats) int64 { return m.ComputeErrors },
	"ftdag_recoveries_total":              func(m core.Metrics, _ block.Stats) int64 { return m.Recoveries },
	"ftdag_resets_total":                  func(m core.Metrics, _ block.Stats) int64 { return m.Resets },
	"ftdag_notifications_total":           func(m core.Metrics, _ block.Stats) int64 { return m.Notifications },
	"ftdag_injections_fired_total":        func(m core.Metrics, _ block.Stats) int64 { return m.InjectionsFired },
	"ftdag_replicated_tasks_total":        func(m core.Metrics, _ block.Stats) int64 { return m.ReplicatedTasks },
	"ftdag_shadow_computes_total":         func(m core.Metrics, _ block.Stats) int64 { return m.ShadowComputes },
	"ftdag_sdc_injected_total":            func(m core.Metrics, _ block.Stats) int64 { return m.SDCInjected },
	"ftdag_sdc_detected_total":            func(m core.Metrics, _ block.Stats) int64 { return m.SDCDetected },
	"ftdag_sdc_missed_total":              func(m core.Metrics, _ block.Stats) int64 { return m.SDCMissed },
	"ftdag_block_evictions_total":         func(_ core.Metrics, b block.Stats) int64 { return b.Evictions },
	"ftdag_block_corrupt_reads_total":     func(_ core.Metrics, b block.Stats) int64 { return b.CorruptReads - b.ChecksumFailures },
	"ftdag_block_checksum_failures_total": func(_ core.Metrics, b block.Stats) int64 { return b.ChecksumFailures },
}

// familyValues gathers r's counter families by name.
func familyValues(r *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.Gather() {
		if _, ok := counterFamilies[s.Name]; ok {
			out[s.Name] = s.Value
		}
	}
	return out
}

// TestRegistryIsTheJobsSum runs concurrent jobs — after- and before-compute
// faults, selective replication, a job whose Verify fails and one cancelled
// mid-compute — while a goroutine scrapes the registry throughout. No
// executor or block family ever goes down between scrapes, and at the end
// each equals the sum of the jobs' own counts: Result.Metrics and
// Result.Store, and for the cancelled job its counts when it was cancelled.
// The compute-latency histogram, read from the executors' per-worker shards,
// counts every compute but the cancelled job's, which returns only after its
// job has ended.
func TestRegistryIsTheJobsSum(t *testing.T) {
	reg := metrics.NewRegistry()
	s := service.New(service.Config{Workers: 4, MaxConcurrentJobs: 4, MaxQueuedJobs: 32, Registry: reg})
	defer s.Close()
	if len(familyValues(reg)) != len(counterFamilies) {
		t.Fatalf("registry serves %v, want every family of %v", familyValues(reg), counterFamilies)
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	var scrapes int
	var decreased []string
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		last := familyValues(reg)
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := familyValues(reg)
			for name, v := range now {
				if v < last[name] {
					decreased = append(decreased, name)
				}
			}
			last = now
			scrapes++
		}
	}()

	// The cancelled job: its one task blocks in its compute until the job has
	// been cancelled, so its counts stand still from the moment it is running
	// until the service learns its outcome. The compute then writes its
	// output, which the job's counts take and the registry does not.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	blocked, err := s.Submit(service.JobSpec{Name: "cancelled", Spec: graph.Chain(1, func(graph.Key, [][]float64) []float64 {
		<-gate
		return []float64{1}
	})})
	if err != nil {
		t.Fatal(err)
	}

	var jobs []service.JobSpec
	before := makeAppJob(t, "LU", 0, 0)
	before.Plan = fault.PlanCount(before.Spec, fault.AnyTask, fault.BeforeCompute, 3, 21)
	selective := makeAppJob(t, "Cholesky", 2, 22)
	selective.Recovery, selective.ReplicaBudget = service.RecoverReplicateSelective, 0.3
	checked := makeAppJob(t, "SW", 3, 23)
	checked.VerifyChecksums = true
	rejected := makeAppJob(t, "FW", 2, 24)
	rejected.Verify = func(*core.Result) error { return errors.New("rejected") }
	jobs = append(jobs, makeAppJob(t, "LCS", 3, 20), before, selective, checked, rejected, makeAppJob(t, "LU", 0, 0))
	var hs []*service.Handle
	for _, spec := range jobs {
		h, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Name, err)
		}
		hs = append(hs, h)
	}

	var m core.Metrics
	var b block.Stats
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := blocked.Status(); st.State == service.Running && st.Metrics != nil && st.Metrics.Computes == 1 {
			m.Add(*st.Metrics)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the gated job never reached its compute: %+v", blocked.Status())
		}
	}
	blocked.Cancel()
	if _, err := blocked.Wait(); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("gated job: %v, want cancelled", err)
	}
	release()
	for i, h := range hs {
		res, err := h.Wait()
		if (err != nil) != (jobs[i].Name == "FW") {
			t.Fatalf("job %s: %v", jobs[i].Name, err)
		}
		m.Add(res.Metrics)
		b.Add(res.Store)
	}
	close(stop)
	scraper.Wait()
	timedComputes(t, reg, m.Computes-1, "at the end")

	if len(decreased) > 0 || scrapes < 2 {
		t.Fatalf("%d scrapes; families that went down between two: %v", scrapes, decreased)
	}
	if m.InjectionsFired == 0 || m.ShadowComputes == 0 || b.Evictions == 0 {
		t.Fatalf("the jobs exercised too little: %+v %+v", m, b)
	}
	for name, v := range familyValues(reg) {
		if want := counterFamilies[name](m, b); v != float64(want) {
			t.Errorf("%s = %v, want the jobs' sum %d", name, v, want)
		}
	}
}

// timedComputes fails t unless the registry's compute-latency histogram has
// counted want computes.
func timedComputes(t *testing.T, reg *metrics.Registry, want int64, when string) {
	t.Helper()
	if got, _ := reg.Value("ftdag_compute_latency_seconds_count"); got != float64(want) {
		t.Fatalf("%s: ftdag_compute_latency_seconds_count = %v, want %d", when, got, want)
	}
}

// TestComputeLatencyIsCurrent: the compute-latency histogram counts a
// running job's computes as they return, not when the job ends. With two
// jobs done and a third blocked in its second compute, it holds the first
// two jobs' computes and the third's first; cancelling the third leaves it
// there, because the blocked compute returns after its job has ended.
func TestComputeLatencyIsCurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	s := service.New(service.Config{Workers: 4, MaxConcurrentJobs: 4, Registry: reg})
	defer s.Close()
	var computes int64
	before := makeAppJob(t, "LU", 0, 0)
	before.Plan = fault.PlanCount(before.Spec, fault.AnyTask, fault.BeforeCompute, 3, 21)
	for _, spec := range []service.JobSpec{makeAppJob(t, "LCS", 3, 20), before} {
		h, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("job %s: %v", spec.Name, err)
		}
		computes += res.Metrics.Computes
	}
	timedComputes(t, reg, computes, "two jobs done")

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	blocked, err := s.Submit(service.JobSpec{Name: "cancelled", Spec: graph.Chain(2, func(k graph.Key, _ [][]float64) []float64 {
		if k == 1 {
			<-gate
		}
		return []float64{1}
	})})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := blocked.Status(); st.State == service.Running && st.Metrics != nil && st.Metrics.Computes == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the gated job never reached its second compute: %+v", blocked.Status())
		}
	}
	timedComputes(t, reg, computes+1, "mid-run")
	blocked.Cancel()
	if _, err := blocked.Wait(); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("gated job: %v, want cancelled", err)
	}
	release()
	timedComputes(t, reg, computes+1, "after the cancel")
}

// flipOnce is a two-task chain whose first task, the first time it runs,
// flips a bit of its output after handing it to the store: the memory fault
// a checksum exists to catch, which the store's own flag never sees.
type flipOnce struct {
	*graph.Static
	flipped atomic.Bool
}

func (f *flipOnce) Compute(ctx graph.Context, key graph.Key) error {
	if key != 0 {
		return f.Static.Compute(ctx, key)
	}
	out := make([]float64, block.PoolMin)
	for i := range out {
		out[i] = float64(i)
	}
	ctx.Write(out)
	if f.flipped.CompareAndSwap(false, true) {
		out[7] = math.Float64frombits(math.Float64bits(out[7]) ^ 1<<20)
	}
	return nil
}

// TestChecksumFailureIsCountedOnce: a verified read of a word flipped behind
// the store's back moves ftdag_block_checksum_failures_total by exactly one
// and ftdag_block_corrupt_reads_total, the flagged reads, not at all.
func TestChecksumFailureIsCountedOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	s := service.New(service.Config{Workers: 2, Registry: reg})
	defer s.Close()
	spec := &flipOnce{Static: graph.Chain(2, func(_ graph.Key, in [][]float64) []float64 {
		return []float64{in[0][7]}
	})}
	h, err := s.Submit(service.JobSpec{Name: "flip", Spec: spec, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sink[0] != 7 || res.Store.ChecksumFailures != 1 || res.Store.CorruptReads != 1 || res.Metrics.Recoveries != 1 {
		t.Fatalf("sink %v, store %+v, recoveries %d: want sink 7 after one checksum failure and one recovery",
			res.Sink, res.Store, res.Metrics.Recoveries)
	}
	got := familyValues(reg)
	if got["ftdag_block_checksum_failures_total"] != 1 || got["ftdag_block_corrupt_reads_total"] != 0 {
		t.Fatalf("checksum failures %v, flagged corrupt reads %v: want 1 and 0",
			got["ftdag_block_checksum_failures_total"], got["ftdag_block_corrupt_reads_total"])
	}
}

// TestSnapshotMatchesRegistry: with k jobs running and n queued, Snapshot and
// the registry's gauges read the same queue depth and the same running jobs,
// and both read zero once the jobs are done.
func TestSnapshotMatchesRegistry(t *testing.T) {
	const k, n = 2, 3
	reg := metrics.NewRegistry()
	s := service.New(service.Config{Workers: 2, MaxConcurrentJobs: k, MaxQueuedJobs: 8, Registry: reg})
	defer s.Close()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	var hs []*service.Handle
	for i := 0; i < k+n; i++ {
		h, err := s.Submit(service.JobSpec{Spec: graph.Chain(1, func(graph.Key, [][]float64) []float64 {
			<-gate
			return []float64{1}
		})})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	check := func(running, queued int) {
		t.Helper()
		snap := s.Snapshot()
		gr, _ := reg.Value("ftdag_jobs_running")
		gq, _ := reg.Value("ftdag_queue_depth")
		if snap.Running != running || snap.Queued != queued || snap.QueueDepth != queued ||
			gr != float64(running) || gq != float64(queued) {
			t.Fatalf("Snapshot running %d, queued %d, queue depth %d; registry running %v, queue depth %v; want %d running and %d queued",
				snap.Running, snap.Queued, snap.QueueDepth, gr, gq, running, queued)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); s.Snapshot().Running != k; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs never ran: %+v", k, s.Snapshot())
		}
	}
	check(k, n)
	release()
	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	check(0, 0)
}
