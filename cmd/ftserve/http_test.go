package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftdag/internal/cluster"
	"ftdag/internal/graph"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// newTestBackend boots a backend the way main does — cluster.OpenBackend
// over the daemon's rebuildJob vocabulary (durable when dataDir is
// non-empty) — and returns it with the mux production serves.
func newTestBackend(t *testing.T, dataDir string, sc service.Config) (*cluster.Backend, *http.ServeMux) {
	t.Helper()
	be, err := cluster.OpenBackend(cluster.BackendConfig{
		Name: "ftserve-test", DataDir: dataDir, Service: sc, Build: rebuildJob, Spans: 256, Flight: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		be.Service.Close()
		if err := be.Flight.Close("test"); err != nil {
			t.Error(err)
		}
	})
	return be, be.Node.Mux()
}

func newTestDaemon(t *testing.T, dataDir string) (*cluster.Backend, *http.ServeMux) {
	return newTestBackend(t, dataDir, service.Config{Workers: 2, MaxConcurrentJobs: 2})
}

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

// TestHealthz: main's wiring hands the node what the healthz body reports —
// the configured pool size, the journal it opened, its own name.
func TestHealthz(t *testing.T) {
	_, mux := newTestDaemon(t, t.TempDir())
	rr := get(t, mux, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", rr.Code)
	}
	var resp cluster.Health
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Name != "ftserve-test" || resp.Workers != 2 || !resp.Durable || resp.Journal == nil {
		t.Fatalf("healthz = %+v", resp)
	}
	if resp.UptimeSec < 0 {
		t.Fatalf("negative uptime %v", resp.UptimeSec)
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	d, mux := newTestDaemon(t, t.TempDir())
	// Run one faulty job to completion so the counters have moved.
	spec, err := buildJob(jobRequest{
		Synthetic: &syntheticRequest{Layers: 3, Width: 4, MaxIn: 2, Seed: 7},
		Faults:    &faultRequest{Count: 2, Point: "after-compute", Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Service.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	rr := get(t, mux, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE ftdag_tasks_computed_total counter",
		"# TYPE ftdag_compute_errors_total counter",
		"# TYPE ftdag_recoveries_total counter",
		"# TYPE ftdag_resets_total counter",
		"# TYPE ftdag_notifications_total counter",
		"# TYPE ftdag_injections_fired_total counter",
		"# TYPE ftdag_replicated_tasks_total counter",
		"# TYPE ftdag_shadow_computes_total counter",
		"# TYPE ftdag_sdc_injected_total counter",
		"# TYPE ftdag_sdc_detected_total counter",
		"# TYPE ftdag_sdc_missed_total counter",
		"# TYPE ftdag_replication_overhead_ratio gauge",
		"# TYPE ftdag_recovery_latency_seconds histogram",
		"# TYPE ftdag_block_evictions_total counter",
		"# TYPE ftdag_block_corrupt_reads_total counter",
		"# TYPE ftdag_block_checksum_failures_total counter",
		"# TYPE ftdag_steals_total counter",
		"# TYPE ftdag_compute_latency_seconds histogram",
		"ftdag_compute_latency_seconds_count",
		"# TYPE ftdag_journal_fsyncs_total counter",
		"# TYPE ftdag_journal_fsync_batch histogram",
		"ftdag_jobs_succeeded_total 1",
		"ftdag_uptime_seconds",
		`ftdag_worker_busy_seconds_total{worker="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The faulty run must show computed tasks — exactly the jobs' own
	// counts — and the fired recoveries.
	var computes int64
	for _, st := range d.Service.Jobs() {
		computes += st.Metrics.Computes
	}
	if v, ok := d.Service.Config().Registry.Value("ftdag_tasks_computed_total"); !ok || v != float64(computes) || computes < 13 { // 3*4+1 tasks minimum
		t.Fatalf("ftdag_tasks_computed_total = %v, %v; the jobs computed %d", v, ok, computes)
	}
	rec, _ := d.Service.Config().Registry.Value("ftdag_recoveries_total")
	inj, _ := d.Service.Config().Registry.Value("ftdag_injections_fired_total")
	if inj == 0 || rec == 0 {
		t.Fatalf("faulty run moved no recovery counters: injections=%v recoveries=%v", inj, rec)
	}
}

// TestJobsLiveProgress: GET /jobs shows a running job's live progress, and
// once it is done its final counts and elapsed time, the two a client divides
// for its throughput.
func TestJobsLiveProgress(t *testing.T) {
	d, mux := newTestDaemon(t, "")
	gate := make(chan struct{})
	spec := graph.Chain(3, func(key graph.Key, vals [][]float64) []float64 {
		if key == 1 {
			<-gate
		}
		return []float64{float64(key)}
	})
	h, err := d.Service.Submit(service.JobSpec{Name: "blocking-chain", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Poll /jobs until the running job shows live mid-run progress:
	// discovered tasks and a live metrics snapshot with the first compute.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var jobs []struct {
			State   string `json:"state"`
			Tasks   int    `json:"tasks"`
			Metrics *struct {
				Computes int64
			} `json:"metrics"`
		}
		rr := get(t, mux, "/jobs")
		if err := json.Unmarshal(rr.Body.Bytes(), &jobs); err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 1 && jobs[0].State == "running" &&
			jobs[0].Tasks > 0 && jobs[0].Metrics != nil && jobs[0].Metrics.Computes >= 1 {
			break
		}
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("no live progress before deadline: %s", rr.Body.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	// Terminal state keeps the final result.
	var jobs []struct {
		Tasks     int     `json:"tasks"`
		ElapsedMS float64 `json:"elapsed_ms"`
		Metrics   *struct {
			Computes int64
		} `json:"metrics"`
	}
	if err := json.Unmarshal(get(t, mux, "/jobs").Body.Bytes(), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Tasks != 3 || jobs[0].ElapsedMS <= 0 || jobs[0].Metrics == nil || jobs[0].Metrics.Computes != 3 {
		t.Fatalf("final /jobs = %+v", jobs)
	}
}

func TestSubmitRecoveryPolicyAndRetryAfter(t *testing.T) {
	be, mux := newTestBackend(t, "", service.Config{Workers: 2, MaxConcurrentJobs: 1, MaxQueuedJobs: 1})
	srv := be.Service
	post := func(body string) *httptest.ResponseRecorder { return post(mux, body) }

	// A replicated submission is accepted and reports its policy.
	rr := post(`{"synthetic":{"layers":3,"width":3,"max_in":2,"seed":9},"recovery":"replicate-selective","replica_budget":0.5,"verify":true}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("replicated submit = %d: %s", rr.Code, rr.Body.String())
	}
	var st struct {
		Recovery      string  `json:"recovery"`
		ReplicaBudget float64 `json:"replica_budget"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Recovery != "replicate-selective" || st.ReplicaBudget != 0.5 {
		t.Fatalf("status lost the policy: %+v", st)
	}
	if rr := post(`{"app":"FW","recovery":"bogus"}`); rr.Code != http.StatusBadRequest {
		t.Fatalf("bogus recovery = %d, want 400", rr.Code)
	}
	// Drain the replicated job before filling the queue below.
	if h, ok := srv.Job(1); ok {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("replicated job: %v", err)
		}
	}

	// Fill the queue behind a blocked job; the rejection must carry a
	// Retry-After hint.
	release := make(chan struct{})
	defer close(release)
	gate := graph.Chain(2, func(key graph.Key, vals [][]float64) []float64 {
		if key == 1 {
			<-release
		}
		return []float64{1}
	})
	hb, err := srv.Submit(service.JobSpec{Name: "blocker", Spec: gate})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hb.Status().State != service.Running {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if rr := post(`{"synthetic":{"layers":2,"width":2,"max_in":1,"seed":1}}`); rr.Code != http.StatusAccepted {
		t.Fatalf("queue-slot submit = %d: %s", rr.Code, rr.Body.String())
	}
	rr = post(`{"synthetic":{"layers":2,"width":2,"max_in":1,"seed":2}}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", rr.Code)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without usable Retry-After (%q)", ra)
	}
}

// TestJobTraceFromSpanRing: GET /jobs/{id}/trace serves the job's spans from
// the process ring with no per-request option — a compute span for every
// compute the job's metrics count, re-executions included — and keeps out a
// second job that continued the same trace.
func TestJobTraceFromSpanRing(t *testing.T) {
	d, mux := newTestDaemon(t, "")
	header := trace.SpanContext{Trace: trace.NewTraceID(), Span: 1}.Header()
	computes := map[int64]int64{}
	for id, body := range []string{
		`{"synthetic":{"layers":3,"width":4,"max_in":2,"seed":5},"faults":{"count":2,"seed":3}}`,
		`{"synthetic":{"layers":2,"width":2,"max_in":1,"seed":6}}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body))
		req.Header.Set(trace.HeaderName, header)
		rr := httptest.NewRecorder()
		if mux.ServeHTTP(rr, req); rr.Code != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", rr.Code, rr.Body.String())
		}
		h, _ := d.Service.Job(int64(id + 1))
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		computes[h.ID()] = res.Metrics.Computes
	}
	if computes[1] <= 3*4+1 {
		t.Fatalf("job 1 made %d computes: its faults re-executed nothing", computes[1])
	}
	for id, want := range computes {
		rr := get(t, mux, fmt.Sprintf("/jobs/%d/trace", id))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%d/trace = %d: %s", id, rr.Code, rr.Body.String())
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
			Spans       []trace.Span      `json:"spans"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Fatalf("job %d: not a trace document (%v): %.200s", id, err, rr.Body.String())
		}
		var got int64
		for _, sp := range doc.Spans {
			if sp.Job != id || sp.Trace.String() != header[:32] {
				t.Fatalf("job %d's trace holds %+v", id, sp)
			}
			if sp.Name == "compute" {
				got++
			}
		}
		if got != want {
			t.Fatalf("job %d's trace has %d compute spans, its metrics %d computes", id, got, want)
		}
	}
}
