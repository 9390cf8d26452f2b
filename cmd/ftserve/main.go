// Command ftserve runs the fault-tolerant task-graph scheduler as a
// long-lived HTTP/JSON service: one shared work-stealing pool serving many
// concurrent task-graph jobs (internal/service), with admission control,
// per-job deadlines and cancellation, and per-job metrics/trace retrieval.
//
//	ftserve -addr :8080 -workers 4 -maxjobs 4 -queue 64 -data-dir /var/lib/ftserve
//
// With -data-dir the daemon is durable: every job state transition goes
// through a checksummed write-ahead log (internal/journal), submissions are
// fsynced before they are acknowledged, and a restart replays the journal —
// finished jobs come back queryable (state, sink digest, metrics) and
// unfinished ones are rebuilt from their persisted request JSON and re-run.
// SIGINT/SIGTERM trigger a graceful shutdown: admission stops, in-flight
// jobs get -grace to finish, and the journal is snapshotted and flushed
// before exit.
//
// Endpoints:
//
//	POST /jobs              submit a job (named app kernel or synthetic DAG)
//	GET  /jobs              list all jobs (running jobs show live progress)
//	GET  /jobs/{id}         one job's status (live while running)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /jobs/{id}/trace   the job's lifecycle as a Chrome/Perfetto trace
//	GET  /metrics           Prometheus text exposition (scheduler, executor,
//	                        block store, journal, and service families)
//	GET  /debug/state       the full JSON state snapshot (queue depths,
//	                        scheduler stats, aggregated recovery totals)
//	GET  /debug/jobs        live per-job progress with derived throughput
//	GET  /debug/trace/{id}  alias of /jobs/{id}/trace
//	GET  /debug/spans       the process's distributed-tracing spans
//	                        (?trace=<32 hex> filters to one trace)
//	GET  /healthz           liveness: uptime, worker count, journal status
//
// With -debug-addr a second listener serves net/http/pprof (profiles,
// goroutine dumps) without exposing them on the public address.
//
// A submission body names either a benchmark app or a synthetic DAG:
//
//	{"app": "LU", "n": 96, "b": 16, "seed": 4, "verify": true,
//	 "faults": {"count": 3, "point": "after-compute", "type": "any", "seed": 9},
//	 "deadline_ms": 5000, "trace_capacity": 4096}
//	{"synthetic": {"layers": 4, "width": 8, "max_in": 3, "seed": 7}, "verify": true}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (the -debug-addr listener)
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/cluster"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/harness"
	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		workers   = flag.Int("workers", 0, "shared pool size (0: GOMAXPROCS)")
		maxJobs   = flag.Int("maxjobs", 4, "max concurrently executing jobs")
		queue     = flag.Int("queue", 64, "admission queue capacity")
		dataDir   = flag.String("data-dir", "", "journal directory for durable jobs (empty: in-memory only)")
		debugAddr = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty: disabled)")
		grace     = flag.Duration("grace", 10*time.Second, "graceful-shutdown drain budget for in-flight jobs")
		procName  = flag.String("proc-name", "", "process label for spans and the black box (empty: derived from -addr)")
		spansCap  = flag.Int("spans", 8192, "process-wide span ring capacity for distributed tracing (0: tracing off)")
		flightCap = flag.Int("flight", 4096, "flight-recorder ring capacity; persisted under <data-dir>/blackbox (0: off)")
	)
	flag.Parse()

	cfg := service.Config{Workers: *workers, MaxConcurrentJobs: *maxJobs, MaxQueuedJobs: *queue}

	var jr *journal.Journal
	torn, incomplete := false, 0
	if *dataDir != "" {
		var err error
		jr, err = journal.Open(journal.Options{Dir: *dataDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftserve: opening journal in %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		st := jr.State()
		terminal := 0
		for _, js := range st.Jobs {
			if js.Terminal() {
				terminal++
			} else {
				incomplete++
			}
		}
		if n, truncated := jr.Truncated(); truncated {
			torn = true
			log.Printf("ftserve: recovered journal with a torn tail (%d bytes dropped)", n)
		}
		log.Printf("ftserve: journal %s replayed: %d finished job(s) restored, %d incomplete job(s) to re-run",
			*dataDir, terminal, incomplete)
		cfg.Journal = jr
		cfg.Rebuild = rebuildJob
	}

	// Distributed tracing (span ring) and the black-box flight recorder.
	// The recorder is write-behind: a SIGKILL leaves a parseable box at
	// most one flush interval stale; panic, SIGTERM, and replay-after-crash
	// snapshot immediately with the reason recorded.
	proc := *procName
	if proc == "" {
		proc = "ftserve-" + strings.Trim(strings.ReplaceAll(*addr, ":", "-"), "-")
	}
	tracer := trace.NewSpans(proc, *spansCap)
	var flight *trace.Flight
	if *dataDir != "" {
		flight = trace.NewFlight(proc, *flightCap)
		if err := flight.Persist(*dataDir, 0); err != nil {
			fmt.Fprintf(os.Stderr, "ftserve: %v\n", err)
			os.Exit(1)
		}
		tracer.Mirror(flight)
	}
	defer func() {
		if r := recover(); r != nil {
			flight.Emit("panic", fmt.Sprint(r), -1, -1, 0, trace.SpanContext{})
			_, _ = flight.Snapshot("panic")
			panic(r)
		}
	}()

	reg := metrics.NewRegistry()
	cfg.Registry = reg
	cfg.Tracer = tracer
	cfg.Flight = flight
	srv := service.New(cfg)
	if torn || incomplete > 0 {
		// The previous incarnation died uncleanly; the replay itself is
		// crash evidence worth boxing before new work dilutes the ring.
		if p, err := flight.Snapshot("replay-after-crash"); err == nil && p != "" {
			log.Printf("ftserve: crash replay boxed at %s", p)
		}
	}
	d := &daemon{srv: srv, jr: jr, reg: reg, tracer: tracer, started: time.Now(), drainGrace: *grace}
	reg.GaugeFunc("ftdag_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(d.started).Seconds() })
	mux := d.newMux()
	if *debugAddr != "" {
		go func() {
			log.Printf("ftserve: pprof debug server on %s", *debugAddr)
			// nil handler = DefaultServeMux, which net/http/pprof
			// populated at import.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("ftserve: debug server: %v", err)
			}
		}()
	}
	log.Printf("ftserve: serving on %s (workers=%d maxjobs=%d queue=%d durable=%v)",
		*addr, srv.Config().Workers, srv.Config().MaxConcurrentJobs, srv.Config().MaxQueuedJobs, jr != nil)

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting HTTP first (bounded by the same
	// grace budget), then drain the service — in-flight jobs get -grace to
	// finish, anything still running is left incomplete in the journal for
	// the next boot, and the journal is snapshotted and closed.
	log.Printf("ftserve: signal received; draining (grace %v)", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("ftserve: http shutdown: %v", err)
	}
	cancel()
	stats := srv.Shutdown(*grace)
	if err := flight.Close("sigterm"); err != nil {
		log.Printf("ftserve: final black box: %v", err)
	}
	log.Printf("ftserve: drained; pool stats: %v", stats)
}

// daemon wires the service into HTTP handlers.
type daemon struct {
	srv        *service.Server
	jr         *journal.Journal // nil without -data-dir
	reg        *metrics.Registry
	tracer     *trace.Spans // nil with -spans 0 (tracing off)
	started    time.Time
	drainGrace time.Duration // default /drain grace (the -grace flag)
}

// newMux builds the daemon's route table. Method-qualified patterns make the
// mux answer wrong-method requests with 405 and an Allow header for free.
// Factored out so httptest can exercise the exact production routing.
func (d *daemon) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", d.submit)
	mux.HandleFunc("GET /jobs", d.list)
	mux.HandleFunc("GET /jobs/{id}", d.status)
	mux.HandleFunc("POST /jobs/{id}/cancel", d.cancel)
	mux.HandleFunc("GET /jobs/{id}/trace", d.trace)
	mux.HandleFunc("GET /metrics", d.metrics)
	mux.HandleFunc("GET /debug/state", d.debugState)
	mux.HandleFunc("GET /debug/jobs", d.debugJobs)
	mux.HandleFunc("GET /debug/trace/{id}", d.trace)
	mux.HandleFunc("GET /healthz", d.healthz)
	// Cluster endpoints (internal/cluster): a standby tails the journal at
	// /journal/stream, and a shard router migrates this node's jobs away
	// via /drain. Both handlers are shared with the cluster test backends.
	mux.HandleFunc("GET /journal/stream", cluster.StreamHandler(d.jr))
	mux.HandleFunc("POST /drain", cluster.DrainHandler(d.srv, d.drainGrace))
	// The process's distributed-tracing spans (?trace= filters to one
	// trace) — what a router's /debug/cluster-trace merge polls.
	mux.HandleFunc("GET /debug/spans", cluster.SpansHandler(d.tracer))
	return mux
}

// jobRequest is the submission body.
type jobRequest struct {
	// App names a benchmark kernel (LCS, SW, FW, LU, Cholesky) sized by
	// N/B/Seed (unset fields fall back to the quick sizes).
	App  string `json:"app,omitempty"`
	N    int    `json:"n,omitempty"`
	B    int    `json:"b,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Synthetic requests a random layered DAG instead of an app kernel.
	Synthetic *syntheticRequest `json:"synthetic,omitempty"`
	// Faults attaches a deterministic fault-injection plan.
	Faults *faultRequest `json:"faults,omitempty"`
	// Recovery selects the job's recovery strategy: "ftnabbit" (default),
	// "replicate-all", or "replicate-selective" (sized by ReplicaBudget).
	Recovery string `json:"recovery,omitempty"`
	// ReplicaBudget is the fraction of tasks to replicate under
	// recovery=replicate-selective (0 uses the server default).
	ReplicaBudget float64 `json:"replica_budget,omitempty"`
	// DeadlineMS bounds the job's execution time in milliseconds.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// TraceCapacity > 0 records the job's lifecycle for GET /jobs/{id}/trace.
	TraceCapacity int `json:"trace_capacity,omitempty"`
	// Verify checks the sink against the sequential reference.
	Verify bool `json:"verify,omitempty"`
}

type syntheticRequest struct {
	Layers int    `json:"layers"`
	Width  int    `json:"width"`
	MaxIn  int    `json:"max_in"`
	Seed   uint64 `json:"seed"`
}

type faultRequest struct {
	// Count and Fraction are mutually exclusive ways to size the plan:
	// an absolute number of injected tasks, or a fraction of all tasks.
	Count    int     `json:"count,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Point    string  `json:"point"` // before-compute, after-compute, after-notify
	Type     string  `json:"type"`  // any, v0, vlast, vrand
	Seed     int64   `json:"seed"`
}

func parseTaskType(s string) (fault.TaskType, error) {
	switch strings.ToLower(s) {
	case "", "any":
		return fault.AnyTask, nil
	case "v0":
		return fault.V0, nil
	case "vlast":
		return fault.VLast, nil
	case "vrand":
		return fault.VRand, nil
	}
	return fault.AnyTask, fmt.Errorf("unknown task type %q (want any, v0, vlast, vrand)", s)
}

// buildJob turns a request into a JobSpec (constructing the graph and, when
// asked, a verification closure against the sequential reference).
func buildJob(req jobRequest) (service.JobSpec, error) {
	var spec service.JobSpec
	switch {
	case req.Synthetic != nil && req.App != "":
		return spec, fmt.Errorf("specify app or synthetic, not both")
	case req.Synthetic != nil:
		sr := *req.Synthetic
		if sr.Layers < 1 || sr.Width < 1 {
			return spec, fmt.Errorf("synthetic needs layers >= 1 and width >= 1")
		}
		if sr.MaxIn < 1 {
			sr.MaxIn = 2
		}
		g := graph.Layered(sr.Layers, sr.Width, sr.MaxIn, sr.Seed|1, nil)
		spec.Name = fmt.Sprintf("synthetic %dx%d", sr.Layers, sr.Width)
		spec.Spec = g
		if req.Verify {
			seqRes, err := core.NewSequential(g, 0).Run()
			if err != nil {
				return spec, fmt.Errorf("synthetic ground truth: %w", err)
			}
			want := seqRes.Sink
			spec.Verify = func(res *core.Result) error { return diffSink(res.Sink, want) }
		}
	case req.App != "":
		cfg, ok := harness.QuickSizes()[req.App]
		if !ok {
			cfg = apps.Config{}
		}
		if req.N > 0 {
			cfg.N = req.N
		}
		if req.B > 0 {
			cfg.B = req.B
		}
		if req.Seed != 0 {
			cfg.Seed = req.Seed
		}
		a, err := harness.MakeApp(req.App, cfg)
		if err != nil {
			return spec, err
		}
		spec.Name = fmt.Sprintf("%s N=%d B=%d", a.Name(), cfg.N, cfg.B)
		spec.Spec = a.Spec()
		spec.Retention = a.Retention()
		if req.Verify {
			spec.Verify = func(res *core.Result) error { return a.VerifySink(res.Sink) }
		}
	default:
		return spec, fmt.Errorf("request needs an app name or a synthetic DAG")
	}
	if f := req.Faults; f != nil && (f.Count > 0 || f.Fraction > 0) {
		if f.Count > 0 && f.Fraction > 0 {
			return spec, fmt.Errorf("faults: count (%d) and fraction (%g) are mutually exclusive; set one", f.Count, f.Fraction)
		}
		if f.Fraction > 1 {
			return spec, fmt.Errorf("faults: fraction %g out of range (0, 1]", f.Fraction)
		}
		point, err := fault.ParsePoint(orDefault(f.Point, "after-compute"))
		if err != nil {
			return spec, err
		}
		typ, err := parseTaskType(f.Type)
		if err != nil {
			return spec, err
		}
		if f.Fraction > 0 {
			spec.Plan = fault.PlanFraction(spec.Spec, typ, point, f.Fraction, f.Seed)
		} else {
			spec.Plan = fault.PlanCount(spec.Spec, typ, point, f.Count, f.Seed)
		}
	}
	pol, err := service.ParseRecovery(req.Recovery)
	if err != nil {
		return spec, err
	}
	spec.Recovery = pol
	spec.ReplicaBudget = req.ReplicaBudget
	if req.DeadlineMS > 0 {
		spec.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	spec.TraceCapacity = req.TraceCapacity
	return spec, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// rebuildJob is the durable server's Config.Rebuild: the journaled payload
// is the canonical submission-request JSON, so replay goes through exactly
// the same construction path as a live submission. The journaled fault-plan
// manifest (the original run's exact injections) overrides the plan this
// rebuild derives from the request's seed.
func rebuildJob(payload []byte) (service.JobSpec, error) {
	var req jobRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return service.JobSpec{}, fmt.Errorf("decoding journaled request: %w", err)
	}
	spec, err := buildJob(req)
	if err != nil {
		return service.JobSpec{}, err
	}
	spec.Payload = payload
	return spec, nil
}

// diffSink compares a sink against the sequential ground truth.
func diffSink(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("sink length %d != reference %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return fmt.Errorf("sink[%d] = %g, reference %g", i, got[i], want[i])
		}
	}
	return nil
}

func (d *daemon) submit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	spec, err := buildJob(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// An FT-Trace header (shard router, failover resubmission, or a traced
	// client) parents this job's spans into the caller's trace. Malformed
	// headers are ignored: tracing is diagnostic, never load-bearing.
	if ctx, err := trace.ParseHeader(r.Header.Get(trace.HeaderName)); err == nil && ctx.Valid() {
		spec.Span = ctx
	}
	if d.jr != nil {
		// Persist the canonical (re-marshaled) request as the job's
		// payload: after a crash, rebuildJob turns it back into this
		// same JobSpec.
		payload, err := json.Marshal(req)
		if err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("encoding payload: %w", err))
			return
		}
		spec.Payload = payload
	}
	h, err := d.srv.Submit(spec)
	if err != nil {
		// Shared with the cluster backends: queue saturation answers 429
		// with the service's Retry-After hint, draining/closed answer 503
		// so a router resubmits elsewhere.
		cluster.WriteSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, h.Status())
}

func (d *daemon) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.srv.Jobs())
}

func (d *daemon) handle(w http.ResponseWriter, r *http.Request) (*service.Handle, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return nil, false
	}
	h, ok := d.srv.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return nil, false
	}
	return h, true
}

func (d *daemon) status(w http.ResponseWriter, r *http.Request) {
	if h, ok := d.handle(w, r); ok {
		writeJSON(w, http.StatusOK, h.Status())
	}
}

func (d *daemon) cancel(w http.ResponseWriter, r *http.Request) {
	if h, ok := d.handle(w, r); ok {
		h.Cancel()
		writeJSON(w, http.StatusOK, h.Status())
	}
}

func (d *daemon) trace(w http.ResponseWriter, r *http.Request) {
	h, ok := d.handle(w, r)
	if !ok {
		return
	}
	tl := h.Trace()
	if tl == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("job %d was submitted without trace_capacity", h.ID()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tl.WriteJSONNamed(w, h.Status().Name); err != nil {
		log.Printf("ftserve: writing trace of job %d: %v", h.ID(), err)
	}
}

// metrics serves the registry in Prometheus text exposition format.
func (d *daemon) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.TextContentType)
	if err := d.reg.WritePrometheus(w); err != nil {
		log.Printf("ftserve: writing metrics: %v", err)
	}
}

// debugState is the full JSON state snapshot (the pre-Prometheus /metrics
// payload): queue depths, scheduler stats, aggregated recovery totals.
func (d *daemon) debugState(w http.ResponseWriter, r *http.Request) {
	snap := d.srv.Snapshot()
	var js *journal.Stats
	if d.jr != nil {
		s := d.jr.Stats()
		js = &s
	}
	writeJSON(w, http.StatusOK, struct {
		UptimeSec float64 `json:"uptime_sec"`
		service.Snapshot
		Journal *journal.Stats `json:"journal,omitempty"`
	}{time.Since(d.started).Seconds(), snap, js})
}

// debugJob decorates a job status with throughput derived from its metrics —
// live mid-run numbers for running jobs, final numbers once terminal.
type debugJob struct {
	service.Status
	TasksPerSec float64 `json:"tasks_per_sec,omitempty"`
}

func (d *daemon) debugJobs(w http.ResponseWriter, r *http.Request) {
	sts := d.srv.Jobs()
	out := make([]debugJob, len(sts))
	for i, st := range sts {
		out[i] = debugJob{Status: st}
		if st.Metrics != nil && st.ElapsedMS > 0 {
			out[i].TasksPerSec = float64(st.Metrics.Computes) / (st.ElapsedMS / 1000)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *daemon) healthz(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Status    string         `json:"status"`
		UptimeSec float64        `json:"uptime_sec"`
		Workers   int            `json:"workers"`
		Durable   bool           `json:"durable"`
		Draining  bool           `json:"draining"`
		Journal   *journal.Stats `json:"journal,omitempty"`
	}{
		Status:    "ok",
		UptimeSec: time.Since(d.started).Seconds(),
		Workers:   d.srv.Config().Workers,
		Durable:   d.jr != nil,
		Draining:  d.srv.Draining(),
	}
	if resp.Draining {
		// A shard router treats a draining node as live but unplaceable.
		resp.Status = "draining"
	}
	if d.jr != nil {
		s := d.jr.Stats()
		resp.Journal = &s
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("ftserve: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
