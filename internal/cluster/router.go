package cluster

// Router: the shard layer. Job keys are consistent-hashed across backends
// (Ring); the router proxies the jobs API, health-checks every backend's
// /healthz, and when a backend dies re-routes that shard's incomplete
// jobs to survivors by resubmitting their journaled request payloads —
// the same bytes a crash restart would replay through Config.Rebuild.
// Finished jobs keep serving their durable digests from the router's
// terminal-status cache, so a backend loss never un-finishes a job.
//
// Determinism makes the failure races benign: if a backend completed a
// job just before dying (terminal record not yet observed), the re-run on
// a survivor folds to the same sink digest.

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ftdag/internal/metrics"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// RouterConfig configures a shard router.
type RouterConfig struct {
	// Client performs backend requests; nil uses a 10-second-timeout
	// client (never the zero-timeout default: a hung backend must not
	// wedge the router).
	Client *http.Client
	// Registry, when non-nil, receives routing counters, per-backend
	// health gauges, and the failover latency histogram.
	Registry *metrics.Registry
	// Vnodes per backend on the ring (<= 0: DefaultVnodes).
	Vnodes int
	// HealthInterval is the /healthz poll period (<= 0: 1s).
	HealthInterval time.Duration
	// FailThreshold is the consecutive health-check failures that declare
	// a backend dead and trigger failover (<= 0: 3).
	FailThreshold int
	// Tracer, when non-nil, records the router's spans and mints the span
	// contexts that ride the FT-Trace header to backends. Nil turns
	// cluster tracing off at zero cost.
	Tracer *trace.Spans
	// Flight, when non-nil, receives the router's black-box events
	// (submissions, failovers, reroutes). Nil disables the recorder.
	Flight *trace.Flight
}

// routedJob is the router's record of one submission: enough identity to
// query it, cancel it, and — because body is the same canonical request
// JSON the backend journals — resubmit it elsewhere after a failure.
type routedJob struct {
	id       int64
	key      string
	body     []byte
	backend  string // current owner ("" while orphaned awaiting a survivor)
	remoteID int64
	terminal *RoutedStatus // cached final status; authoritative once set
	// span is the cluster-submit span context minted at first acceptance.
	// Every later failover-resubmit or drain-migrate span parents to it,
	// so however many times the job moves, the trace stays rooted at the
	// original submission.
	span trace.SpanContext
}

// backendState tracks one registered backend.
type backendState struct {
	name        string
	url         string
	healthy     bool
	draining    bool
	consecFails int
	up          *metrics.Gauge
	routed      *metrics.Counter
}

// RoutedStatus decorates a backend's job status with its placement. ID is
// the router's job ID (stable across failover); BackendID the current
// owner's local ID.
type RoutedStatus struct {
	service.Status
	Backend   string `json:"backend,omitempty"`
	BackendID int64  `json:"backend_id,omitempty"`
}

// Router proxies the jobs API across a ring of ftserve backends.
type Router struct {
	client   *http.Client
	reg      *metrics.Registry
	tracer   *trace.Spans
	flight   *trace.Flight
	interval time.Duration
	failMax  int

	mu       sync.Mutex
	ring     *Ring
	backends map[string]*backendState
	jobs     map[int64]*routedJob
	order    []int64
	nextID   int64
	ewmaMS   float64      // EWMA of completed-job latency, the saturation hint
	orphans  []*routedJob // acknowledged, unfinished, and without a live candidate: placeOrphans retries

	spillover *metrics.Counter
	saturated *metrics.Counter
	failovers *metrics.Counter
	rerouted  *metrics.Counter
	failoverH *metrics.Histogram

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{} // nil until Start
}

// NewRouter builds an empty router; add backends, then Start the health
// loop.
func NewRouter(cfg RouterConfig) *Router {
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	rt := &Router{
		client:   client,
		reg:      cfg.Registry,
		tracer:   cfg.Tracer,
		flight:   cfg.Flight,
		interval: cfg.HealthInterval,
		failMax:  cfg.FailThreshold,
		ring:     NewRing(cfg.Vnodes),
		backends: make(map[string]*backendState),
		jobs:     make(map[int64]*routedJob),
		stop:     make(chan struct{}),
	}
	if r := cfg.Registry; r != nil {
		rt.spillover = r.Counter("ftrouter_spillover_total", "Submissions diverted off their home shard by backpressure.")
		rt.saturated = r.Counter("ftrouter_saturated_total", "Submissions rejected because every candidate backend was saturated or down.")
		rt.failovers = r.Counter("ftrouter_failover_total", "Backend failures that triggered shard re-routing.")
		rt.rerouted = r.Counter("ftrouter_rerouted_jobs_total", "Incomplete jobs resubmitted to a survivor after a backend failure or drain.")
		rt.failoverH = r.Histogram("ftrouter_failover_seconds", "Latency of re-routing a dead backend's incomplete jobs to survivors.")
	}
	return rt
}

// AddBackend registers a backend and places it on the ring. Re-adding a
// known name (a node that was down or drained and came back) revives it
// without re-registering its metric series. Jobs orphaned while every
// candidate was down are placed at once.
func (rt *Router) AddBackend(name, baseURL string) error {
	if err := parseURL(baseURL); err != nil {
		return err
	}
	rt.mu.Lock()
	b := rt.backends[name]
	if b == nil {
		b = &backendState{name: name}
		if rt.reg != nil {
			b.up = rt.reg.Gauge("ftrouter_backend_up", "1 while the backend passes health checks.", "backend", name)
			b.routed = rt.reg.Counter("ftrouter_routed_total", "Jobs submitted to this backend.", "backend", name)
		}
		rt.backends[name] = b
	}
	b.url = baseURL
	b.healthy = true
	b.draining = false
	b.consecFails = 0
	b.up.Set(1)
	rt.ring.Add(name)
	rt.mu.Unlock()
	rt.placeOrphans()
	return nil
}

// Start launches the health-check loop. Start, Stop must be sequenced by
// one owner goroutine.
func (rt *Router) Start() {
	rt.done = make(chan struct{})
	go func() {
		defer close(rt.done)
		t := time.NewTicker(rt.interval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.checkHealth()
			}
		}
	}()
}

// Stop halts the health loop.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	if rt.done != nil {
		<-rt.done
	}
}

// Mux is the router's HTTP surface — the same jobs vocabulary as a
// backend, so clients cannot tell one ftserve from a routed fleet.
func (rt *Router) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", rt.submit)
	mux.HandleFunc("GET /jobs", rt.list)
	mux.HandleFunc("GET /jobs/{id}", rt.status)
	mux.HandleFunc("POST /jobs/{id}/cancel", rt.cancel)
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("POST /drain/{name}", rt.drainBackend)
	mux.HandleFunc("GET /debug/backends", rt.debugBackends)
	mux.HandleFunc("GET /debug/cluster-trace/{id}", rt.clusterTrace)
	if rt.reg != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", metrics.TextContentType)
			if err := rt.reg.WritePrometheus(w); err != nil {
				log.Printf("ftrouter: writing metrics: %v", err)
			}
		})
	}
	return mux
}

// ShardKey derives the routing key for a submission: an explicit
// X-Shard-Key header when the client wants affinity, otherwise the
// request body itself — deterministic, so every router instance routes
// the same request identically.
func ShardKey(header http.Header, body []byte) string {
	if k := header.Get("X-Shard-Key"); k != "" {
		return k
	}
	return string(body)
}

// candidatesFor returns the healthy, non-draining backends for key in
// ring order (home shard first), plus the total live count.
func (rt *Router) candidatesFor(key string) []*backendState {
	names := rt.ring.Candidates(key, rt.ring.Size())
	out := make([]*backendState, 0, len(names))
	for _, name := range names {
		if b := rt.backends[name]; b != nil && b.healthy && !b.draining {
			out = append(out, b)
		}
	}
	return out
}

func (rt *Router) submit(w http.ResponseWriter, r *http.Request) {
	body, ok := readSubmission(w, r)
	if !ok {
		return
	}
	key := ShardKey(r.Header, body)
	rt.mu.Lock()
	cands := rt.candidatesFor(key)
	rt.mu.Unlock()
	if len(cands) == 0 {
		rt.rejectSaturated(w, 0, http.StatusServiceUnavailable)
		return
	}

	// Mint the cluster-submit span context here — before the backend POST
	// — so the FT-Trace header carries it and the backend's own submit
	// span parents to the router's. A client that already opened a trace
	// (FT-Trace on the inbound request) stays the root; otherwise the
	// router is the first process to see the submission and mints the
	// trace ID.
	var ctx trace.SpanContext
	var clientSpan trace.SpanID
	start := time.Now()
	if tr := rt.tracer; tr != nil {
		parent, err := trace.ParseHeader(r.Header.Get(trace.HeaderName))
		if err != nil {
			log.Printf("ftrouter: ignoring malformed %s header: %v", trace.HeaderName, err)
		}
		if !parent.Valid() {
			parent = trace.SpanContext{Trace: trace.NewTraceID()}
		}
		clientSpan = parent.Span
		ctx = trace.SpanContext{Trace: parent.Trace, Span: tr.NextID()}
	}

	// Walk the shard's candidate list: the home backend first, then the
	// deterministic ring successors on backpressure (429/503) — the
	// spillover path. Hard transport errors skip the backend and let the
	// health loop decide its fate.
	worst := 0
	var retryAfter int
	for i, b := range cands {
		st, resp, ra, err := rt.postJob(b, body, ctx)
		if err != nil {
			log.Printf("ftrouter: submit to %s: %v", b.name, err)
			worst = http.StatusServiceUnavailable
			continue
		}
		switch {
		case resp == http.StatusAccepted:
			if i > 0 {
				rt.spillover.Inc()
			}
			b.routed.Inc()
			rs := rt.recordJob(key, body, b.name, st, ctx)
			if ctx.Valid() {
				rt.tracer.Emit(trace.Span{
					Trace: ctx.Trace, ID: ctx.Span, Parent: clientSpan,
					Name: "cluster-submit", Note: b.name,
					Start: start.UnixMicro(), Dur: time.Since(start).Microseconds(),
					Job: rs.ID, Task: -1, Arg: int64(i),
				})
			}
			rt.flight.Emit("cluster-submit", b.name, rs.ID, -1, int64(i), ctx)
			writeJSON(w, http.StatusAccepted, rs)
			return
		case resp == http.StatusTooManyRequests || resp == http.StatusServiceUnavailable:
			if resp > worst {
				worst = resp
			}
			if ra > retryAfter {
				retryAfter = ra
			}
		default:
			// A 4xx (bad request) is the client's problem, not capacity:
			// relay the first backend's verdict unmodified.
			writeJSON(w, resp, st)
			return
		}
	}
	rt.rejectSaturated(w, retryAfter, worst)
}

// rejectSaturated answers an all-backends-busy submission: the strongest
// backend Retry-After hint when one was offered, otherwise the router's
// own EWMA of completed-job latency — the expected time for a slot to
// free somewhere.
func (rt *Router) rejectSaturated(w http.ResponseWriter, retryAfter, code int) {
	rt.saturated.Inc()
	if retryAfter < 1 {
		rt.mu.Lock()
		ewma := rt.ewmaMS
		rt.mu.Unlock()
		retryAfter = retryAfterSeconds(time.Duration(ewma) * time.Millisecond)
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	if code == 0 {
		code = http.StatusServiceUnavailable
	}
	httpError(w, code, errors.New("all backends saturated or unavailable"))
}

// postJob submits body to b, returning the decoded status (or error
// body), HTTP code, and any Retry-After hint in seconds. A valid ctx
// rides the FT-Trace header so the backend's spans join the same trace.
func (rt *Router) postJob(b *backendState, body []byte, ctx trace.SpanContext) (map[string]any, int, int, error) {
	req, err := http.NewRequest(http.MethodPost, b.url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ctx.Valid() {
		req.Header.Set(trace.HeaderName, ctx.Header())
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() { _ = resp.Body.Close() }() // decodeJSON drains it
	var m map[string]any
	if err := decodeJSON(resp.Body, &m); err != nil {
		return nil, 0, 0, err
	}
	ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return m, resp.StatusCode, ra, nil
}

// recordJob mints the router-side identity for an accepted submission.
func (rt *Router) recordJob(key string, body []byte, backend string, accepted map[string]any, ctx trace.SpanContext) RoutedStatus {
	remoteID := int64(0)
	if v, ok := accepted["id"].(float64); ok {
		remoteID = int64(v)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextID++
	j := &routedJob{id: rt.nextID, key: key, body: body, backend: backend, remoteID: remoteID, span: ctx}
	rt.jobs[j.id] = j
	rt.order = append(rt.order, j.id)
	return RoutedStatus{
		Status:    service.Status{ID: j.id, State: service.Queued},
		Backend:   backend,
		BackendID: remoteID,
	}
}

// placement is one read, under rt.mu, of where a job runs: its owner and the
// job's ID there, which rerouteJobs rewrites together, with what the handlers
// decide on — the cached terminal status and whether the owner is up.
type placement struct {
	backend  string // the owner's name, "" while orphaned
	url      string // the owner's base URL
	remoteID int64
	up       bool
	terminal *RoutedStatus
}

func (rt *Router) placementOf(j *routedJob) placement {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p := placement{backend: j.backend, remoteID: j.remoteID, terminal: j.terminal}
	if b := rt.backends[j.backend]; b != nil {
		p.url, p.up = b.url, b.healthy
	}
	return p
}

// row is the job's last-known identity with no state detail, for an owner
// that cannot be asked.
func (p placement) row(j *routedJob) RoutedStatus {
	return RoutedStatus{Status: service.Status{ID: j.id}, Backend: p.backend, BackendID: p.remoteID}
}

// fetchStatus proxies one job's status from its owner at placement p,
// rewriting the identity to the router's. A terminal status is cached — after
// that the owner can die without the job's digest becoming unreachable — but
// only while the job is still at p: a job moved during the fetch is no longer
// the one its old owner reported on.
func (rt *Router) fetchStatus(j *routedJob, p placement) (RoutedStatus, error) {
	resp, err := rt.client.Get(fmt.Sprintf("%s/jobs/%d", p.url, p.remoteID))
	if err != nil {
		return RoutedStatus{}, err
	}
	defer func() { _ = resp.Body.Close() }() // decodeJSON drains it
	if resp.StatusCode != http.StatusOK {
		return RoutedStatus{}, fmt.Errorf("%s: %s", p.backend, resp.Status)
	}
	var st service.Status
	if err := decodeJSON(resp.Body, &st); err != nil {
		return RoutedStatus{}, err
	}
	rs := RoutedStatus{Status: st, Backend: p.backend, BackendID: st.ID}
	rs.ID = j.id
	if st.State.Terminal() {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if j.backend != p.backend || j.remoteID != p.remoteID {
			return RoutedStatus{}, fmt.Errorf("job %d moved off %s during the status fetch", j.id, p.backend)
		}
		j.terminal = &rs
		if st.State == service.Succeeded && st.ElapsedMS > 0 {
			// EWMA (alpha 1/4) of completed-job latency: the saturation
			// Retry-After hint. Derived from the backend-reported
			// ElapsedMS, not wall clock, so the router stays clock-free.
			if rt.ewmaMS == 0 {
				rt.ewmaMS = st.ElapsedMS
			} else {
				rt.ewmaMS += (st.ElapsedMS - rt.ewmaMS) / 4
			}
		}
	}
	return rs, nil
}

func (rt *Router) job(w http.ResponseWriter, r *http.Request) (*routedJob, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return nil, false
	}
	rt.mu.Lock()
	j := rt.jobs[id]
	rt.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return nil, false
	}
	return j, true
}

func (rt *Router) status(w http.ResponseWriter, r *http.Request) {
	j, ok := rt.job(w, r)
	if !ok {
		return
	}
	p := rt.placementOf(j)
	if p.terminal != nil {
		writeJSON(w, http.StatusOK, p.terminal)
		return
	}
	if !p.up {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("job %d: backend unavailable, failover pending", j.id))
		return
	}
	rs, err := rt.fetchStatus(j, p)
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

func (rt *Router) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := rt.job(w, r)
	if !ok {
		return
	}
	p := rt.placementOf(j)
	if p.terminal != nil {
		writeJSON(w, http.StatusOK, p.terminal)
		return
	}
	if !p.up {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("job %d: backend unavailable", j.id))
		return
	}
	resp, err := rt.client.Post(fmt.Sprintf("%s/jobs/%d/cancel", p.url, p.remoteID), "application/json", nil)
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	_ = resp.Body.Close() // response body unused; status refetched below
	rs, err := rt.fetchStatus(j, p)
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

// list reports every routed job: cached terminal statuses as-is, live
// jobs via one status fetch from their owner (unreachable owners leave
// the last-known identity with no state detail).
func (rt *Router) list(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	jobs := make([]*routedJob, 0, len(rt.order))
	for _, id := range rt.order {
		jobs = append(jobs, rt.jobs[id])
	}
	rt.mu.Unlock()
	out := make([]RoutedStatus, 0, len(jobs))
	for _, j := range jobs {
		p := rt.placementOf(j)
		switch {
		case p.terminal != nil:
			out = append(out, *p.terminal)
		case p.up:
			rs, err := rt.fetchStatus(j, p)
			if err != nil {
				rs = p.row(j)
			}
			out = append(out, rs)
		default:
			out = append(out, p.row(j))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// BackendHealth is one backend's row in the router's healthz.
type BackendHealth struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
}

func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	names := make([]string, 0, len(rt.backends))
	for name := range rt.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]BackendHealth, 0, len(names))
	live := 0
	for _, name := range names {
		b := rt.backends[name]
		rows = append(rows, BackendHealth{Name: b.name, URL: b.url, Healthy: b.healthy, Draining: b.draining})
		if b.healthy && !b.draining {
			live++
		}
	}
	jobs := len(rt.jobs)
	rt.mu.Unlock()
	status := "ok"
	if live == 0 {
		status = "no-backends"
	}
	writeJSON(w, http.StatusOK, struct {
		Status   string          `json:"status"`
		Live     int             `json:"live"`
		Jobs     int             `json:"jobs"`
		Backends []BackendHealth `json:"backends"`
	}{status, live, jobs, rows})
}

// checkHealth polls every backend once, fails over those that crossed the
// consecutive-failure threshold, and retries the placement of orphans.
func (rt *Router) checkHealth() {
	rt.mu.Lock()
	names := make([]string, 0, len(rt.backends))
	for name := range rt.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	type probe struct {
		b   *backendState
		url string
	}
	probes := make([]probe, 0, len(names))
	for _, name := range names {
		b := rt.backends[name]
		if b.healthy {
			probes = append(probes, probe{b, b.url})
		}
	}
	rt.mu.Unlock()

	for _, p := range probes {
		var h Health
		ok := false
		if resp, err := rt.client.Get(p.url + "/healthz"); err == nil {
			ok = resp.StatusCode == http.StatusOK && decodeJSON(resp.Body, &h) == nil
			_ = resp.Body.Close() // decodeJSON drained it
		}
		rt.mu.Lock()
		if ok {
			p.b.consecFails = 0
			p.b.draining = h.Draining
		} else {
			p.b.consecFails++
		}
		dead := p.b.consecFails >= rt.failMax
		rt.mu.Unlock()
		if dead {
			rt.failBackend(p.b.name)
		}
	}
	rt.placeOrphans()
}

// failBackend declares a backend dead: off the ring, its incomplete jobs
// resubmitted to survivors. Jobs with cached terminal statuses are left
// alone — their digests are already durable here and on the dead node's
// journal.
func (rt *Router) failBackend(name string) {
	start := rt.failoverH.Start()
	rt.mu.Lock()
	b := rt.backends[name]
	if b == nil || !b.healthy {
		rt.mu.Unlock()
		return
	}
	b.healthy = false
	b.up.Set(0)
	rt.ring.Remove(name)
	var orphans []*routedJob
	for _, id := range rt.order {
		j := rt.jobs[id]
		if j != nil && j.backend == name && j.terminal == nil {
			orphans = append(orphans, j)
		}
	}
	rt.mu.Unlock()
	rt.failovers.Inc()
	rt.flight.Emit("backend-dead", name, -1, -1, int64(len(orphans)), trace.SpanContext{})
	log.Printf("ftrouter: backend %s declared dead; re-routing %d incomplete job(s)", name, len(orphans))
	rt.rerouteJobs(orphans, "failover-resubmit")
	rt.failoverH.ObserveSince(start)
}

// rerouteJobs resubmits orphaned jobs (ordered by router ID, so recovery
// is deterministic given the same survivor set) to each job's first live
// candidate. A job with no live candidate joins rt.orphans, from where the
// next AddBackend or health tick retries it (placeOrphans).
// spanName labels the movement span ("failover-resubmit" or
// "drain-migrate"); each movement gets a fresh span ID but parents to
// the job's original cluster-submit span, so the trace stays one tree
// however many times the job moves.
func (rt *Router) rerouteJobs(orphans []*routedJob, spanName string) {
	for _, j := range orphans {
		rt.mu.Lock()
		cands := rt.candidatesFor(j.key)
		origin := j.span
		rt.mu.Unlock()
		var ctx trace.SpanContext
		if tr := rt.tracer; tr != nil && origin.Valid() {
			ctx = trace.SpanContext{Trace: origin.Trace, Span: tr.NextID()}
		}
		moved := false
		for _, b := range cands {
			start := time.Now()
			st, code, _, err := rt.postJob(b, j.body, ctx)
			if err != nil || code != http.StatusAccepted {
				continue
			}
			remoteID := int64(0)
			if v, ok := st["id"].(float64); ok {
				remoteID = int64(v)
			}
			rt.mu.Lock()
			j.backend = b.name
			j.remoteID = remoteID
			rt.mu.Unlock()
			b.routed.Inc()
			rt.rerouted.Inc()
			if ctx.Valid() {
				rt.tracer.Emit(trace.Span{
					Trace: ctx.Trace, ID: ctx.Span, Parent: origin.Span,
					Name: spanName, Note: b.name,
					Start: start.UnixMicro(), Dur: time.Since(start).Microseconds(),
					Job: j.id, Task: -1,
				})
			}
			rt.flight.Emit(spanName, b.name, j.id, -1, 0, ctx)
			moved = true
			break
		}
		if !moved {
			rt.mu.Lock()
			retry := j.backend == ""
			j.backend = ""
			rt.orphans = append(rt.orphans, j)
			rt.mu.Unlock()
			if !retry {
				log.Printf("ftrouter: job %d has no live backend; orphaned until one returns", j.id)
			}
		}
	}
}

// placeOrphans retries the jobs rerouteJobs found no live candidate for.
// Taking the list under the lock is the claim: AddBackend and the health
// tick may both run this, and neither resubmits a job the other holds.
func (rt *Router) placeOrphans() {
	rt.mu.Lock()
	orphans := rt.orphans
	rt.orphans = nil
	rt.mu.Unlock()
	rt.rerouteJobs(orphans, "failover-resubmit")
}

// drainBackend migrates a named backend out: POST /drain stops its
// admission and checkpoints unfinished jobs incomplete; their journaled
// payloads are resubmitted to survivors. The drained server stays up
// (status queries still work), it just owns no shard.
func (rt *Router) drainBackend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.mu.Lock()
	b := rt.backends[name]
	if b == nil {
		rt.mu.Unlock()
		httpError(w, http.StatusNotFound, fmt.Errorf("no backend %q", name))
		return
	}
	b.draining = true
	rt.ring.Remove(name)
	url := b.url
	rt.mu.Unlock()

	q := ""
	if v := r.URL.Query().Get("grace_ms"); v != "" {
		q = "?grace_ms=" + v
	}
	resp, err := rt.client.Post(url+"/drain"+q, "application/json", nil)
	if err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("draining %s: %w", name, err))
		return
	}
	defer func() { _ = resp.Body.Close() }() // decodeJSON drains it
	var dr service.DrainResult
	if err := decodeJSON(resp.Body, &dr); err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("draining %s: %w", name, err))
		return
	}

	// Map the drained node's incomplete jobs back to router jobs by the
	// drained node's local IDs, then resubmit their payloads elsewhere.
	rt.mu.Lock()
	byRemote := make(map[int64]*routedJob)
	for _, id := range rt.order {
		j := rt.jobs[id]
		if j != nil && j.backend == name && j.terminal == nil {
			byRemote[j.remoteID] = j
		}
	}
	var migrate []*routedJob
	for _, inc := range dr.Incomplete {
		if j := byRemote[inc.ID]; j != nil {
			migrate = append(migrate, j)
		}
	}
	rt.mu.Unlock()
	rt.flight.Emit("drain-start", name, -1, -1, int64(len(migrate)), trace.SpanContext{})
	rt.rerouteJobs(migrate, "drain-migrate")

	writeJSON(w, http.StatusOK, struct {
		Backend   string `json:"backend"`
		Completed int    `json:"completed"`
		Migrated  int    `json:"migrated"`
	}{name, dr.Completed, len(migrate)})
}

// BackendDebug is one backend's row in GET /debug/backends.
type BackendDebug struct {
	Name        string `json:"name"`
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	Draining    bool   `json:"draining"`
	ConsecFails int    `json:"consec_fails"`
	OnRing      bool   `json:"on_ring"`
	Jobs        int    `json:"jobs"`     // router jobs currently owned
	Terminal    int    `json:"terminal"` // of those, finished (cached)
}

// debugBackends serves GET /debug/backends: the ring's shape plus every
// registered backend's health-loop state and router-side job placement —
// the operator's first stop when a shard looks wedged.
func (rt *Router) debugBackends(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	ringMembers := rt.ring.Members()
	vnodes := rt.ring.Vnodes()
	onRing := make(map[string]bool, len(ringMembers))
	for _, m := range ringMembers {
		onRing[m] = true
	}
	owned := make(map[string]int)
	terminal := make(map[string]int)
	orphaned := 0
	for _, j := range rt.jobs {
		if j.backend == "" {
			orphaned++
			continue
		}
		owned[j.backend]++
		if j.terminal != nil {
			terminal[j.backend]++
		}
	}
	names := make([]string, 0, len(rt.backends))
	for name := range rt.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]BackendDebug, 0, len(names))
	for _, name := range names {
		b := rt.backends[name]
		rows = append(rows, BackendDebug{
			Name: b.name, URL: b.url, Healthy: b.healthy, Draining: b.draining,
			ConsecFails: b.consecFails, OnRing: onRing[name],
			Jobs: owned[name], Terminal: terminal[name],
		})
	}
	jobs := len(rt.jobs)
	rt.mu.Unlock()
	sort.Strings(ringMembers)
	writeJSON(w, http.StatusOK, struct {
		Vnodes      int            `json:"vnodes"`
		RingMembers []string       `json:"ring_members"`
		Jobs        int            `json:"jobs"`
		Orphaned    int            `json:"orphaned"`
		Backends    []BackendDebug `json:"backends"`
	}{vnodes, ringMembers, jobs, orphaned, rows})
}

// clusterTrace serves GET /debug/cluster-trace/{id}: one merged
// Perfetto-compatible document for a trace, assembled from the router's
// own spans plus GET /debug/spans?trace= from every registered backend.
// {id} is either a router job ID (decimal) or a raw 32-hex trace ID.
// Backends that are unreachable, answer non-200, or return bodies that do
// not decode as a span list are skipped — a dead or hostile backend must
// never make the survivors' trace unreadable.
func (rt *Router) clusterTrace(w http.ResponseWriter, r *http.Request) {
	idStr := r.PathValue("id")
	var tid trace.TraceID
	if jobID, err := strconv.ParseInt(idStr, 10, 64); err == nil {
		rt.mu.Lock()
		j := rt.jobs[jobID]
		if j != nil {
			tid = j.span.Trace
		}
		rt.mu.Unlock()
		if j == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %d", jobID))
			return
		}
		if tid.IsZero() {
			httpError(w, http.StatusNotFound, fmt.Errorf("job %d has no trace (tracing disabled at submission?)", jobID))
			return
		}
	} else if t, perr := trace.ParseTraceID(idStr); perr == nil {
		tid = t
	} else {
		httpError(w, http.StatusBadRequest, fmt.Errorf("id %q: want a router job id or 32-hex trace id", idStr))
		return
	}

	sets := [][]trace.Span{rt.tracer.ForTrace(tid)}
	type endpoint struct{ name, url string }
	rt.mu.Lock()
	eps := make([]endpoint, 0, len(rt.backends))
	for name, b := range rt.backends {
		if b.url != "" {
			eps = append(eps, endpoint{name, b.url})
		}
	}
	rt.mu.Unlock()
	// Deterministic poll order; every registered backend is asked, even
	// unhealthy ones — a drained or flapping node may still hold spans.
	sort.Slice(eps, func(i, j int) bool { return eps[i].name < eps[j].name })
	for _, ep := range eps {
		resp, err := rt.client.Get(ep.url + "/debug/spans?trace=" + tid.String())
		if err != nil {
			continue // dead backend: its spans (if any) are lost to the box
		}
		var spans []trace.Span
		if resp.StatusCode == http.StatusOK && decodeJSON(resp.Body, &spans) == nil {
			sets = append(sets, spans)
		}
		_ = resp.Body.Close()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.MergeSpans(sets...).WriteJSON(w); err != nil {
		log.Printf("ftrouter: writing merged trace: %v", err)
	}
}
