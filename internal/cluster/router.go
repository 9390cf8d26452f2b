package cluster

// Router: the shard layer. Job keys are consistent-hashed across backends
// (Ring); the router proxies the jobs API, health-checks every backend's
// /healthz, and when a backend dies or drains re-routes that shard's
// incomplete jobs to survivors by resubmitting the request body it kept —
// the same bytes the backend journals and a crash restart would replay
// through Config.Rebuild.
// Finished jobs keep serving their durable digests from the router's
// terminal-status cache, so a backend loss never un-finishes a job.
//
// Determinism makes the failure races benign: if a backend completed a
// job just before dying (terminal record not yet observed), the re-run on
// a survivor folds to the same sink digest.

import (
	"bytes"
	"encoding/json"
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
	mux.HandleFunc("GET /jobs/{id}", rt.askOwner(http.MethodGet, ""))
	mux.HandleFunc("POST /jobs/{id}/cancel", rt.askOwner(http.MethodPost, "/cancel"))
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("POST /drain/{name}", rt.drainBackend)
	mux.HandleFunc("GET /debug/backends", rt.debugBackends)
	mux.HandleFunc("GET /debug/cluster-trace/{id}", rt.clusterTrace)
	if rt.reg != nil {
		mux.HandleFunc("GET /metrics", metricsHandler(rt.reg))
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
		rep, err := rt.postJob(b, body, ctx)
		if err != nil {
			log.Printf("ftrouter: submit to %s: %v", b.name, err)
			worst = http.StatusServiceUnavailable
			continue
		}
		switch {
		case rep.code == http.StatusAccepted:
			if i > 0 {
				rt.spillover.Inc()
			}
			b.routed.Inc()
			rs := rt.recordJob(key, body, b.name, rep.accepted.ID, ctx)
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
		case rep.code == http.StatusTooManyRequests || rep.code == http.StatusServiceUnavailable:
			if rep.code > worst {
				worst = rep.code
			}
			if rep.retryAfter > retryAfter {
				retryAfter = rep.retryAfter
			}
		default:
			// A 4xx (bad request) is the client's problem, not capacity:
			// relay the first backend's verdict unmodified.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rep.code)
			_, _ = w.Write(rep.body) // the client is gone if this fails
			return
		}
	}
	rt.rejectSaturated(w, retryAfter, worst)
}

// rejectSaturated answers an all-backends-busy submission with the strongest
// backend Retry-After hint, or one second when no backend offered one: then
// every candidate errored, is draining or none is live, and no job's latency
// says when one comes back.
func (rt *Router) rejectSaturated(w http.ResponseWriter, retryAfter, code int) {
	rt.saturated.Inc()
	if retryAfter < 1 {
		retryAfter = retryAfterSeconds(0)
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	if code == 0 {
		code = http.StatusServiceUnavailable
	}
	httpError(w, code, errors.New("all backends saturated or unavailable"))
}

// backendReply is a backend's answer to POST /jobs.
type backendReply struct {
	code       int
	retryAfter int            // the Retry-After hint in seconds, 0 without one
	accepted   service.Status // the admitted job, on a 202
	body       []byte         // the reply as sent, which a 4xx relays
}

// postJob submits body to b. A valid ctx rides the FT-Trace header so the
// backend's spans join the same trace.
func (rt *Router) postJob(b *backendState, body []byte, ctx trace.SpanContext) (backendReply, error) {
	req, err := http.NewRequest(http.MethodPost, b.url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return backendReply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ctx.Valid() {
		req.Header.Set(trace.HeaderName, ctx.Header())
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return backendReply{}, err
	}
	defer func() { _ = resp.Body.Close() }() // readReply drains it
	rep := backendReply{code: resp.StatusCode}
	if rep.body, err = readReply(resp.Body); err != nil {
		return backendReply{}, err
	}
	if rep.code == http.StatusAccepted {
		if err := json.Unmarshal(rep.body, &rep.accepted); err != nil {
			return backendReply{}, err
		}
	}
	rep.retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
	return rep, nil
}

// recordJob mints the router-side identity for an accepted submission.
func (rt *Router) recordJob(key string, body []byte, backend string, remoteID int64, ctx trace.SpanContext) RoutedStatus {
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
// rewriting the identity to the router's: the reply to method on the job's
// path plus suffix (GET "" for its status, POST "/cancel" to cancel it). A
// terminal status is cached — after that the owner can die without the job's
// digest becoming unreachable — but only while the job is still at p: a job
// moved during the fetch is no longer the one its old owner reported on.
func (rt *Router) fetchStatus(j *routedJob, p placement, method, suffix string) (RoutedStatus, error) {
	req, err := http.NewRequest(method, fmt.Sprintf("%s/jobs/%d%s", p.url, p.remoteID, suffix), nil)
	if err != nil {
		return RoutedStatus{}, err
	}
	resp, err := rt.client.Do(req)
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
	}
	return rs, nil
}

// askOwner serves a request on one job that the job's owner answers with
// the job's status — GET /jobs/{id}, and POST /jobs/{id}/cancel — by sending
// method and suffix to the owner (see fetchStatus). A job with a cached
// terminal status is answered from the cache, and one whose owner is down
// with 503.
func (rt *Router) askOwner(method, suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		rt.mu.Lock()
		j := rt.jobs[id]
		rt.mu.Unlock()
		if j == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
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
		rs, err := rt.fetchStatus(j, p, method, suffix)
		if err != nil {
			httpError(w, http.StatusBadGateway, err)
			return
		}
		writeJSON(w, http.StatusOK, rs)
	}
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
			rs, err := rt.fetchStatus(j, p, http.MethodGet, "")
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

// healthz reports whether the router can place a job: "ok" with the number
// of live backends, or "no-backends" once every one is dead or draining.
// GET /debug/backends has the per-backend rows.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	live := 0
	for _, b := range rt.backends {
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
		Status string `json:"status"`
		Live   int    `json:"live"`
		Jobs   int    `json:"jobs"`
	}{status, live, jobs})
}

// sortedBackends returns every registered backend in name order. The caller
// holds rt.mu.
func (rt *Router) sortedBackends() []*backendState {
	out := make([]*backendState, 0, len(rt.backends))
	for _, b := range rt.backends {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
