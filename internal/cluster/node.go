package cluster

// Backend-side HTTP surface. Node is the one jobs API in the tree: ftserve,
// the ftsoak -cluster children and the cluster tests all serve Node.Mux(),
// each over its own Build vocabulary, so the soaks kill the handlers
// production serves. Its /journal/stream serves the journal's files as raw
// bytes; the standby checks them record by record (stream.go).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

const (
	// streamMaxResponse caps the bytes one /journal/stream request returns;
	// a follower behind by more than this catches up over successive
	// requests, each resuming where the last one's bytes ended.
	streamMaxResponse = 1 << 20
	// maxSubmitBody bounds a submission body; a larger one answers 413.
	maxSubmitBody = 1 << 20
)

// streamHandler serves a journal's tailing protocol:
//
//	GET /journal/stream              the TailManifest (JSON)
//	GET /journal/stream?seg=N&off=M  up to streamMaxResponse raw bytes of
//	                                 segment N from offset M (octet-stream)
//	GET /journal/stream?snap=N       snapshot N's raw bytes
//
// A missing segment or snapshot answers 404: it was compacted away and the
// follower must refetch the manifest. A nil journal (server started
// without -data-dir) answers 503 — there is nothing durable to replicate.
func streamHandler(j *journal.Journal) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if j == nil {
			httpError(w, http.StatusServiceUnavailable, errors.New("journal streaming requires a durable server (-data-dir)"))
			return
		}
		q := r.URL.Query()
		key := "snap"
		if q.Get(key) == "" {
			key = "seg"
		}
		if q.Get(key) == "" {
			m, err := j.TailManifest()
			if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			writeJSON(w, http.StatusOK, m)
			return
		}
		seq, err := strconv.ParseUint(q.Get(key), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q", key, q.Get(key)))
			return
		}
		var data []byte
		if key == "snap" {
			data, err = j.SnapshotBytes(seq)
		} else {
			off, perr := strconv.ParseInt(q.Get("off"), 10, 64)
			if perr != nil || off < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad off %q", q.Get("off")))
				return
			}
			data, err = j.ReadSegmentAt(seq, off, streamMaxResponse)
		}
		if err != nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("%s %d: %v", key, seq, err))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(data); err != nil {
			log.Printf("cluster: writing %s %d: %v", key, seq, err)
		}
	}
}

// drain serves POST /drain: stop admission, give in-flight jobs ?grace_ms
// (default NodeConfig.DrainGrace) to finish, checkpoint the rest as
// incomplete, and return the service.DrainResult — the IDs of the jobs the
// router resubmits elsewhere.
func (n *Node) drain(w http.ResponseWriter, r *http.Request) {
	grace := n.cfg.DrainGrace
	if v := r.URL.Query().Get("grace_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad grace_ms %q", v))
			return
		}
		grace = time.Duration(ms) * time.Millisecond
	}
	writeJSON(w, http.StatusOK, n.cfg.Service.Drain(grace))
}

// NodeConfig configures a backend's HTTP surface. The rest of what the node
// serves comes from the Service's Config: its Journal at /journal/stream;
// its Rebuild, which turns a submission body into a JobSpec (the node
// journals the body itself as the job's payload, so live submission and
// crash replay run the same function over the same bytes); its Tracer at
// GET /debug/spans and GET /jobs/{id}/trace; its Registry at GET /metrics,
// with the node's uptime gauge added.
type NodeConfig struct {
	// Name labels the node in healthz responses and logs.
	Name string
	// Service executes the jobs.
	Service *service.Server
	// DrainGrace is the default /drain grace when the request carries no
	// grace_ms parameter.
	DrainGrace time.Duration
}

// Node serves a backend's whole HTTP API — jobs, traces, metrics, debug
// state, healthz and the cluster endpoints (/journal/stream, /drain) —
// against any Build vocabulary.
type Node struct {
	cfg    NodeConfig
	sc     service.Config // the Service's
	uptime func() float64 // seconds; the registry's clock (this package keeps none)
}

// NewNode wires a backend node around a running service.
func NewNode(cfg NodeConfig) *Node {
	sc := cfg.Service.Config()
	return &Node{cfg: cfg, sc: sc, uptime: sc.Registry.Uptime("Seconds since the node started.")}
}

// Mux builds the node's route table:
//
//	POST /jobs              submit a job (the body is Build's to interpret)
//	GET  /jobs              list the kept jobs (running jobs show live progress)
//	GET  /jobs/{id}         one job's status (live while running; 410 once
//	                        it has aged out of the retention window)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /jobs/{id}/trace   the job's spans as a Chrome/Perfetto trace
//	GET  /metrics           Prometheus text exposition (scheduler, executor,
//	                        block store, journal, and service families)
//	GET  /debug/state       the full JSON state snapshot (queue depths,
//	                        scheduler stats, recovery totals, journal counters)
//	GET  /debug/spans       the process's distributed-tracing spans
//	                        (?trace=<32 hex> filters to one trace)
//	GET  /healthz           liveness: the Health body
//	GET  /journal/stream    the WAL tailing protocol a standby follows
//	POST /drain             stop admission, checkpoint, hand the rest back
//
// Replies are compact JSON, errors {"error": "..."}. Method-qualified
// patterns make the mux answer wrong-method requests with 405 and an Allow
// header for free.
func (n *Node) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", n.submit)
	mux.HandleFunc("GET /jobs", n.list)
	mux.HandleFunc("GET /jobs/{id}", n.status)
	mux.HandleFunc("POST /jobs/{id}/cancel", n.cancel)
	mux.HandleFunc("GET /jobs/{id}/trace", n.jobTrace)
	mux.HandleFunc("GET /metrics", metricsHandler(n.sc.Registry))
	mux.HandleFunc("GET /debug/state", n.debugState)
	mux.HandleFunc("GET /debug/spans", n.spans)
	mux.HandleFunc("GET /healthz", n.healthz)
	mux.HandleFunc("GET /journal/stream", streamHandler(n.sc.Journal))
	mux.HandleFunc("POST /drain", n.drain)
	return mux
}

// readSubmission reads a submission body whole, answering 413 past
// maxSubmitBody — never a silently truncated prefix, which would be
// journaled, or routed, as if it were the request.
func readSubmission(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("reading submission: %w", err))
		return nil, false
	}
	return body, true
}

func (n *Node) submit(w http.ResponseWriter, r *http.Request) {
	body, ok := readSubmission(w, r)
	if !ok {
		return
	}
	spec, err := n.sc.Rebuild(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// An FT-Trace header (shard router, failover resubmission, or a traced
	// client) parents this job's spans into the caller's trace. A malformed
	// header is ignored — tracing is diagnostic, never load-bearing.
	if ctx, err := trace.ParseHeader(r.Header.Get(trace.HeaderName)); err == nil && ctx.Valid() {
		spec.Span = ctx
	}
	if n.sc.Journal != nil {
		spec.Payload = body
	}
	h, err := n.cfg.Service.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, h.Status())
}

func (n *Node) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.cfg.Service.Jobs())
}

// pathID parses the {id} of a job route, answering 400 when it is no number.
func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

func (n *Node) job(w http.ResponseWriter, r *http.Request) (*service.Handle, bool) {
	id, ok := pathID(w, r)
	if !ok {
		return nil, false
	}
	h, err := n.cfg.Service.Job(id)
	if err != nil {
		code := http.StatusNotFound
		if errors.Is(err, service.ErrExpired) {
			code = http.StatusGone
		}
		httpError(w, code, fmt.Errorf("job %d: %w", id, err))
		return nil, false
	}
	return h, true
}

func (n *Node) status(w http.ResponseWriter, r *http.Request) {
	if h, ok := n.job(w, r); ok {
		writeJSON(w, http.StatusOK, h.Status())
	}
}

func (n *Node) cancel(w http.ResponseWriter, r *http.Request) {
	if h, ok := n.job(w, r); ok {
		h.Cancel()
		writeJSON(w, http.StatusOK, h.Status())
	}
}

// jobTrace serves a job's spans in this process's ring — admission, queue
// wait, run, and every executor span under it — as the merged document the
// router's /debug/cluster-trace builds for a whole trace. A node without a
// tracer, or whose ring holds no span of the job any more, answers 404.
func (n *Node) jobTrace(w http.ResponseWriter, r *http.Request) {
	h, ok := n.job(w, r)
	if !ok {
		return
	}
	var spans []trace.Span
	for _, sp := range n.sc.Tracer.ForTrace(h.Span().Trace) {
		if sp.Job == h.ID() {
			spans = append(spans, sp)
		}
	}
	if len(spans) == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("no span of job %d in this node's span ring", h.ID()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.MergeSpans(spans).WriteJSON(w); err != nil {
		log.Printf("cluster: writing trace of job %d: %v", h.ID(), err)
	}
}

// metricsHandler serves reg in Prometheus text exposition format (empty for
// a nil registry): a node's GET /metrics and a router's.
func metricsHandler(reg *metrics.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.TextContentType)
		if err := reg.WritePrometheus(w); err != nil {
			log.Printf("cluster: writing metrics: %v", err)
		}
	}
}

// journalStats is the journal's counters, nil on a memory-only node.
func (n *Node) journalStats() *journal.Stats {
	if n.sc.Journal == nil {
		return nil
	}
	s := n.sc.Journal.Stats()
	return &s
}

// debugState is the full JSON state snapshot: queue depths, scheduler
// stats, aggregated recovery totals, journal counters.
func (n *Node) debugState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		UptimeSec float64 `json:"uptime_sec"`
		service.Snapshot
		Journal *journal.Stats `json:"journal,omitempty"`
	}{n.uptime(), n.cfg.Service.Snapshot(), n.journalStats()})
}

// spans serves GET /debug/spans: the process's retained spans as a JSON
// array, oldest first. ?trace=<32 hex> filters to one trace — the form the
// router's /debug/cluster-trace merge polls. A nil recorder (tracing off)
// serves an empty list, not an error, so the router's merge loop needs no
// special case for untraced backends.
func (n *Node) spans(w http.ResponseWriter, r *http.Request) {
	var out []trace.Span
	if v := r.URL.Query().Get("trace"); v != "" {
		tid, err := trace.ParseTraceID(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		out = n.sc.Tracer.ForTrace(tid)
	} else {
		out = n.sc.Tracer.Snapshot()
	}
	if out == nil {
		out = []trace.Span{}
	}
	writeJSON(w, http.StatusOK, out)
}

// Health is a backend's healthz body, the one the Router's probe decodes.
type Health struct {
	Status    string         `json:"status"` // "ok" or "draining"
	Name      string         `json:"name,omitempty"`
	UptimeSec float64        `json:"uptime_sec"`
	Workers   int            `json:"workers"`
	Durable   bool           `json:"durable"`
	Draining  bool           `json:"draining"`
	Journal   *journal.Stats `json:"journal,omitempty"`
}

func (n *Node) healthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:    "ok",
		Name:      n.cfg.Name,
		UptimeSec: n.uptime(),
		Workers:   n.sc.Workers,
		Durable:   n.sc.Journal != nil,
		Journal:   n.journalStats(),
	}
	if n.cfg.Service.Draining() {
		// A shard router treats a draining node as live but unplaceable.
		h.Status, h.Draining = "draining", true
	}
	writeJSON(w, http.StatusOK, h)
}

// writeSubmitError maps a Submit error onto the wire: queue saturation
// answers 429 with the service's Retry-After hint; draining and closed
// answer 503 (resubmit elsewhere); anything else is a 500 — the
// backpressure dialect the router propagates.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrQueueFull):
		var qf *service.QueueFullError
		if errors.As(err, &qf) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(qf.RetryAfter)))
		}
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, service.ErrDraining), errors.Is(err, service.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

// retryAfterSeconds rounds a backpressure hint to the whole seconds the
// Retry-After header speaks, with a floor of 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeJSON is the tree's one JSON reply writer: compact, one value per line.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("cluster: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeJSON decodes a reply that holds one JSON value, as writeJSON writes
// it, read by readReply.
func decodeJSON(r io.Reader, v any) error {
	body, err := readReply(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// readReply reads a peer's reply to its end, so the keep-alive connection is
// reusable, and at most journal.MaxSnapshotBytes of it, the largest reply a
// follower takes: a peer that sends more, or streams without end, costs that
// many bytes and an error, not memory without bound or the whole client
// timeout.
func readReply(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, int64(journal.MaxSnapshotBytes)+1))
	if err != nil {
		return nil, err
	}
	if len(body) > journal.MaxSnapshotBytes {
		return nil, fmt.Errorf("cluster: reply longer than %d bytes", journal.MaxSnapshotBytes)
	}
	return body, nil
}
