package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// newTracedBackend is newTestBackend with a span recorder threaded through
// the service and the node's /debug/spans endpoint.
func newTracedBackend(t *testing.T, name string, durable bool) (*testBackend, *trace.Spans) {
	t.Helper()
	sp := trace.NewSpans(name, 4096)
	cfg := service.Config{Workers: 2, MaxConcurrentJobs: 2, MaxQueuedJobs: 8, Rebuild: buildTestJob, Tracer: sp}
	var jr *journal.Journal
	if durable {
		var err error
		jr, err = journal.Open(journal.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = jr
	}
	srv := service.New(cfg)
	node := NewNode(NodeConfig{Name: name, Service: srv, DrainGrace: time.Second})
	ts := httptest.NewServer(node.Mux())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &testBackend{name: name, ts: ts, srv: srv, jr: jr}, sp
}

// newTracedRouter is newTestRouter with a span recorder.
func newTracedRouter(t *testing.T, reg *metrics.Registry, backends ...*testBackend) (*Router, *trace.Spans, *httptest.Server) {
	t.Helper()
	sp := trace.NewSpans("router", 4096)
	rt := NewRouter(RouterConfig{
		Registry:       reg,
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		Client:         &http.Client{Timeout: 5 * time.Second},
		Tracer:         sp,
	})
	for _, b := range backends {
		if err := rt.AddBackend(b.name, b.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt.Start()
	ts := httptest.NewServer(rt.Mux())
	t.Cleanup(func() {
		ts.Close()
		rt.Stop()
	})
	return rt, sp, ts
}

// findSpan returns the first retained span matching name and job.
func findSpan(sp *trace.Spans, name string, job int64) (trace.Span, bool) {
	for _, s := range sp.Snapshot() {
		if s.Name == name && s.Job == job {
			return s, true
		}
	}
	return trace.Span{}, false
}

// TestTracePropagatesRouterToBackend: a client-minted FT-Trace context
// survives router admission into the backend's span ring — one trace ID
// end to end, with the backend's job-submit span parented to the router's
// cluster-submit span.
func TestTracePropagatesRouterToBackend(t *testing.T) {
	b, bsp := newTracedBackend(t, "solo", false)
	_, rsp, ts := newTracedRouter(t, nil, b)

	client := trace.SpanContext{Trace: trace.NewTraceID(), Span: 0xc11e47}
	req, err := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(`{"name":"traced","tasks":4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.HeaderName, client.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rs RoutedStatus
	decErr := json.NewDecoder(resp.Body).Decode(&rs)
	_ = resp.Body.Close() // decoded above
	if resp.StatusCode != http.StatusAccepted || decErr != nil {
		t.Fatalf("submit: %s (decode %v)", resp.Status, decErr)
	}
	waitTerminal(t, ts.URL, rs.ID, 10*time.Second)

	submit, ok := findSpan(rsp, "cluster-submit", rs.ID)
	if !ok {
		t.Fatalf("router ring has no cluster-submit span for job %d: %+v", rs.ID, rsp.Snapshot())
	}
	if submit.Trace != client.Trace {
		t.Fatalf("router span trace %s, want the client's %s", submit.Trace, client.Trace)
	}
	if submit.Parent != client.Span {
		t.Fatalf("cluster-submit parents to %s, want the client span %s", submit.Parent, client.Span)
	}

	// The backend continued the same trace: its job-submit span parents to
	// the router's cluster-submit span, and job-run chains below that.
	backendSpans := bsp.ForTrace(client.Trace)
	if len(backendSpans) == 0 {
		t.Fatalf("backend ring has no spans under trace %s", client.Trace)
	}
	var jobSubmit, jobRun *trace.Span
	for i := range backendSpans {
		switch backendSpans[i].Name {
		case "submit":
			jobSubmit = &backendSpans[i]
		case "job-run":
			jobRun = &backendSpans[i]
		}
	}
	if jobSubmit == nil || jobRun == nil {
		t.Fatalf("backend trace misses submit or job-run: %+v", backendSpans)
	}
	if jobSubmit.Parent != submit.ID {
		t.Fatalf("backend job-submit parents to %s, want the router's %s", jobSubmit.Parent, submit.ID)
	}
	if jobRun.Parent != jobSubmit.ID {
		t.Fatalf("job-run parents to %s, want job-submit %s", jobRun.Parent, jobSubmit.ID)
	}

	// The backend's /debug/spans endpoint serves the same spans.
	sresp, err := http.Get(b.ts.URL + "/debug/spans?trace=" + client.Trace.String())
	if err != nil {
		t.Fatal(err)
	}
	var served []trace.Span
	decErr = json.NewDecoder(sresp.Body).Decode(&served)
	_ = sresp.Body.Close() // decoded above
	if sresp.StatusCode != http.StatusOK || decErr != nil {
		t.Fatalf("/debug/spans: %s (decode %v)", sresp.Status, decErr)
	}
	if len(served) != len(backendSpans) {
		t.Fatalf("/debug/spans served %d spans, ring has %d", len(served), len(backendSpans))
	}
}

// TestMalformedTraceHeaderMintsFresh: garbage in FT-Trace must not break
// admission — the router mints a fresh trace instead.
func TestMalformedTraceHeaderMintsFresh(t *testing.T) {
	b, _ := newTracedBackend(t, "solo", false)
	_, rsp, ts := newTracedRouter(t, nil, b)
	_ = b

	req, err := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(`{"name":"bad-header","tasks":4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.HeaderName, "not-a-trace-context")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rs RoutedStatus
	decErr := json.NewDecoder(resp.Body).Decode(&rs)
	_ = resp.Body.Close() // decoded above
	if resp.StatusCode != http.StatusAccepted || decErr != nil {
		t.Fatalf("submit with garbage header: %s (decode %v)", resp.Status, decErr)
	}
	submit, ok := findSpan(rsp, "cluster-submit", rs.ID)
	if !ok {
		t.Fatalf("no cluster-submit span for job %d", rs.ID)
	}
	if submit.Trace.IsZero() {
		t.Fatal("router did not mint a fresh trace for the garbage header")
	}
	if submit.Parent != 0 {
		t.Fatalf("fresh trace must have no client parent, got %s", submit.Parent)
	}
}

// TestFailoverResubmitKeepsTraceID: when the router reroutes a job off a
// dead backend, the resubmission continues the original trace — same
// trace ID, failover-resubmit span parented to the original cluster-submit
// span, and the survivor's spans joining the same trace.
func TestFailoverResubmitKeepsTraceID(t *testing.T) {
	victim, _ := newTracedBackend(t, "victim", true)
	survivor, ssp := newTracedBackend(t, "survivor", true)
	reg := metrics.NewRegistry()
	_, rsp, ts := newTracedRouter(t, reg, victim, survivor)

	vKey := keyOwnedBy("victim", "victim", "survivor")
	resp, rs := submitViaRouter(t, ts.URL, vKey, `{"name":"fo-trace","tasks":8,"sleep_ms":150}`)
	if resp.StatusCode != http.StatusAccepted || rs.Backend != "victim" {
		t.Fatalf("submit: %s on %q, want 202 on victim", resp.Status, rs.Backend)
	}

	victim.ts.CloseClientConnections()
	victim.ts.Close()
	final := waitTerminal(t, ts.URL, rs.ID, 20*time.Second)
	if final.State != service.Succeeded || final.Backend != "survivor" {
		t.Fatalf("failed-over job: %+v", final)
	}

	submit, ok := findSpan(rsp, "cluster-submit", rs.ID)
	if !ok {
		t.Fatalf("no cluster-submit span for job %d", rs.ID)
	}
	resubmit, ok := findSpan(rsp, "failover-resubmit", rs.ID)
	if !ok {
		t.Fatalf("no failover-resubmit span for job %d", rs.ID)
	}
	if resubmit.Trace != submit.Trace {
		t.Fatalf("failover resubmission switched trace: %s → %s", submit.Trace, resubmit.Trace)
	}
	if resubmit.Parent != submit.ID {
		t.Fatalf("failover-resubmit parents to %s, want the original submit span %s",
			resubmit.Parent, submit.ID)
	}
	if resubmit.Note != "survivor" {
		t.Fatalf("failover-resubmit note %q, want the new backend", resubmit.Note)
	}

	// The survivor picked the trace up from the resubmission's FT-Trace
	// header: its job-submit span parents to the failover-resubmit span.
	var jobSubmit *trace.Span
	for _, s := range ssp.ForTrace(submit.Trace) {
		if s.Name == "submit" {
			cp := s
			jobSubmit = &cp
			break
		}
	}
	if jobSubmit == nil {
		t.Fatalf("survivor has no spans under the original trace %s", submit.Trace)
	}
	if jobSubmit.Parent != resubmit.ID {
		t.Fatalf("survivor job-submit parents to %s, want failover-resubmit %s",
			jobSubmit.Parent, resubmit.ID)
	}
}

// TestDrainMigrateKeepsTraceID: a job drained off its backend continues its
// trace on the target, though the drain reports no more than the job's ID:
// the router re-sends its own copy of the request under the span it kept. The
// drain-migrate span parents to the original cluster-submit span, and the
// target's spans for the job carry the same trace ID.
func TestDrainMigrateKeepsTraceID(t *testing.T) {
	source, _ := newTracedBackend(t, "source", true)
	target, tsp := newTracedBackend(t, "target", true)
	_, rsp, ts := newTracedRouter(t, nil, source, target)

	key := keyOwnedBy("source", "source", "target")
	resp, rs := submitViaRouter(t, ts.URL, key, `{"name":"mig-trace","tasks":8,"sleep_ms":150}`)
	if resp.StatusCode != http.StatusAccepted || rs.Backend != "source" {
		t.Fatalf("submit: %s on %q, want 202 on source", resp.Status, rs.Backend)
	}
	dresp, err := http.Post(ts.URL+"/drain/source?grace_ms=50", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Migrated int `json:"migrated"`
	}
	decErr := json.NewDecoder(dresp.Body).Decode(&dr)
	_ = dresp.Body.Close() // decoded above
	if dresp.StatusCode != http.StatusOK || decErr != nil || dr.Migrated != 1 {
		t.Fatalf("drain: %s %+v (decode %v), want 1 migrated", dresp.Status, dr, decErr)
	}
	final := waitTerminal(t, ts.URL, rs.ID, 20*time.Second)
	if final.State != service.Succeeded || final.Backend != "target" {
		t.Fatalf("migrated job: %+v, want succeeded on target", final)
	}

	submit, ok := findSpan(rsp, "cluster-submit", rs.ID)
	if !ok {
		t.Fatalf("no cluster-submit span for job %d", rs.ID)
	}
	migrate, ok := findSpan(rsp, "drain-migrate", rs.ID)
	if !ok {
		t.Fatalf("no drain-migrate span for job %d", rs.ID)
	}
	if migrate.Trace != submit.Trace || migrate.Parent != submit.ID || migrate.Note != "target" {
		t.Fatalf("drain-migrate span %+v, want trace %s, parent %s (the cluster-submit span), note target",
			migrate, submit.Trace, submit.ID)
	}

	var spans []trace.Span
	for _, s := range tsp.Snapshot() {
		if s.Job == final.BackendID {
			spans = append(spans, s)
		}
	}
	if len(spans) == 0 {
		t.Fatalf("target holds no span of its job %d", final.BackendID)
	}
	for _, s := range spans {
		if s.Trace != submit.Trace {
			t.Fatalf("target span %q of the job is in trace %s, want the original %s", s.Name, s.Trace, submit.Trace)
		}
		if s.Name == "submit" && s.Parent != migrate.ID {
			t.Fatalf("target submit span parents to %s, want drain-migrate %s", s.Parent, migrate.ID)
		}
	}
}

// TestRouterBoxWithoutTracing: the router's black box records placements and
// reroutes whether or not it has a span recorder — with tracing off it is
// the only record of them.
func TestRouterBoxWithoutTracing(t *testing.T) {
	victim := newTestBackend(t, "victim", true)
	survivor := newTestBackend(t, "survivor", true)
	dir := t.TempDir()
	fl := trace.NewFlight("router", 64)
	if err := fl.Persist(dir); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(RouterConfig{
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		Client:         &http.Client{Timeout: 5 * time.Second},
		Flight:         fl,
	})
	for _, b := range []*testBackend{victim, survivor} {
		if err := rt.AddBackend(b.name, b.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt.Start()
	ts := httptest.NewServer(rt.Mux())
	defer func() {
		ts.Close()
		rt.Stop()
	}()

	vKey := keyOwnedBy("victim", "victim", "survivor")
	resp, rs := submitViaRouter(t, ts.URL, vKey, `{"name":"fo-box","tasks":8,"sleep_ms":50}`)
	if resp.StatusCode != http.StatusAccepted || rs.Backend != "victim" {
		t.Fatalf("submit: %s on %q, want 202 on victim", resp.Status, rs.Backend)
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()
	if final := waitTerminal(t, ts.URL, rs.ID, 20*time.Second); final.Backend != "survivor" {
		t.Fatalf("failed-over job: %+v", final)
	}
	if err := fl.Close("test"); err != nil {
		t.Fatal(err)
	}
	box, err := trace.ReadBlackBox(trace.BoxPath(dir, "router"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, e := range box.Events {
		if e.Job == rs.ID {
			kinds[e.Kind]++
		}
	}
	if kinds["cluster-submit"] != 1 || kinds["failover-resubmit"] != 1 {
		t.Fatalf("router box events for job %d: %v, want one cluster-submit and one failover-resubmit", rs.ID, kinds)
	}
}

// TestClusterTraceEndpoint: the merged document is valid Perfetto-style
// JSON spanning router and backend processes, job IDs and raw trace IDs
// both resolve, and junk IDs are rejected.
func TestClusterTraceEndpoint(t *testing.T) {
	b, _ := newTracedBackend(t, "solo", false)
	_, rsp, ts := newTracedRouter(t, nil, b)

	resp, rs := submitViaRouter(t, ts.URL, "", `{"name":"merge","tasks":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	waitTerminal(t, ts.URL, rs.ID, 10*time.Second)

	fetch := func(id string) (*http.Response, []byte) {
		t.Helper()
		r, err := http.Get(ts.URL + "/debug/cluster-trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		_ = r.Body.Close() // fully read above
		return r, raw
	}

	r, raw := fetch(fmt.Sprint(rs.ID))
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cluster-trace by job ID: %s (%s)", r.Status, raw)
	}
	var m trace.MergedTrace
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	if len(m.Spans) == 0 || len(m.TraceEvents) == 0 || len(m.CriticalPath) == 0 {
		t.Fatalf("merged trace empty: %d spans, %d events, %d critical-path", len(m.Spans), len(m.TraceEvents), len(m.CriticalPath))
	}
	procs := map[string]bool{}
	for _, s := range m.Spans {
		procs[s.Proc] = true
	}
	if !procs["router"] || !procs["solo"] {
		t.Fatalf("merged trace procs %v, want router and solo", procs)
	}

	// The same document must be reachable by raw 32-hex trace ID.
	submit, ok := findSpan(rsp, "cluster-submit", rs.ID)
	if !ok {
		t.Fatal("no cluster-submit span")
	}
	r, raw = fetch(submit.Trace.String())
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cluster-trace by trace ID: %s (%s)", r.Status, raw)
	}
	var m2 trace.MergedTrace
	if err := json.Unmarshal(raw, &m2); err != nil {
		t.Fatal(err)
	}
	if len(m2.Spans) != len(m.Spans) {
		t.Fatalf("by-trace-ID lookup returned %d spans, by-job-ID %d", len(m2.Spans), len(m.Spans))
	}

	if r, _ = fetch("999999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job ID: %s, want 404", r.Status)
	}
	if r, _ = fetch("zzzz"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk ID: %s, want 400", r.Status)
	}
}

// TestClusterTraceSurvivesHostileBackend: a backend whose /debug/spans
// returns truncated garbage must not poison the merged document — its
// spans are skipped and the healthy processes still merge into valid JSON.
func TestClusterTraceSurvivesHostileBackend(t *testing.T) {
	good, _ := newTracedBackend(t, "good", false)
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/healthz"):
			w.WriteHeader(http.StatusOK)
		case strings.HasPrefix(r.URL.Path, "/debug/spans"):
			// Truncated mid-array: a crash between write and flush.
			_, _ = w.Write([]byte(`[{"trace":"0123456789abcdef0123456789abcdef","id":"00000000`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer hostile.Close()

	rt, _, ts := newTracedRouter(t, nil, good)
	// Register the hostile backend after the router is up so its
	// /debug/spans gets polled during the merge; the submission is pinned
	// to the good backend by shard key.
	if err := rt.AddBackend("hostile", hostile.URL); err != nil {
		t.Fatal(err)
	}
	resp, rs := submitViaRouter(t, ts.URL, keyOwnedBy("good", "good", "hostile"), `{"name":"hostile","tasks":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	waitTerminal(t, ts.URL, rs.ID, 10*time.Second)

	r, err := http.Get(ts.URL + "/debug/cluster-trace/" + fmt.Sprint(rs.ID))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	_ = r.Body.Close() // fully read above
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cluster-trace: %s", r.Status)
	}
	var m trace.MergedTrace
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("merged trace with hostile backend is not valid JSON: %v", err)
	}
	if len(m.Spans) == 0 {
		t.Fatal("healthy spans vanished from the merge")
	}
}
