package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// testReq is the cluster test backends' submission vocabulary: a chain of
// tasks, optionally sleeping per task so jobs stay in flight long enough
// to be killed, drained, or spilled over.
type testReq struct {
	Name    string `json:"name"`
	Tasks   int    `json:"tasks"`
	SleepMS int    `json:"sleep_ms,omitempty"`
}

func buildTestJob(body []byte) (service.JobSpec, error) {
	var req testReq
	if err := json.Unmarshal(body, &req); err != nil {
		return service.JobSpec{}, err
	}
	if req.Tasks <= 0 {
		req.Tasks = 4
	}
	var compute func(graph.Key, [][]float64) []float64
	if req.SleepMS > 0 {
		d := time.Duration(req.SleepMS) * time.Millisecond
		compute = func(key graph.Key, vals [][]float64) []float64 {
			time.Sleep(d)
			sum := float64(key)
			for _, v := range vals {
				for _, x := range v {
					sum += x
				}
			}
			return []float64{sum}
		}
	}
	return service.JobSpec{Name: req.Name, Spec: graph.Chain(req.Tasks, compute)}, nil
}

// testBackend is one live HTTP backend for router tests.
type testBackend struct {
	name string
	ts   *httptest.Server
	srv  *service.Server
	jr   *journal.Journal
}

func newTestBackend(t *testing.T, name string, durable bool) *testBackend {
	t.Helper()
	cfg := service.Config{Workers: 2, MaxConcurrentJobs: 2, MaxQueuedJobs: 8, Rebuild: buildTestJob}
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
	return &testBackend{name: name, ts: ts, srv: srv, jr: jr}
}

// newTestRouter wires a router over the given backends with a fast health
// loop, served over real HTTP.
func newTestRouter(t *testing.T, reg *metrics.Registry, backends ...*testBackend) (*Router, *httptest.Server) {
	t.Helper()
	rt := NewRouter(RouterConfig{
		Registry:       reg,
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		Client:         &http.Client{Timeout: 5 * time.Second},
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
	return rt, ts
}

// keyOwnedBy finds a shard key whose home is the named backend, using the
// same ring parameters as the router.
func keyOwnedBy(owner string, members ...string) string {
	r := NewRing(0)
	for _, m := range members {
		r.Add(m)
	}
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("pin-%d", i)
		if r.Owner(k) == owner {
			return k
		}
	}
	panic("no key found for " + owner)
}

func submitViaRouter(t *testing.T, routerURL, shardKey, body string) (*http.Response, RoutedStatus) {
	t.Helper()
	req, err := http.NewRequest("POST", routerURL+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if shardKey != "" {
		req.Header.Set("X-Shard-Key", shardKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rs RoutedStatus
	raw, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read above
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &rs); err != nil {
			t.Fatalf("decoding accepted response %q: %v", raw, err)
		}
	}
	return resp, rs
}

// waitTerminal polls the router until the job reaches a terminal state.
// 503s are tolerated along the way: they are the failover window.
func waitTerminal(t *testing.T, routerURL string, id int64, timeout time.Duration) RoutedStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", routerURL, id))
		if err != nil {
			t.Fatal(err)
		}
		var rs RoutedStatus
		code := resp.StatusCode
		decErr := json.NewDecoder(resp.Body).Decode(&rs)
		_ = resp.Body.Close() // decoded above
		if code == http.StatusOK && decErr == nil && rs.State.Terminal() {
			return rs
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %d did not reach a terminal state within %v", id, timeout)
	return RoutedStatus{}
}

// TestRouterRoutesAcrossBackends: submissions spread across the fleet,
// every job completes with a digest, and the routing counters reconcile.
func TestRouterRoutesAcrossBackends(t *testing.T) {
	b1 := newTestBackend(t, "alpha", false)
	b2 := newTestBackend(t, "beta", false)
	reg := metrics.NewRegistry()
	_, ts := newTestRouter(t, reg, b1, b2)

	const jobs = 16
	ids := make([]int64, 0, jobs)
	for i := 0; i < jobs; i++ {
		body := fmt.Sprintf(`{"name":"job-%d","tasks":3}`, i)
		resp, rs := submitViaRouter(t, ts.URL, "", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		if rs.Backend == "" {
			t.Fatalf("submit %d: no backend in %+v", i, rs)
		}
		ids = append(ids, rs.ID)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		rs := waitTerminal(t, ts.URL, id, 10*time.Second)
		if rs.State != service.Succeeded || rs.SinkDigest == "" {
			t.Fatalf("job %d: %+v, want succeeded with digest", id, rs)
		}
		seen[rs.Backend] = true
	}
	if !seen["alpha"] || !seen["beta"] {
		t.Fatalf("jobs all landed on one backend: %v", seen)
	}

	// Per-backend routed counters sum to the accepted count.
	total := 0.0
	for _, s := range reg.Gather() {
		if s.Name == "ftrouter_routed_total" {
			total += s.Value
		}
	}
	if int(total) != jobs {
		t.Fatalf("ftrouter_routed_total sums to %v, want %d", total, jobs)
	}

	// The router's list view covers every job.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []RoutedStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // decoded above
	if len(list) != jobs {
		t.Fatalf("router list has %d jobs, want %d", len(list), jobs)
	}

	// A submission the backend refuses comes back as the backend sent it.
	post := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(`{"name":`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	code, routed := post(ts.URL)
	direct := map[int]string{}
	for _, b := range []*testBackend{b1, b2} {
		c, body := post(b.ts.URL)
		direct[c] = body
	}
	if code != http.StatusBadRequest || direct[code] != routed {
		t.Fatalf("malformed submission through the router = %d %q, want the backends' %v", code, routed, direct)
	}
}

// TestRouterBackpressure: a saturated single backend's 429 and
// Retry-After reach the client; with a second backend the same submission
// spills over to it instead.
func TestRouterBackpressure(t *testing.T) {
	slow := newTestBackend(t, "slow", false)
	// Saturate: capacity 2 running + 8 queued on the node's service.
	reg := metrics.NewRegistry()
	rt, ts := newTestRouter(t, reg, slow)
	busy := `{"name":"busy","tasks":4,"sleep_ms":400}`
	var got429 *http.Response
	for i := 0; i < 16; i++ {
		resp, _ := submitViaRouter(t, ts.URL, "", busy)
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s, want 202 or 429", i, resp.Status)
		}
	}
	if got429 == nil {
		t.Fatal("never saw 429 from a saturated backend")
	}
	if got429.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}

	// A second backend turns the same saturation into spillover.
	free := newTestBackend(t, "free", false)
	if err := rt.AddBackend(free.name, free.ts.URL); err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy("slow", "slow", "free")
	resp, rs := submitViaRouter(t, ts.URL, key, `{"name":"spill","tasks":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("spillover submit: %s", resp.Status)
	}
	if rs.Backend != "free" {
		t.Fatalf("spillover landed on %q, want the free backend", rs.Backend)
	}
	if v, _ := reg.Value("ftrouter_spillover_total"); v < 1 {
		t.Fatalf("ftrouter_spillover_total = %v, want >= 1", v)
	}
}

// TestRouterFailover: kill a backend mid-job; the health loop declares it
// dead and resubmits the shard's incomplete jobs to the survivor, where
// determinism reproduces the same digest as an undisturbed control run.
func TestRouterFailover(t *testing.T) {
	victim := newTestBackend(t, "victim", true)
	survivor := newTestBackend(t, "survivor", true)
	reg := metrics.NewRegistry()
	_, ts := newTestRouter(t, reg, victim, survivor)

	body := `{"name":"fo","tasks":8,"sleep_ms":150}`
	vKey := keyOwnedBy("victim", "victim", "survivor")
	sKey := keyOwnedBy("survivor", "victim", "survivor")
	respV, rsV := submitViaRouter(t, ts.URL, vKey, body)
	respC, rsC := submitViaRouter(t, ts.URL, sKey, body)
	if respV.StatusCode != http.StatusAccepted || respC.StatusCode != http.StatusAccepted {
		t.Fatalf("submits: %s / %s", respV.Status, respC.Status)
	}
	if rsV.Backend != "victim" || rsC.Backend != "survivor" {
		t.Fatalf("placement: %q / %q, want victim / survivor", rsV.Backend, rsC.Backend)
	}

	// Kill the victim's HTTP face mid-run (the job sleeps ~1.2s).
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	final := waitTerminal(t, ts.URL, rsV.ID, 20*time.Second)
	control := waitTerminal(t, ts.URL, rsC.ID, 20*time.Second)
	if final.State != service.Succeeded {
		t.Fatalf("failed-over job: %+v", final)
	}
	if final.Backend != "survivor" {
		t.Fatalf("failed-over job finished on %q, want survivor", final.Backend)
	}
	if final.SinkDigest == "" || final.SinkDigest != control.SinkDigest {
		t.Fatalf("digest after failover %q != control %q", final.SinkDigest, control.SinkDigest)
	}
	if v, _ := reg.Value("ftrouter_failover_total"); v != 1 {
		t.Fatalf("ftrouter_failover_total = %v, want 1", v)
	}
	if v, _ := reg.Value("ftrouter_rerouted_jobs_total"); v < 1 {
		t.Fatalf("ftrouter_rerouted_jobs_total = %v, want >= 1", v)
	}
	if h, ok := reg.Value("ftrouter_failover_seconds"); !ok || h != 1 {
		t.Fatalf("ftrouter_failover_seconds count = %v, want 1 observation", h)
	}
}

// TestRouterDrainMigration: draining a backend checkpoints its running
// job incomplete and the router resubmits it to the survivor — its own copy
// of the request, since the drain reports only the job's ID; the drained
// node keeps answering status queries but refuses new admissions.
func TestRouterDrainMigration(t *testing.T) {
	source := newTestBackend(t, "source", true)
	target := newTestBackend(t, "target", true)
	_, ts := newTestRouter(t, nil, source, target)

	key := keyOwnedBy("source", "source", "target")
	body := `{"name":"mig","tasks":8,"sleep_ms":150}`
	resp, rs := submitViaRouter(t, ts.URL, key, body)
	if resp.StatusCode != http.StatusAccepted || rs.Backend != "source" {
		t.Fatalf("submit: %s onto %q", resp.Status, rs.Backend)
	}

	dresp, err := http.Post(ts.URL+"/drain/source?grace_ms=50", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Backend   string `json:"backend"`
		Completed int    `json:"completed"`
		Migrated  int    `json:"migrated"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	_ = dresp.Body.Close() // decoded above
	if dresp.StatusCode != http.StatusOK || dr.Migrated != 1 {
		t.Fatalf("drain response %s: %+v, want 1 migrated", dresp.Status, dr)
	}

	final := waitTerminal(t, ts.URL, rs.ID, 20*time.Second)
	if final.State != service.Succeeded || final.Backend != "target" || final.Name != "mig" {
		t.Fatalf("migrated job: %+v, want mig succeeded on target", final)
	}

	// The drained node still answers, but refuses admissions with 503.
	direct, err := http.Post(source.ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	_ = direct.Body.Close() // status code is the assertion
	if direct.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("direct submit to drained node: %s, want 503", direct.Status)
	}
	hresp, err := http.Get(source.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	_ = hresp.Body.Close() // decoded above
	if !h.Draining || h.Status != "draining" {
		t.Fatalf("drained node healthz = %+v, want draining", h)
	}
}

// TestRouterHealthz: the router's healthz answers "ok" with the number of
// live backends and of the jobs it routed, and "no-backends" with live = 0
// once every backend is dead or draining.
func TestRouterHealthz(t *testing.T) {
	a := newTestBackend(t, "a", false)
	b := newTestBackend(t, "b", false)
	_, ts := newTestRouter(t, nil, a, b)
	type health struct {
		Status string `json:"status"`
		Live   int    `json:"live"`
		Jobs   int    `json:"jobs"`
	}
	healthz := func() health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /healthz: %s (decode %v)", resp.Status, err)
		}
		return h
	}
	if h := healthz(); h != (health{"ok", 2, 0}) {
		t.Fatalf("healthz = %+v, want ok with 2 live and no job", h)
	}
	if resp, _ := submitViaRouter(t, ts.URL, "", `{"name":"h","tasks":2}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if h := healthz(); h != (health{"ok", 2, 1}) {
		t.Fatalf("healthz = %+v, want ok with 2 live and 1 job", h)
	}

	dresp, err := http.Post(ts.URL+"/drain/a", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = dresp.Body.Close() // the status code is the assertion
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drain a: %s", dresp.Status)
	}
	if h := healthz(); h != (health{"ok", 1, 1}) {
		t.Fatalf("healthz after draining a = %+v, want ok with 1 live", h)
	}

	b.ts.CloseClientConnections()
	b.ts.Close()
	want := health{"no-backends", 0, 1}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		h := healthz()
		if h == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz with a draining and b dead = %+v, want %+v", h, want)
		}
	}
}

// TestRouterDrainOutlivesAStaleProbe: a health probe answered before a
// drain reached the backend must not clear the drain. The fake backend holds
// each /healthz reply until the test releases it, and answers the first one,
// taken before the drain, with draining false.
func TestRouterDrainOutlivesAStaleProbe(t *testing.T) {
	asked, release := make(chan struct{}), make(chan struct{})
	var drained atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		draining := drained.Load()
		select {
		case asked <- struct{}{}:
			<-release
		case <-release:
		}
		writeJSON(w, http.StatusOK, Health{Status: "ok", Draining: draining})
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		drained.Store(true)
		writeJSON(w, http.StatusOK, service.DrainResult{})
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()
	rt := NewRouter(RouterConfig{HealthInterval: 5 * time.Millisecond, Client: &http.Client{Timeout: 5 * time.Second}})
	if err := rt.AddBackend("a", backend.URL); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Mux())
	defer ts.Close()
	rt.Start()
	defer rt.Stop()
	defer close(release)

	<-asked // the first probe has read draining = false
	resp, err := http.Post(ts.URL+"/drain/a", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // the status code is the assertion
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %s", resp.Status)
	}
	release <- struct{}{} // the stale reply lands
	<-asked               // the next probe has begun, so the first is applied
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
		Live   int    `json:"live"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&h)
	_ = resp.Body.Close() // decoded above
	if decErr != nil || h.Status != "no-backends" || h.Live != 0 {
		t.Fatalf("healthz after a stale probe = %+v (decode %v), want no-backends with 0 live", h, decErr)
	}
}

// TestRouterCancel: POST /jobs/{id}/cancel through the router cancels the
// job on its owner and answers with the job's status under the router's ID;
// once the job is terminal the router answers from its cache.
func TestRouterCancel(t *testing.T) {
	b := newTestBackend(t, "solo", false)
	_, ts := newTestRouter(t, nil, b)
	cancel := func(id string) (int, RoutedStatus) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rs RoutedStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, rs
	}

	resp, rs := submitViaRouter(t, ts.URL, "", `{"name":"doomed","tasks":8,"sleep_ms":100}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	code, got := cancel(fmt.Sprint(rs.ID))
	if code != http.StatusOK || got.ID != rs.ID || got.Backend != "solo" || got.BackendID != rs.BackendID {
		t.Fatalf("cancel = %d %+v, want 200 with router job %d on solo", code, got, rs.ID)
	}
	if final := waitTerminal(t, ts.URL, rs.ID, 10*time.Second); final.State != service.Cancelled {
		t.Fatalf("cancelled job ended %v, want cancelled", final.State)
	}
	if code, got := cancel(fmt.Sprint(rs.ID)); code != http.StatusOK || got.State != service.Cancelled {
		t.Fatalf("second cancel = %d %+v, want the cached cancelled status", code, got)
	}
	if code, _ := cancel("99"); code != http.StatusNotFound {
		t.Fatalf("cancel of an unknown job = %d, want 404", code)
	}
	if code, _ := cancel("one"); code != http.StatusBadRequest {
		t.Fatalf("cancel of a non-numeric id = %d, want 400", code)
	}
}

// TestRouterReplacesOrphans: with every backend down a job the router has
// acknowledged has nowhere to go; it must be placed as soon as a backend
// comes back, not lost to the router for ever.
func TestRouterReplacesOrphans(t *testing.T) {
	a := newTestBackend(t, "a", true)
	b := newTestBackend(t, "b", true)
	reg := metrics.NewRegistry()
	rt, ts := newTestRouter(t, reg, a, b)

	// The reference digest, from an undisturbed run of the same request.
	body := `{"name":"orphan","tasks":6,"sleep_ms":100}`
	_, ref := submitViaRouter(t, ts.URL, "", body)
	want := waitTerminal(t, ts.URL, ref.ID, 10*time.Second).SinkDigest

	resp, rs := submitViaRouter(t, ts.URL, "", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	for _, dead := range []*testBackend{a, b} {
		dead.ts.CloseClientConnections()
		dead.ts.Close()
	}
	orphaned := func() int {
		resp, err := http.Get(ts.URL + "/debug/backends")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d struct {
			Orphaned int `json:"orphaned"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return d.Orphaned
	}
	for deadline := time.Now().Add(10 * time.Second); orphaned() != 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job was never orphaned")
		}
	}
	if v, _ := reg.Value("ftrouter_rerouted_jobs_total"); v != 0 {
		t.Fatalf("ftrouter_rerouted_jobs_total = %v with no live backend, want 0", v)
	}

	// "a" comes back (a fresh process on a new port, as after a restart).
	back := newTestBackend(t, "a", true)
	if err := rt.AddBackend("a", back.ts.URL); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, ts.URL, rs.ID, 10*time.Second)
	if final.State != service.Succeeded || final.Backend != "a" || final.SinkDigest != want {
		t.Fatalf("re-placed job: %+v, want succeeded on a with digest %s", final, want)
	}
	if v, _ := reg.Value("ftrouter_rerouted_jobs_total"); v != 1 {
		t.Fatalf("ftrouter_rerouted_jobs_total = %v, want 1", v)
	}
	if n := orphaned(); n != 0 {
		t.Fatalf("%d orphans after re-placement", n)
	}
}

// TestRouterStatusReadsOnePlacement: a status poll that reaches a job's old
// owner while the job moves must not cache the old owner's answer as the
// job's. The old owner's GET blocks until the test has re-routed the job and
// then reports its own job terminal with its own digest; the router must go on
// to report the new owner's.
func TestRouterStatusReadsOnePlacement(t *testing.T) {
	fake := func(id int64, digest string, asked chan<- struct{}, release <-chan struct{}) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusAccepted, service.Status{ID: id, State: service.Queued})
		})
		mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
			if asked != nil {
				asked <- struct{}{}
				<-release
			}
			writeJSON(w, http.StatusOK, service.Status{ID: id, State: service.Succeeded, SinkDigest: digest})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	asked, release := make(chan struct{}), make(chan struct{})
	oldTS := fake(1, "old-digest", asked, release)
	newTS := fake(7, "new-digest", nil, nil)
	rt := NewRouter(RouterConfig{Client: &http.Client{Timeout: 5 * time.Second}})
	for name, url := range map[string]string{"old": oldTS.URL, "new": newTS.URL} {
		if err := rt.AddBackend(name, url); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(rt.Mux())
	t.Cleanup(ts.Close)

	resp, rs := submitViaRouter(t, ts.URL, keyOwnedBy("old", "old", "new"), `{"name":"moving"}`)
	if resp.StatusCode != http.StatusAccepted || rs.Backend != "old" {
		t.Fatalf("submit: %s onto %q, want 202 onto old", resp.Status, rs.Backend)
	}
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, rs.ID)); err == nil {
			_ = resp.Body.Close() // whatever it says, the job was moving
		}
	}()
	<-asked // the poll is at the old owner
	rt.mu.Lock()
	j := rt.jobs[rs.ID]
	rt.backends["old"].draining = true
	rt.mu.Unlock()
	rt.rerouteJobs([]*routedJob{j}, "drain-migrate")
	close(release)
	<-polled

	final := waitTerminal(t, ts.URL, rs.ID, 5*time.Second)
	if final.Backend != "new" || final.BackendID != 7 || final.SinkDigest != "new-digest" {
		t.Fatalf("moved job reports %s job %d with digest %q, want new job 7 with new-digest",
			final.Backend, final.BackendID, final.SinkDigest)
	}
}

// TestRouterBoundsBackendReplies: a backend that answers a submission with a
// JSON string that never ends costs the router journal.MaxSnapshotBytes of
// reading and an error, well inside the client's 10 s timeout — not memory
// without bound, and not the whole timeout.
func TestRouterBoundsBackendReplies(t *testing.T) {
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		chunk := bytes.Repeat([]byte{'a'}, 64<<10)
		if _, err := io.WriteString(w, `{"id":"`); err != nil {
			return
		}
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer endless.Close()
	rt := NewRouter(RouterConfig{Client: &http.Client{Timeout: 10 * time.Second}})
	if err := rt.AddBackend("endless", endless.URL); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := rt.postJob(rt.backends["endless"], []byte(`{"name":"x","tasks":1}`), trace.SpanContext{})
	if took := time.Since(start); err == nil || took > 5*time.Second {
		t.Fatalf("postJob against an endless reply: err %v after %v, want an error well inside the 10 s timeout", err, took)
	}
}
