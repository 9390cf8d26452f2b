package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
)

// TestNodeContract is the backend API's contract, one request script run in
// order over the mux every backend serves (ftserve, the soak children, the
// test backends): status codes, the headers clients and the router act on,
// and the reply shapes they decode. What depends on a job vocabulary —
// recovery policies, fault plans, the Prometheus families —
// is tested where the vocabulary lives (cmd/ftserve).
func TestNodeContract(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := service.New(service.Config{Workers: 2, MaxConcurrentJobs: 1, MaxQueuedJobs: 1, Rebuild: buildTestJob, Registry: reg})
	t.Cleanup(func() { srv.Close() })
	mux := NewNode(NodeConfig{Name: "contract", Service: srv}).Mux()

	state := func(want string) func([]byte) bool {
		return func(body []byte) bool {
			var st struct {
				State string `json:"state"`
			}
			return json.Unmarshal(body, &st) == nil && st.State == want
		}
	}
	health := func(status string, draining bool) func([]byte) bool {
		return func(body []byte) bool {
			var h Health
			return json.Unmarshal(body, &h) == nil && h.Status == status && h.Draining == draining &&
				h.Name == "contract" && h.Workers == 2 && !h.Durable && h.Journal == nil && h.UptimeSec >= 0
		}
	}
	busy := `{"name":"busy","tasks":2,"sleep_ms":400}`
	script := []struct {
		name, method, path, body string
		code                     int
		header, value            string            // a reply header that must be set ("*": to anything non-empty)
		until                    func([]byte) bool // repeat the request until the 200/202 reply satisfies it
	}{
		{name: "healthz ok", method: "GET", path: "/healthz", code: 200, until: health("ok", false)},
		{name: "submit ok", method: "POST", path: "/jobs", body: `{"name":"quick","tasks":2}`, code: 202,
			header: "Content-Type", value: "application/json", until: func(b []byte) bool {
				var st service.Status
				return json.Unmarshal(b, &st) == nil && st.ID == 1 && st.Name == "quick" && !strings.Contains(string(b), "\n ")
			}},
		{name: "status hit", method: "GET", path: "/jobs/1", code: 200, until: state("succeeded")},
		{name: "submit malformed", method: "POST", path: "/jobs", body: `{"name":`, code: 400},
		{name: "submit trailing value", method: "POST", path: "/jobs", body: `{"name":"a"}{"name":"b"}`, code: 400},
		{name: "submit oversized", method: "POST", path: "/jobs", body: `{"name":"big"}` + strings.Repeat(" ", maxSubmitBody), code: 413},
		{name: "status miss", method: "GET", path: "/jobs/99", code: 404},
		{name: "status bad id", method: "GET", path: "/jobs/one", code: 400},
		{name: "cancel miss", method: "POST", path: "/jobs/99/cancel", code: 404},
		{name: "cancel finished job", method: "POST", path: "/jobs/1/cancel", code: 200, until: state("succeeded")},
		{name: "node without a tracer", method: "GET", path: "/jobs/1/trace", code: 404},
		{name: "list", method: "GET", path: "/jobs", code: 200, until: func(b []byte) bool {
			var sts []service.Status
			return json.Unmarshal(b, &sts) == nil && len(sts) == 1
		}},
		{name: "debug state", method: "GET", path: "/debug/state", code: 200, until: func(b []byte) bool {
			return strings.Contains(string(b), `"uptime_sec"`) && !strings.Contains(string(b), `"journal"`)
		}},
		{name: "metrics", method: "GET", path: "/metrics", code: 200, header: "Content-Type", value: metrics.TextContentType,
			until: func(b []byte) bool { return strings.Contains(string(b), "ftdag_uptime_seconds") }},
		{name: "spans with tracing off", method: "GET", path: "/debug/spans", code: 200, until: func(b []byte) bool { return string(b) == "[]\n" }},
		{name: "spans bad trace id", method: "GET", path: "/debug/spans?trace=xyz", code: 400},
		{name: "stream without a journal", method: "GET", path: "/journal/stream", code: 503},

		{name: "405 healthz", method: "POST", path: "/healthz", code: 405, header: "Allow", value: "GET, HEAD"},
		{name: "405 metrics", method: "PUT", path: "/metrics", code: 405, header: "Allow", value: "GET, HEAD"},
		{name: "405 jobs", method: "DELETE", path: "/jobs", code: 405, header: "Allow", value: "GET, HEAD, POST"},
		{name: "405 cancel", method: "GET", path: "/jobs/1/cancel", code: 405, header: "Allow", value: "POST"},
		{name: "405 stream", method: "POST", path: "/journal/stream", code: 405, header: "Allow", value: "GET, HEAD"},
		{name: "405 drain", method: "GET", path: "/drain", code: 405, header: "Allow", value: "POST"},

		{name: "fill the one running slot", method: "POST", path: "/jobs", body: busy, code: 202},
		{name: "job 2 running", method: "GET", path: "/jobs/2", code: 200, until: state("running")},
		{name: "fill the one queue slot", method: "POST", path: "/jobs", body: busy, code: 202},
		{name: "queue full", method: "POST", path: "/jobs", body: busy, code: 429, header: "Retry-After", value: "*"},
		{name: "cancel queued job", method: "POST", path: "/jobs/3/cancel", code: 200},

		{name: "drain bad grace", method: "POST", path: "/drain?grace_ms=soon", code: 400},
		{name: "drain", method: "POST", path: "/drain?grace_ms=1", code: 200, until: func(b []byte) bool {
			var dr service.DrainResult
			return json.Unmarshal(b, &dr) == nil && len(dr.Incomplete) > 0 && dr.Incomplete[0] == 2
		}},
		{name: "submit while draining", method: "POST", path: "/jobs", body: `{"name":"late"}`, code: 503},
		{name: "healthz draining", method: "GET", path: "/healthz", code: 200, until: health("draining", true)},
		{name: "status on a drained node", method: "GET", path: "/jobs/1", code: 200, until: state("succeeded")},
	}
	for _, step := range script {
		deadline := time.Now().Add(5 * time.Second)
		for {
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest(step.method, step.path, strings.NewReader(step.body)))
			if rr.Code != step.code {
				t.Fatalf("%s: %s %s = %d, want %d: %.200s", step.name, step.method, step.path, rr.Code, step.code, rr.Body.String())
			}
			if got := rr.Header().Get(step.header); step.header != "" && got != step.value && (step.value != "*" || got == "" || got == "0") {
				t.Fatalf("%s: header %s = %q, want %q", step.name, step.header, got, step.value)
			}
			if rr.Code >= 400 {
				var e struct {
					Error string `json:"error"`
				}
				if rr.Code != 405 && (json.Unmarshal(rr.Body.Bytes(), &e) != nil || e.Error == "") {
					t.Fatalf("%s: error reply is not {\"error\": ...}: %q", step.name, rr.Body.String())
				}
				break
			}
			if step.until == nil || step.until(rr.Body.Bytes()) {
				break
			}
			if step.method != "GET" || time.Now().After(deadline) {
				t.Fatalf("%s: reply never satisfied the check: %.300s", step.name, rr.Body.String())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestNodeAnswersAgedOutJobsWithGone: a job that has aged out of the
// service's retention window answers 410 on its status, cancel and trace
// routes, an ID never handed out 404, and the listing holds the window.
func TestNodeAnswersAgedOutJobsWithGone(t *testing.T) {
	srv := service.New(service.Config{Workers: 2, MaxConcurrentJobs: 2, Rebuild: buildTestJob})
	t.Cleanup(func() { srv.Close() })
	mux := NewNode(NodeConfig{Name: "window", Service: srv}).Mux()
	const jobs = journal.KeepFinished + 1
	for i := 0; i < jobs; i++ {
		h, err := srv.Submit(service.JobSpec{Name: "trivial", Spec: graph.Chain(2, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		method, path string
		code         int
	}{
		{"GET", "/jobs/1", http.StatusGone},
		{"POST", "/jobs/1/cancel", http.StatusGone},
		{"GET", "/jobs/1/trace", http.StatusGone},
		{"GET", "/jobs/2", http.StatusOK},
		{"GET", fmt.Sprintf("/jobs/%d", jobs+1), http.StatusNotFound},
	} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(step.method, step.path, nil))
		if rr.Code != step.code {
			t.Fatalf("%s %s = %d, want %d: %s", step.method, step.path, rr.Code, step.code, rr.Body.String())
		}
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs", nil))
	var sts []service.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sts); err != nil || len(sts) != journal.KeepFinished || sts[0].ID != 2 {
		t.Fatalf("listing of %d jobs (err %v), want %d from ID 2", len(sts), err, journal.KeepFinished)
	}
}
