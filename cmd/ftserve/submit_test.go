package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftdag/internal/journal"
	"ftdag/internal/service"
)

func post(mux *http.ServeMux, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
	return rr
}

// TestSubmitHostileBytes: a body is accepted live iff it rebuilds at replay.
// An oversized body is refused whole (413), not truncated to a prefix that
// happens to parse; bytes after the first JSON value are refused (400), not
// journaled for a replay that would choke on them; and what is accepted is
// journaled verbatim — the Submitted record's payload, read from the segment
// while the daemon runs, since a finished job's folded state keeps none — and
// rebuilds into the job that ran.
func TestSubmitHostileBytes(t *testing.T) {
	dir := t.TempDir()
	ok := `{"synthetic":{"layers":2,"width":2,"max_in":1,"seed":3}}`
	accepted := []string{
		ok,
		"  {\n \"app\": \"LU\", \"n\": 48, \"b\": 16,\n \"faults\": {\"count\": 2, \"seed\": 9} }\n",
		`{"app":"FW","n":32,"b":16,"recovery":"replicate-selective","replica_budget":0.5,"unknown_field":1}`,
	}
	// The daemon's life is a subtest so that its journal is closed, as after
	// a shutdown, before the jobs are read back below.
	journaled := map[int64][]byte{}
	t.Run("live", func(t *testing.T) {
		be, mux := newTestDaemon(t, dir)
		if rr := post(mux, ok+strings.Repeat(" ", 2<<20)); rr.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("2 MiB padded body = %d, want 413", rr.Code)
		}
		if rr := post(mux, `{"app":"LU"}{"x":1}`); rr.Code != http.StatusBadRequest {
			t.Errorf("trailing value = %d, want 400: %s", rr.Code, rr.Body.String())
		}
		if rr := post(mux, `{"app":"LU"} trailing`); rr.Code != http.StatusBadRequest {
			t.Errorf("trailing garbage = %d, want 400", rr.Code)
		}
		for _, body := range accepted {
			rr := post(mux, body)
			if rr.Code != http.StatusAccepted {
				t.Fatalf("submit %q = %d: %s", body, rr.Code, rr.Body.String())
			}
			var st service.Status
			if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			h, _ := be.Service.Job(st.ID)
			if _, err := h.Wait(); err != nil {
				t.Fatalf("job %d (%q): %v", st.ID, body, err)
			}
		}
		if n := len(be.Service.Jobs()); n != len(accepted) {
			t.Fatalf("%d jobs admitted, want %d: a refused body reached the service", n, len(accepted))
		}
		jr := be.Service.Config().Journal
		m, err := jr.TailManifest()
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range m.Segments {
			data, err := jr.ReadSegmentAt(seg.Seq, 0, int(seg.Size))
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := journal.ScanSegment(data, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if rec.Kind == journal.Submitted {
					journaled[rec.ID] = rec.Payload
				}
			}
		}
	})

	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	for i, body := range accepted {
		js := jr.State().Jobs[int64(i+1)]
		if js == nil {
			t.Fatalf("job %d is not in the journal", i+1)
		}
		payload := journaled[int64(i+1)]
		if string(payload) != body {
			t.Fatalf("job %d journaled %q, want the request body %q", i+1, payload, body)
		}
		live, err := rebuildJob([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := rebuildJob(payload)
		if err != nil {
			t.Fatalf("journaled payload of job %d does not rebuild: %v", i+1, err)
		}
		if replayed.Name != live.Name || replayed.Name != js.Name ||
			replayed.Plan.Len() != live.Plan.Len() || replayed.Recovery != live.Recovery ||
			string(replayed.Recovery) != js.Recovery {
			t.Fatalf("job %d rebuilt as %q/%d/%q, ran as %q/%d/%q", i+1,
				replayed.Name, replayed.Plan.Len(), replayed.Recovery, js.Name, live.Plan.Len(), js.Recovery)
		}
	}
}

// TestReplaysParentJournal: a data dir written by the daemon before it
// journaled request bodies verbatim holds canonical re-marshalled requests
// (every faults field present, no whitespace). The records below are what
// that daemon wrote for three jobs it never finished; this one must rebuild
// and finish all three.
func TestReplaysParentJournal(t *testing.T) {
	dir := t.TempDir()
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	old := []journal.Record{
		{Kind: journal.Submitted, ID: 1, Name: "LU N=48 B=16",
			Payload: []byte(`{"app":"LU","n":48,"b":16,"seed":4,"faults":{"count":2,"point":"after-compute","type":"any","seed":9},"verify":true}`)},
		{Kind: journal.Started, ID: 1},
		{Kind: journal.Submitted, ID: 2, Name: "synthetic 3x4", Recovery: "replicate-selective", ReplicaBudget: 0.5,
			Payload: []byte(`{"synthetic":{"layers":3,"width":4,"max_in":2,"seed":7},"recovery":"replicate-selective","replica_budget":0.5,"verify":true}`)},
		{Kind: journal.Submitted, ID: 3, Name: "FW N=32 B=16",
			Payload: []byte(`{"app":"FW","n":32,"b":16,"faults":{"fraction":0.1,"point":"","type":"","seed":0},"deadline_ms":60000}`)},
	}
	for _, rec := range old {
		rec.Time = time.Now()
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	be, _ := newTestDaemon(t, dir)
	for id := int64(1); id <= 3; id++ {
		h, err := be.Service.Job(id)
		if err != nil {
			t.Fatalf("job %d was not restored", id)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatalf("job %d did not re-run: %v", id, err)
		}
		if st := h.Status(); st.State != service.Succeeded || st.SinkDigest == "" {
			t.Fatalf("job %d replayed as %+v", id, st)
		}
	}
	if st, _ := be.Service.Job(2); st.Status().Recovery != "replicate-selective" {
		t.Fatalf("job 2 lost its journaled policy: %+v", st.Status())
	}
}
