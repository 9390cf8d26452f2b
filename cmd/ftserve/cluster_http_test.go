package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/service"
)

// TestJournalStreamEndpoint: a durable daemon serves its WAL manifest and
// raw segment bytes; a memory-only daemon answers 503.
func TestJournalStreamEndpoint(t *testing.T) {
	d, mux := newTestDaemon(t, t.TempDir())
	// One finished job so the journal has records to stream.
	spec, err := buildJob(jobRequest{Synthetic: &syntheticRequest{Layers: 2, Width: 2, MaxIn: 1, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	spec.Payload = []byte(`{"synthetic":{"layers":2,"width":2,"max_in":1,"seed":3}}`)
	h, err := d.Service.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}

	rr := get(t, mux, "/journal/stream")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /journal/stream = %d: %s", rr.Code, rr.Body.String())
	}
	var m journal.TailManifest
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 || m.Segments[0].Size == 0 {
		t.Fatalf("manifest = %+v, want a non-empty segment", m)
	}

	// The segment's raw bytes pass the journal's own check whole, and a
	// read from a record boundary returns the rest of them.
	rr = get(t, mux, "/journal/stream?seg=1&off=0")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET seg = %d: %s", rr.Code, rr.Body.String())
	}
	seg := rr.Body.Bytes()
	recs, n, err := journal.ScanSegment(seg, 0)
	if err != nil || n != len(seg) || len(recs) == 0 {
		t.Fatalf("segment reply: %d records in %d of %d bytes, err %v", len(recs), n, len(seg), err)
	}
	if int64(len(seg)) != m.Segments[0].Size {
		t.Fatalf("streamed %d bytes, manifest says %d", len(seg), m.Segments[0].Size)
	}
	_, last, _ := journal.ScanSegment(seg[:len(seg)-1], 0) // where the last record starts
	if rr := get(t, mux, fmt.Sprintf("/journal/stream?seg=1&off=%d", last)); !bytes.Equal(rr.Body.Bytes(), seg[last:]) {
		t.Fatalf("read from offset %d = %d bytes, want the last record's %d", last, rr.Body.Len(), len(seg)-last)
	}
	if rr := get(t, mux, "/journal/stream?seg=99&off=0"); rr.Code != http.StatusNotFound {
		t.Fatalf("missing segment = %d, want 404", rr.Code)
	}

	// Without -data-dir there is nothing durable to replicate.
	_, memMux := newTestDaemon(t, "")
	if rr := get(t, memMux, "/journal/stream"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("memory-only /journal/stream = %d, want 503", rr.Code)
	}
}

// TestDrainEndpoint: POST /drain checkpoints a blocked job incomplete,
// flips healthz to draining, and later submissions answer 503.
func TestDrainEndpoint(t *testing.T) {
	d, mux := newTestDaemon(t, t.TempDir())
	release := make(chan struct{})
	go func() {
		for !d.Service.Draining() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	spec := service.JobSpec{
		Name: "stuck",
		Spec: graph.Chain(3, func(key graph.Key, vals [][]float64) []float64 {
			if key == 1 {
				<-release
			}
			return []float64{1}
		}),
		Payload: []byte(`{"app":"stuck"}`),
	}
	h, err := d.Service.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Status().State != service.Running {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/drain?grace_ms=1", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST /drain = %d: %s", rr.Code, rr.Body.String())
	}
	var dr service.DrainResult
	if err := json.Unmarshal(rr.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Incomplete) != 1 || dr.Incomplete[0] != h.ID() {
		t.Fatalf("drain result = %+v, want the stuck job's ID %d", dr, h.ID())
	}
	if rr := httptest.NewRecorder(); true {
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/drain?grace_ms=bogus", nil))
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("bad grace_ms = %d, want 400", rr.Code)
		}
	}

	hz := get(t, mux, "/healthz")
	var resp struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal(hz.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Draining || resp.Status != "draining" {
		t.Fatalf("healthz after drain = %+v", resp)
	}

	sub := httptest.NewRecorder()
	mux.ServeHTTP(sub, httptest.NewRequest(http.MethodPost, "/jobs",
		strings.NewReader(`{"synthetic":{"layers":2,"width":2,"max_in":1,"seed":1}}`)))
	if sub.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", sub.Code)
	}
	// Status queries stay live on the drained node.
	if rr := get(t, mux, "/jobs/1"); rr.Code != http.StatusOK {
		t.Fatalf("status on drained node = %d, want 200", rr.Code)
	}
}
