package cluster

// The router's debug handlers: the ring and every backend's state, and one
// trace merged from the router's spans and every backend's.

import (
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"

	"ftdag/internal/trace"
)

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
	var rows []BackendDebug
	for _, b := range rt.sortedBackends() {
		rows = append(rows, BackendDebug{
			Name: b.name, URL: b.url, Healthy: b.healthy, Draining: b.draining,
			ConsecFails: b.consecFails, OnRing: onRing[b.name],
			Jobs: owned[b.name], Terminal: terminal[b.name],
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
	// Deterministic poll order; every registered backend is asked, even
	// unhealthy ones — a drained or flapping node may still hold spans.
	rt.mu.Lock()
	var urls []string
	for _, b := range rt.sortedBackends() {
		urls = append(urls, b.url)
	}
	rt.mu.Unlock()
	for _, url := range urls {
		resp, err := rt.client.Get(url + "/debug/spans?trace=" + tid.String())
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
