package cluster

// Failover and drain: the health loop declares a backend dead after
// FailThreshold missed probes, and a dead or drained backend's unfinished
// jobs are resubmitted to survivors, or wait as orphans until one returns.

import (
	"fmt"
	"log"
	"net/http"
	"time"

	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// checkHealth polls every backend once, fails over those that crossed the
// consecutive-failure threshold, and retries the placement of orphans.
func (rt *Router) checkHealth() {
	rt.mu.Lock()
	type probe struct {
		b   *backendState
		url string
	}
	var probes []probe
	for _, b := range rt.sortedBackends() {
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
			// A drain is one-way until AddBackend revives the backend: a
			// reply that left the backend before a drain reached it must
			// not clear the flag the drain set.
			p.b.draining = p.b.draining || h.Draining
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

// unfinishedOn returns the jobs the named backend owns that have no cached
// terminal status, in router-ID order. The caller holds rt.mu.
func (rt *Router) unfinishedOn(name string) []*routedJob {
	var out []*routedJob
	for _, j := range rt.sortedJobs() {
		if j.backend == name && j.terminal == nil {
			out = append(out, j)
		}
	}
	return out
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
	orphans := rt.unfinishedOn(name)
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
		// A status fetch may have learned meanwhile that the job finished, or
		// that its owner aged it out.
		if j.terminal != nil || rt.jobs[j.id] != j {
			rt.mu.Unlock()
			continue
		}
		cands := rt.candidatesFor(j.key)
		origin, body := j.span, j.body
		rt.mu.Unlock()
		var ctx trace.SpanContext
		if tr := rt.tracer; tr != nil && origin.Valid() {
			ctx = trace.SpanContext{Trace: origin.Trace, Span: tr.NextID()}
		}
		moved := false
		for _, b := range cands {
			start := time.Now()
			rep, err := rt.postJob(b, body, ctx)
			if err != nil || rep.code != http.StatusAccepted {
				continue
			}
			rt.mu.Lock()
			j.backend = b.name
			j.remoteID = rep.accepted.ID
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
// admission and checkpoints unfinished jobs incomplete, and the router
// resubmits its own copy of each to survivors. The drained server stays up
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
	// drained node's local IDs, then resubmit their bodies elsewhere.
	rt.mu.Lock()
	byRemote := make(map[int64]*routedJob)
	for _, j := range rt.unfinishedOn(name) {
		byRemote[j.remoteID] = j
	}
	var migrate []*routedJob
	for _, id := range dr.Incomplete {
		if j := byRemote[id]; j != nil {
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
