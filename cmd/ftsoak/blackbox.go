// Black-box audit for the cluster soak's -blackbox mode: after the
// kill-to-reroute story has played out and every job has converged, the
// parent collects the flight-recorder boxes its children left behind and
// holds the observability layer to the same exactness standard as the
// digests — a box that cannot be parsed, a placement the victim's box
// never recorded, or a merged trace missing a process is a FAILURE, not a
// logging curiosity.
package main

import (
	"fmt"
	"path/filepath"

	"ftdag/internal/trace"
)

// placed is one job as the router placed it.
type placed struct {
	id      int64 // the router's job id
	name    string
	backend string // the backend that first acknowledged it
}

// boxAudit carries the -blackbox assertion inputs.
type boxAudit struct {
	*soak               // its procs are the backends, each over <root>/<name>
	victim     *proc    // the SIGKILLed one
	placements []placed // every job, as first placed
	// Victim jobs the promoted standby will replay; the merged-trace probe
	// is picked from the ones that were also rerouted to a survivor, so the
	// trace provably crosses processes.
	replayed []placed

	routerURL   string
	routerSpans *trace.Spans // the in-process router's span ring
	rerouted    int          // ftrouter_rerouted_jobs_total at audit time
}

// auditBlackBoxes runs the assertions and returns (backend process count
// in the merged trace, probe job name) for the PASS line.
func auditBlackBoxes(a boxAudit) (int, string) {
	// 1. Every child — including the SIGKILLed victim, whose box is the
	// point of the exercise — left a parseable black box. The victim's
	// survives because persistence is write-behind: the ring was flushed
	// to disk while the process was still alive.
	var victimBox *trace.BlackBox
	for _, n := range a.procs {
		box, err := trace.ReadBlackBox(trace.BoxPath(filepath.Join(a.root, n.name), n.name))
		if err != nil {
			a.fatalf("black box of %s: %v", n.name, err)
		}
		if len(box.Events) == 0 {
			a.fatalf("black box of %s is empty", n.name)
		}
		if n == a.victim {
			victimBox = box
		}
	}

	// 2. The victim's box reconciles with the router's placements: every
	// job the router recorded as accepted by the victim must appear as a
	// job-submit event in the box the victim left behind.
	submitted := make(map[string]bool)
	for _, e := range victimBox.Events {
		if e.Kind == "job-submit" {
			submitted[e.Name] = true
		}
	}
	for _, p := range a.placements {
		if p.backend == a.victim.name && !submitted[p.name] {
			a.fatalf("victim %s acknowledged %s (router placement) but its black box has no job-submit event for it", a.victim.name, p.name)
		}
	}

	// 3. The router's own box and span ring reconcile with its failover
	// metrics: one backend-dead event for the victim, and exactly
	// ftrouter_rerouted_jobs_total failover-resubmit records in each.
	rbox, err := trace.ReadBlackBox(trace.BoxPath(a.root, "router"))
	if err != nil {
		a.fatalf("router black box: %v", err)
	}
	dead, resubmits := 0, 0
	for _, e := range rbox.Events {
		switch e.Kind {
		case "backend-dead":
			if e.Name == a.victim.name {
				dead++
			}
		case "failover-resubmit":
			resubmits++
		}
	}
	if dead != 1 {
		a.fatalf("router black box has %d backend-dead events for %s, want 1", dead, a.victim.name)
	}
	if resubmits != a.rerouted {
		a.fatalf("router black box has %d failover-resubmit events, ftrouter_rerouted_jobs_total says %d", resubmits, a.rerouted)
	}
	reroutedJob := make(map[int64]bool)
	spanResubmits := 0
	for _, sp := range a.routerSpans.Snapshot() {
		if sp.Name == "failover-resubmit" {
			spanResubmits++
			reroutedJob[sp.Job] = true
		}
	}
	if spanResubmits != a.rerouted {
		a.fatalf("router span ring has %d failover-resubmit spans, ftrouter_rerouted_jobs_total says %d", spanResubmits, a.rerouted)
	}

	// 4. The merged cluster trace of one kill-to-reroute job. The probe
	// is a victim job that was both rerouted to a survivor and replayed
	// by the promoted standby, so its one trace must hold spans from the
	// router plus at least two backend processes.
	var probe placed
	for _, p := range a.replayed {
		if reroutedJob[p.id] {
			probe = p
			break
		}
	}
	if probe.name == "" {
		a.fatalf("no victim job was both rerouted and standby-replayed (%d replayed, %d rerouted) — the kill landed too late to probe the merged trace", len(a.replayed), a.rerouted)
	}
	what := fmt.Sprintf("merged trace of job %d", probe.id)
	m := pollJSON(a.soak, fmt.Sprintf("%s/debug/cluster-trace/%d", a.routerURL, probe.id), what, what+" unavailable",
		func(trace.MergedTrace) bool { return true })
	if len(m.Spans) == 0 || len(m.TraceEvents) == 0 || len(m.CriticalPath) == 0 {
		a.fatalf("merged trace of job %d is empty (%d spans, %d events, %d critical-path spans)",
			probe.id, len(m.Spans), len(m.TraceEvents), len(m.CriticalPath))
	}
	tid := m.Spans[0].Trace
	procs := make(map[string]bool)
	var submitSpan, resubmitSpan *trace.Span
	for i := range m.Spans {
		sp := &m.Spans[i]
		if sp.Trace != tid {
			a.fatalf("merged trace of job %d mixes trace IDs: %s and %s", probe.id, tid, sp.Trace)
		}
		procs[sp.Proc] = true
		if sp.Job == probe.id && sp.Name == "cluster-submit" {
			submitSpan = sp
		}
		if sp.Job == probe.id && sp.Name == "failover-resubmit" && resubmitSpan == nil {
			resubmitSpan = sp
		}
	}
	if !procs["router"] {
		a.fatalf("merged trace of job %d has no router spans (procs %v)", probe.id, procs)
	}
	backends := 0
	for p := range procs {
		if p != "router" {
			backends++
		}
	}
	if backends < 2 {
		a.fatalf("merged trace of job %d spans %d backend process(es), want >= 2 (procs %v)", probe.id, backends, procs)
	}
	if submitSpan == nil || resubmitSpan == nil {
		a.fatalf("merged trace of job %d is missing the cluster-submit or failover-resubmit span", probe.id)
	}
	if resubmitSpan.Parent != submitSpan.ID {
		a.fatalf("failover-resubmit span of job %d parents to %s, want the original cluster-submit span %s",
			probe.id, resubmitSpan.Parent, submitSpan.ID)
	}
	return backends, probe.name
}
