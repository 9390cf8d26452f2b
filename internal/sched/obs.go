package sched

import (
	"strconv"
	"time"

	"ftdag/internal/metrics"
	"ftdag/internal/trace"
)

// poolObs is the pool's instrument bundle. It is attached after construction
// via Observe through an atomic pointer so already-running workers pick it up
// without a race; a nil bundle (observability off) costs each hot path one
// predicted pointer check.
type poolObs struct {
	stealLat  *metrics.Histogram // successful-steal latency (findWork entry → steal)
	queueWait *metrics.Histogram // a submission's wait on the placement list (Submit → pickup)
}

// pickedUp records how long j waited on the placement list, if it is a
// submission and the pool was observed when it was submitted.
func (o *poolObs) pickedUp(j job) {
	if o != nil && j.at != 0 {
		o.queueWait.ObserveSince(time.Unix(0, j.at))
	}
}

// Observe registers the pool's scheduler metrics on r and enables latency
// sampling on the hot paths. Totals the workers already count (jobs, steals,
// failed steals, placement-list takes, idle and busy time) are exported as
// scrape-time functions over the existing per-worker atomics — zero added
// hot-path cost — while steal latency and a submission's queue wait gain
// histograms. Call at most once per pool; a nil registry leaves the pool
// unobserved.
func (p *Pool) Observe(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("ftdag_sched_jobs_total", "Jobs executed by the pool.",
		func() float64 { return float64(p.StatsSnapshot().Jobs) })
	r.CounterFunc("ftdag_sched_spawns_total", "Jobs pushed by running jobs.",
		func() float64 { return float64(p.StatsSnapshot().Spawns) })
	r.CounterFunc("ftdag_steals_total", "Successful deque steals.",
		func() float64 { return float64(p.StatsSnapshot().Steals) })
	r.CounterFunc("ftdag_failed_steals_total", "Steal attempts that found nothing or lost a race.",
		func() float64 { return float64(p.StatsSnapshot().FailedSteals) })
	r.CounterFunc("ftdag_injector_hits_total", "Jobs taken from the placement list: submissions and placed jobs.",
		func() float64 { return float64(p.StatsSnapshot().InjectorHits) })
	r.CounterFunc("ftdag_sched_parks_total", "Times a worker parked waiting for a wake token.",
		func() float64 { return float64(p.StatsSnapshot().Parks) })
	r.GaugeFunc("ftdag_sched_workers", "Workers in the pool.",
		func() float64 { return float64(len(p.workers)) })
	r.GaugeFunc("ftdag_sched_parked_workers", "Workers currently on the parked stack.",
		func() float64 { return float64(p.parkedCount.Load()) })
	r.GaugeFunc("ftdag_injector_depth", "Jobs waiting on the placement list: submissions and placed jobs.",
		func() float64 { return float64(p.placedLen.Load()) })
	for _, w := range p.workers {
		w := w
		id := strconv.Itoa(w.id)
		r.CounterFunc("ftdag_worker_busy_seconds_total", "Time the worker spent awake, running jobs or looking for them.",
			func() float64 { return w.stats.busyAt(p.since(time.Now())).Seconds() }, "worker", id)
		r.CounterFunc("ftdag_worker_idle_seconds_total", "Time the worker spent parked with no work.",
			func() float64 { return float64(w.stats.idleNanos.Load()) / 1e9 }, "worker", id)
	}
	o := &poolObs{
		stealLat:  r.Histogram("ftdag_steal_latency_seconds", "Latency of successful steals (work search start to steal)."),
		queueWait: r.Histogram("ftdag_queue_wait_seconds", "Wait of submitted jobs on the placement list, submit to pickup."),
	}
	p.obs.Store(o)
}

// ObserveSpans attaches a distributed-trace span recorder to the pool:
// successful steals of jobs whose group carries a span context
// (Group.SetSpan) are emitted as "steal" spans, so task migration shows
// up in the owning job's cluster trace. Attached via an atomic pointer
// like the metrics bundle; a nil recorder (tracing off) costs the steal
// path nothing — the pointer is only consulted after a successful steal.
func (p *Pool) ObserveSpans(sp *trace.Spans) {
	if sp != nil {
		p.spans.Store(sp)
	}
}
