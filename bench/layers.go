package main

import (
	"fmt"

	"ftdag/internal/stats"
)

// dagLayers sets the per-layer metrics a traced DAG measurement yields and
// prints the attribution row of what was measured. Counts and times are per rep (means over the
// traced reps); the spans and the counters cover the same runs.
func (e *env) dagLayers(what string, m dagMeasure) {
	reps := float64(m.reps)
	c, sp := m.traced, m.spans
	per := func(v int64) float64 { return float64(v) / reps }
	perMS := func(ns int64) float64 { return float64(ns) / 1e6 / reps }

	e.set("apps.compute_self_ms", perMS(sp.ns[layerCompute]))
	e.set("apps.computes", per(sp.count[layerCompute]))

	e.set("block.write_ms", perMS(sp.ns[layerWrite]))
	e.set("block.read_ms", perMS(sp.ns[layerRead]))
	e.set("block.writes", per(c.b.Writes))
	e.set("block.reads", per(c.b.Reads))
	e.set("block.evictions", per(c.b.Evictions))
	e.set("block.corrupt_reads", per(c.b.CorruptReads))
	e.set("block.missing_reads", per(c.b.MissingReads))
	e.set("block.bytes_retained_mb", float64(c.b.BytesRetained)/1e6)

	e.set("replica.shadow_computes", per(c.m.ShadowComputes))
	e.set("replica.replicated_tasks", per(c.m.ReplicatedTasks))

	// Worker time of the traced runs, split into what the spans and the
	// scheduler's idle clock account for; the rest is core + sched, which
	// cannot be timed from outside. sched.Stats.BusyTime is not read: it is
	// 0 on a pool without a registry.
	var workerNS float64
	for _, t := range m.tracedMS {
		workerNS += t * 1e6 * float64(e.nproc)
	}
	idle := float64(c.s.IdleTime)
	kernel, read, write := float64(sp.ns[layerCompute]), float64(sp.ns[layerRead]), float64(sp.ns[layerWrite])
	residual := workerNS - idle - kernel - read - write
	e.set("core.residual_ns_per_task", residual/float64(c.tasks))
	e.set("core.notifications", per(c.m.Notifications))
	e.set("core.registrations", per(c.m.Registrations))
	e.set("core.recoveries", per(c.m.Recoveries))
	e.set("core.resets", per(c.m.Resets))
	e.set("core.reexecuted_tasks", per(c.reex))
	e.set("core.injections_fired", per(c.m.InjectionsFired))
	e.set("core.useful_compute_share", float64(c.tasks)/float64(c.m.Computes))

	e.set("sched.spawns", per(c.s.Spawns))
	e.set("sched.steals", per(c.s.Steals))
	e.set("sched.failed_steals", per(c.s.FailedSteals))
	e.set("sched.steal_success_share", share(c.s.Steals, c.s.Steals+c.s.FailedSteals))
	e.set("sched.parks", per(c.s.Parks))
	e.set("sched.idle_ms", perMS(int64(c.s.IdleTime)))

	e.set("proc.gc_pause_ms", m.gcPauseMS)
	e.set("trace.overhead_ratio", stats.Median(m.traceOver))
	e.set("attribution.remainder_pct", 100*residual/workerNS)

	pct := func(v float64) float64 { return 100 * v / workerNS }
	busy := workerNS - idle
	fmt.Fprintf(e.report, "attribution of %s (traced reps, %d workers x makespan = %.1f ms per rep):\n", what, e.nproc, workerNS/1e6/reps)
	fmt.Fprintf(e.report, "  kernel self %.1f%%  block.read %.1f%%  block.write %.1f%%  sched idle %.1f%%  remainder (core+sched, not timed from outside) %.1f%%\n",
		pct(kernel), pct(read), pct(write), pct(idle), pct(residual))
	fmt.Fprintf(e.report, "  of busy worker time: kernel %.1f%%  kernel+block %.1f%%\n",
		100*kernel/busy, 100*(kernel+read+write)/busy)
	fmt.Fprintf(e.report, "  traced makespan_ms p50 %.3f  trace.overhead_ratio %.4f (base: untraced makespan_ms of the same rep)\n",
		stats.Median(m.tracedMS), stats.Median(m.traceOver))
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// serviceLayerNames are the per-layer metrics only a run against the ftserve
// child measures. An in-process workload does none of that work, so it
// reports them as 0.
var serviceLayerNames = []string{
	"journal.appends", "journal.fsyncs", "journal.appends_per_fsync",
	"service.capacity_jobs_per_s",
	"service.ack_p50_ms", "service.ack_p95_ms", "service.done_p50_ms", "service.done_p95_ms",
	"service.done_p50_ms_low", "service.done_p50_ms_high",
	"service.queue_wait_ms_p50", "service.queue_wait_ms_p95", "service.queue_wait_ms_p95_high",
	"service.exec_ms_p50", "service.rejected_429", "service.backlog_at_end",
	"http.submit_rtt_ms_p50",
	"loadgen.late_p95_ms", "loadgen.sent", "proc.server_cpu_s",
}

func (e *env) serviceLayersAbsent() {
	for _, n := range serviceLayerNames {
		e.set(n, 0)
	}
}
