package core

import (
	"time"

	"ftdag/internal/block"
	"ftdag/internal/graph"
	obs "ftdag/internal/metrics" // aliased: core's own run-snapshot struct is named metrics
	"ftdag/internal/trace"
)

// Latency is the executors' two latency distributions, as they stand: each
// run keeps them per worker (Config.TimeLatency) and a registry's histogram
// families read the sum at scrape time (Observe), so timing a compute writes
// no line another worker writes.
type Latency struct {
	// Compute is the latency of the user compute function itself.
	Compute obs.HistogramCounts
	// Recovery is the duration of each incarnation's recovery
	// (REPLACETASK through notify-array reconstruction and re-spawn).
	Recovery obs.HistogramCounts
}

// Add adds b's counts to l.
func (l *Latency) Add(b Latency) {
	l.Compute.Add(b.Compute)
	l.Recovery.Add(b.Recovery)
}

// Tally is what executors counted, summed over a set of runs: what a
// registry's executor and block-store families read (Observe).
type Tally struct {
	Metrics Metrics
	Store   block.Stats
	Latency Latency
}

// Add adds b's counts to t.
func (t *Tally) Add(b Tally) {
	t.Metrics.Add(b.Metrics)
	t.Store.Add(b.Store)
	t.Latency.Add(b.Latency)
}

// Observe registers the executor and block-store metric families on r. Every
// family is a function over totals — the summed Tally of every execution the
// caller exports, as LiveTally reads it, mid-run or after — so the hot path
// writes nothing for the registry but the latency shards of the runs whose
// Config sets TimeLatency. A scrape calls totals once per family, so it must
// never return less than it did before. No-op on a nil registry (the
// disabled configuration). Call once per registry.
func Observe(r *obs.Registry, totals func() Tally) {
	if r == nil {
		return
	}
	for _, f := range []struct {
		name, help string
		count      func(Metrics, block.Stats) int64
	}{
		{"ftdag_tasks_computed_total", "User compute invocations, including those aborted by an injected fault.",
			func(m Metrics, _ block.Stats) int64 { return m.Computes }},
		{"ftdag_compute_errors_total", "Compute invocations that observed a fault in themselves or a predecessor.",
			func(m Metrics, _ block.Stats) int64 { return m.ComputeErrors }},
		{"ftdag_recoveries_total", "Task replacements: recovery initiations that won the at-most-once race.",
			func(m Metrics, _ block.Stats) int64 { return m.Recoveries }},
		{"ftdag_resets_total", "Notify-array resets after a predecessor failure surfaced mid-compute.",
			func(m Metrics, _ block.Stats) int64 { return m.Resets }},
		{"ftdag_notifications_total", "Join-counter decrements that won their notification bit.",
			func(m Metrics, _ block.Stats) int64 { return m.Notifications }},
		{"ftdag_injections_fired_total", "Fault injections actually fired.",
			func(m Metrics, _ block.Stats) int64 { return m.InjectionsFired }},
		{"ftdag_replicated_tasks_total", "Primary executions run with a shadow replica on a distinct worker.",
			func(m Metrics, _ block.Stats) int64 { return m.ReplicatedTasks }},
		{"ftdag_shadow_computes_total", "Redundant (shadow) replica executions.",
			func(m Metrics, _ block.Stats) int64 { return m.ShadowComputes }},
		{"ftdag_sdc_injected_total", "Silent data corruptions fired by the fault plan (checksum recomputed, no flag).",
			func(m Metrics, _ block.Stats) int64 { return m.SDCInjected }},
		{"ftdag_sdc_detected_total", "Silent data corruptions caught by replica digest comparison.",
			func(m Metrics, _ block.Stats) int64 { return m.SDCDetected }},
		{"ftdag_sdc_missed_total", "Silent data corruptions that struck an unreplicated task or an execution whose shadow failed.",
			func(m Metrics, _ block.Stats) int64 { return m.SDCMissed }},
		{"ftdag_block_evictions_total", "Block versions evicted by the retention ring.",
			func(_ Metrics, b block.Stats) int64 { return b.Evictions }},
		{"ftdag_block_corrupt_reads_total", "Reads that observed the poisoned flag.",
			func(_ Metrics, b block.Stats) int64 { return b.CorruptReads - b.ChecksumFailures }},
		{"ftdag_block_checksum_failures_total", "Reads that failed checksum verification.",
			func(_ Metrics, b block.Stats) int64 { return b.ChecksumFailures }},
	} {
		r.CounterFunc(f.name, f.help, func() float64 {
			t := totals()
			return float64(f.count(t.Metrics, t.Store))
		})
	}
	r.GaugeFunc("ftdag_replication_overhead_ratio",
		"Shadow (redundant) computes as a fraction of primary computes.",
		func() float64 {
			m := totals().Metrics
			if m.Computes == 0 {
				return 0
			}
			return float64(m.ShadowComputes) / float64(m.Computes)
		})
	r.HistogramFunc("ftdag_compute_latency_seconds", "Latency of the user compute function.",
		func() obs.HistogramCounts { return totals().Latency.Compute })
	r.HistogramFunc("ftdag_recovery_latency_seconds",
		"Duration of one incarnation's recovery: descriptor replacement, notify-array reconstruction, re-spawn.",
		func() obs.HistogramCounts { return totals().Latency.Recovery })
}

// emitSpan records one executor span (compute, inject, recover,
// replica-join) under the run's distributed-trace context. Callers guard
// with a Config.Spans nil check so disabled tracing costs one branch.
func (e *exec[S]) emitSpan(name string, start time.Time, dur time.Duration, key graph.Key, life int, arg int64) {
	e.cfg.Spans.Emit(trace.Span{
		Trace:  e.cfg.SpanCtx.Trace,
		Parent: e.cfg.SpanCtx.Span,
		Name:   name,
		Start:  start.UnixMicro(),
		Dur:    dur.Microseconds(),
		Job:    e.cfg.SpanJob,
		Task:   int64(key),
		Life:   life,
		Arg:    arg,
	})
}

// boolArg encodes a boolean as a span argument.
func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
