package core

import (
	"ftdag/internal/block"
	obs "ftdag/internal/metrics" // aliased: core's own run-snapshot struct is named metrics
)

// Instruments is what an executor writes into a metrics registry as it runs:
// the two latency histograms. Every counter family is a scrape-time function
// over the counts the executors keep anyway (Observe), so the hot path writes
// nothing else. One bundle is shared by every execution wired to the same
// registry (the service passes one to all jobs).
//
// Hot paths guard each histogram with a single nil check on the bundle — the
// disabled configuration (nil registry → nil bundle) costs ≤ 2 ns per task,
// enforced by the internal/metrics benchmark gate.
type Instruments struct {
	// ComputeLatency is the latency distribution of the user compute
	// function itself.
	ComputeLatency *obs.Histogram
	// RecoveryLatency is the duration of each incarnation's recovery
	// (REPLACETASK through notify-array reconstruction and re-spawn).
	RecoveryLatency *obs.Histogram
}

// Observe registers the executor and block-store metric families on r and
// returns the histogram bundle to place in Config.Instruments. The counter
// families, and the replication-overhead gauge, are functions over totals:
// the summed Metrics and Store of every execution the caller exports, as
// Result reports them or LiveMetrics and LiveStore read them mid-run. A scrape
// calls totals once per family, so it must never return less than it did
// before. Returns nil on a nil registry (the disabled configuration). Call
// once per registry.
func Observe(r *obs.Registry, totals func() (Metrics, block.Stats)) *Instruments {
	if r == nil {
		return nil
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
		r.CounterFunc(f.name, f.help, func() float64 { return float64(f.count(totals())) })
	}
	r.GaugeFunc("ftdag_replication_overhead_ratio",
		"Shadow (redundant) computes as a fraction of primary computes.",
		func() float64 {
			m, _ := totals()
			if m.Computes == 0 {
				return 0
			}
			return float64(m.ShadowComputes) / float64(m.Computes)
		})
	return &Instruments{
		ComputeLatency: r.Histogram("ftdag_compute_latency_seconds", "Latency of the user compute function."),
		RecoveryLatency: r.Histogram("ftdag_recovery_latency_seconds",
			"Duration of one incarnation's recovery: descriptor replacement, notify-array reconstruction, re-spawn."),
	}
}
