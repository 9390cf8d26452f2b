package metrics_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"ftdag/internal/metrics"
	"ftdag/internal/trace"
)

// instrumented mirrors the bundle-of-instruments pattern the runtime layers
// use for what they write on the hot path (the journal/sched observer
// structs): a struct of instrument pointers built
// once, nil when the registry is nil, with hot paths guarded by a single
// bundle nil check. The disabled case is therefore
// one predicted-not-taken pointer test per instrumentation site;
// TestDisabledInstrumentsCostNothing requires it to cost ≤ 2 ns/op.
type instrumented struct {
	computed *metrics.Counter
	lat      *metrics.Histogram
	depth    *metrics.Gauge
}

func newInstrumented(r *metrics.Registry) *instrumented {
	if r == nil {
		return nil
	}
	return &instrumented{
		computed: r.Counter("bench_tasks_total", "x"),
		lat:      r.ValueHistogram("bench_lat", "x"),
		depth:    r.Gauge("bench_depth", "x"),
	}
}

// The hot-path benchmarks write the guarded block inline, exactly as the
// runtime's instrumentation sites do — the guard is straight-line code in
// the caller, not a helper call.

func BenchmarkDisabledHotPath(b *testing.B) {
	in := newInstrumented(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if in != nil {
			in.computed.Inc()
			in.lat.Observe(int64(i))
			in.depth.Add(1)
		}
	}
}

func BenchmarkEnabledHotPath(b *testing.B) {
	in := newInstrumented(metrics.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if in != nil {
			in.computed.Inc()
			in.lat.Observe(int64(i))
			in.depth.Add(1)
		}
	}
}

func BenchmarkDisabledObserveSince(b *testing.B) {
	in := newInstrumented(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if in != nil {
			in.lat.ObserveSince(in.lat.Start())
		}
	}
}

func BenchmarkEnabledObserveDuration(b *testing.B) {
	in := newInstrumented(metrics.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.lat.ObserveDuration(time.Duration(i))
	}
}

// BenchmarkDisabledTracing is the same pattern for the tracing family, two
// sites per iteration: a nil *trace.Spans (tracing off) and a nil
// *trace.Flight (no black box). Each Emit must reduce to one inlined nil
// check with the argument construction dead-code-eliminated. The recorders
// come from a package variable so that the compiler cannot see they are nil
// and delete the loop.
var tracingOff = struct {
	spans  *trace.Spans
	flight *trace.Flight
}{trace.NewSpans("bench", 0), trace.NewFlight("bench", 0)}

func BenchmarkDisabledTracing(b *testing.B) {
	sp, f := tracingOff.spans, tracingOff.flight
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.Emit(trace.Span{Name: "compute", Job: 1, Task: int64(i)})
		f.Emit("compute", "bench", 1, int64(i), 0, trace.SpanContext{})
	}
}

// cpuNsPerSite runs loop for a fixed number of iterations on a goroutine
// locked to its OS thread and returns the thread's CPU time per site. CPU
// time, not wall time, is what a disabled site costs a run; the wall clock
// would also count the time the thread waited while other processes (the
// rest of a parallel `go test ./...`) held the CPU.
func cpuNsPerSite(loop func(*testing.B), sites float64) float64 {
	const n = 1 << 27
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	loop(&testing.B{N: n})
	return float64(threadCPU()-start) / n / sites
}

// TestDisabledInstrumentsCostNothing: instrumentation that was not asked for
// — every production default — allocates nothing and costs at most 2 ns of
// CPU per site, so it can never quietly tax a run. The time is the best of
// three, because the bound is a ceiling and only spurious slowness can break
// it; it is not measured under -short or under the race detector, whose
// instrumentation it would time.
func TestDisabledInstrumentsCostNothing(t *testing.T) {
	const maxNsPerSite = 2.0
	timed := !testing.Short()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				timed = false
			}
		}
	}
	for _, l := range []struct {
		name  string
		sites float64
		loop  func(*testing.B)
	}{
		{"metrics bundle", 1, BenchmarkDisabledHotPath},
		{"spans, flight", 2, BenchmarkDisabledTracing},
	} {
		b := &testing.B{N: 1000}
		if allocs := testing.AllocsPerRun(10, func() { l.loop(b) }); allocs != 0 {
			t.Errorf("%s: 1000 disabled iterations allocated %v times, want 0", l.name, allocs)
		}
		if !timed {
			continue
		}
		best := math.Inf(1)
		for i := 0; i < 3 && best > maxNsPerSite; i++ {
			best = min(best, cpuNsPerSite(l.loop, l.sites))
		}
		t.Logf("%s: %.2f ns per disabled site", l.name, best)
		if best > maxNsPerSite {
			t.Errorf("%s: %.2f ns per disabled site, want <= %.0f", l.name, best, maxNsPerSite)
		}
	}
}
