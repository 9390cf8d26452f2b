package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets bounds the histogram at 2^39 ns ≈ 550 s for seconds
// histograms; the final bucket is the +Inf catch-all.
const numBuckets = 40

// Histogram is a log-bucketed distribution of non-negative int64
// observations (nanoseconds for latency histograms): bucket i counts values
// v with 2^(i−1) ≤ v < 2^i (bucket 0 counts v = 0), so Observe is a
// bits.Len64 plus three uncontended atomic adds — cheap enough for the
// scheduler's per-task paths.
type Histogram struct {
	counts  [numBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
	seconds bool // render bounds and sum as seconds
}

// Histogram registers and returns a seconds histogram: observations are
// nanoseconds (ObserveDuration / ObserveSince), exposition renders bucket
// bounds and sum as seconds. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{seconds: true}
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), hist: h})
	return h
}

// ValueHistogram registers a histogram over raw values (e.g. fsync batch
// sizes) rather than durations. Returns nil on a nil registry.
func (r *Registry) ValueHistogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), hist: h})
	return h
}

// Observe records one value (negative values clamp to 0). No-op on a nil
// histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= numBuckets {
		i = numBuckets - 1
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a latency in nanoseconds. No-op on a nil
// histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Start returns the current time for a later ObserveSince, or the zero time
// on a nil histogram — so a disabled registry never calls time.Now on the
// hot path.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the latency since start (a Start result). No-op on a
// nil histogram.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}
