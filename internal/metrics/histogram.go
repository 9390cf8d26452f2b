package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"

	"ftdag/internal/stats"
)

// numBuckets bounds the histogram at 2^39 ns ≈ 550 s for seconds
// histograms; the final bucket is the +Inf catch-all.
const numBuckets = 40

// Histogram is a log-bucketed distribution of non-negative int64
// observations (nanoseconds for latency histograms): bucket i counts values
// v with 2^(i−1) ≤ v < 2^i (bucket 0 counts v = 0), so Observe is a
// bits.Len64 plus three uncontended atomic adds — cheap enough for the
// scheduler's per-task paths. Quantiles interpolate linearly inside the
// containing bucket using the same rank convention as the exact sample
// percentiles in internal/stats, so `p95` means the same thing in a live
// scrape and in a harness report.
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

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// Quantile returns an estimate of the q-quantile of the observed values (in
// raw units, i.e. nanoseconds for a seconds histogram; 0 with no
// observations). The rank is stats.Rank — the same convention as the exact
// percentiles in stats.Summarize — located in the cumulative bucket counts
// and interpolated linearly inside the containing bucket, so the estimate is
// within one log-bucket of the exact value.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [numBuckets]int64
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := stats.Rank(int(total), q)
	cum := float64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) || i == numBuckets-1 {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += float64(c)
	}
	return 0 // unreachable: total > 0 places the rank in some bucket
}
