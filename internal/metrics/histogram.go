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
// bits.Len64 plus two uncontended atomic adds — cheap enough for the
// scheduler's per-task paths. Its count is the sum of its buckets.
type Histogram struct {
	HistogramShard
	seconds bool // render bounds and sum as seconds
}

// HistogramShard is the counts of a histogram, or one writer's part of them:
// a layer whose writers each keep a shard on lines of their own — the
// executors' per-worker blocks — records with no write another writer's core
// must see, and registers the sum of the shards with HistogramFunc.
type HistogramShard struct {
	counts [numBuckets]atomic.Int64
	sum    atomic.Int64
}

// HistogramCounts is a histogram's counts as they stand: what a scrape
// renders, and what a layer's HistogramFunc sums its shards into.
type HistogramCounts struct {
	Buckets [numBuckets]int64
	Sum     int64
}

// Count returns the number of observations: the sum of the buckets.
func (c *HistogramCounts) Count() int64 {
	var n int64
	for _, b := range c.Buckets {
		n += b
	}
	return n
}

// Add adds b's counts to c.
func (c *HistogramCounts) Add(b HistogramCounts) {
	for i := range c.Buckets {
		c.Buckets[i] += b.Buckets[i]
	}
	c.Sum += b.Sum
}

// Observe records one value (negative values clamp to 0).
func (s *HistogramShard) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= numBuckets {
		i = numBuckets - 1
	}
	s.counts[i].Add(1)
	s.sum.Add(v)
}

// AddTo adds the shard's counts as they stand to c. Every count only grows,
// so neither do the sums of successive reads go down.
func (s *HistogramShard) AddTo(c *HistogramCounts) {
	for i := range s.counts {
		c.Buckets[i] += s.counts[i].Load()
	}
	c.Sum += s.sum.Load()
}

// read returns the shard's counts as they stand.
func (s *HistogramShard) read() HistogramCounts {
	var c HistogramCounts
	s.AddTo(&c)
	return c
}

// Histogram registers and returns a seconds histogram: observations are
// nanoseconds (ObserveDuration / ObserveSince), exposition renders bucket
// bounds and sum as seconds. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{seconds: true}
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), hist: h.read, seconds: true})
	return h
}

// HistogramFunc registers a seconds histogram whose counts fn returns at
// scrape time — the sum of a layer's shards. No-op on a nil registry.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramCounts, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), hist: fn, seconds: true})
}

// ValueHistogram registers a histogram over raw values (e.g. fsync batch
// sizes) rather than durations. Returns nil on a nil registry.
func (r *Registry) ValueHistogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), hist: h.read})
	return h
}

// Observe records one value (negative values clamp to 0). No-op on a nil
// histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.HistogramShard.Observe(v)
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

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}
