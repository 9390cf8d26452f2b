package metrics

import (
	"sort"

	"ftdag/internal/stats"
)

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Add adds n (may be negative). No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// sortedCopy is Gather sorted by name+labels.
func (r *Registry) sortedCopy() []Sample {
	out := r.Gather()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	c := h.read()
	return c.Count()
}

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
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
