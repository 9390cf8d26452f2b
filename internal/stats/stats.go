// Package stats provides the small set of summary statistics the experiment
// harness reports: arithmetic mean and standard deviation over repeated
// runs (the paper reports 10-run means with standard-deviation error bars),
// plus min/max for Table II.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N    int
	Mean float64
	Std  float64 // sample standard deviation (n-1 denominator)
	Min  float64
	Max  float64
	// P50/P95/P99 are exact sample percentiles (linear interpolation
	// between order statistics, the R-7 convention of Rank).
	P50 float64
	P95 float64
	P99 float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = QuantileSorted(sorted, 0.50)
	s.P95 = QuantileSorted(sorted, 0.95)
	s.P99 = QuantileSorted(sorted, 0.99)
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("mean=%.4g std=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g (n=%d)",
		s.Mean, s.Std, s.Min, s.P50, s.P95, s.P99, s.Max, s.N)
}

// Rank returns the fractional 0-based rank of quantile q in a sample of n
// observations under the linear-interpolation convention (R-7, the default
// of R and NumPy): rank q·(n−1), clamped to [0, n−1]. It is the single
// shared definition of "where the q-quantile sits" used by both the exact
// sample quantiles here and the log-bucketed histogram quantiles in
// internal/metrics, so the two report the same statistic.
func Rank(n int, q float64) float64 {
	if n <= 1 || q <= 0 {
		return 0
	}
	if q >= 1 {
		return float64(n - 1)
	}
	return q * float64(n-1)
}

// Quantile returns the exact q-quantile of xs (0 for an empty sample),
// sorting a copy and interpolating linearly between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile over an already-sorted sample.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := Rank(len(sorted), q)
	i := int(math.Floor(r))
	f := r - float64(i)
	if f == 0 || i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i]*(1-f) + sorted[i+1]*f
}

// SummarizeInts summarises integer observations (e.g. re-executed task
// counts, Table II).
func SummarizeInts(ns []int64) Summary {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return Summarize(xs)
}

// Median returns the median of xs (0 for an empty sample). It is
// Quantile(xs, 0.5): for odd n the middle order statistic, for even n the
// mean of the two middle ones.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// OverheadPercent returns 100·(t−base)/base, the paper's recovery-overhead
// metric (execution-time increase over the fault-free FT run).
func OverheadPercent(t, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (t - base) / base
}

// Speedup returns t1/tp, the paper's Figure 4 metric.
func Speedup(t1, tp float64) float64 {
	if tp == 0 {
		return 0
	}
	return t1 / tp
}
