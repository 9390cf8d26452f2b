package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("Summary = %+v", s)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if math.Abs(s.Std-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("Std = %v", s.Std)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty Summary = %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Std != 0 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("singleton Summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestSummarizeInts(t *testing.T) {
	si := SummarizeInts([]int64{1, 2, 3})
	if si.Mean != 2 || si.Min != 1 || si.Max != 3 {
		t.Fatalf("ints Summary = %+v", si)
	}
}

func TestMedian(t *testing.T) {
	if m := Median(nil); m != 0 {
		t.Fatalf("Median(nil) = %v", m)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("Median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("Median even = %v", m)
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Fatal("Median mutated input")
	}
}

func TestOverheadAndSpeedup(t *testing.T) {
	if o := OverheadPercent(1.05, 1.0); math.Abs(o-5) > 1e-9 {
		t.Fatalf("OverheadPercent = %v", o)
	}
	if o := OverheadPercent(1, 0); o != 0 {
		t.Fatalf("OverheadPercent base 0 = %v", o)
	}
	if s := Speedup(10, 2); s != 5 {
		t.Fatalf("Speedup = %v", s)
	}
	if s := Speedup(10, 0); s != 0 {
		t.Fatalf("Speedup tp=0 = %v", s)
	}
}

// TestQuickSummaryInvariants: min ≤ mean ≤ max, std ≥ 0, and mean is
// translation-equivariant.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(xs []float64, shift float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip degenerate inputs
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e12 {
			return true
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		if !(s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9) || s.Std < 0 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		s2 := Summarize(shifted)
		tol := 1e-6 * (1 + math.Abs(s.Mean) + math.Abs(shift))
		return math.Abs(s2.Mean-(s.Mean+shift)) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"one-element-p50", []float64{7}, 0.5, 7},
		{"one-element-p99", []float64{7}, 0.99, 7},
		{"all-equal", []float64{4, 4, 4, 4, 4}, 0.95, 4},
		{"two-elements-interpolates", []float64{10, 20}, 0.5, 15},
		{"exact-order-statistic", []float64{1, 2, 3, 4, 5}, 0.25, 2},
		{"interpolated", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"unsorted-input", []float64{9, 1, 5}, 0.5, 5},
		{"q-below-zero-clamps", []float64{1, 2, 3}, -0.5, 1},
		{"q-above-one-clamps", []float64{1, 2, 3}, 1.5, 3},
		{"p99-near-max", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 9.91},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("Quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
			}
		})
	}
}

func TestSummarizePercentiles(t *testing.T) {
	// A singleton pins every percentile to the lone observation.
	s := Summarize([]float64{3})
	if s.P50 != 3 || s.P95 != 3 || s.P99 != 3 {
		t.Fatalf("singleton percentiles = %+v", s)
	}
	// An all-equal sample does too.
	s = Summarize([]float64{6, 6, 6, 6})
	if s.P50 != 6 || s.P95 != 6 || s.P99 != 6 || s.Std != 0 {
		t.Fatalf("all-equal percentiles = %+v", s)
	}
	// Percentiles are order statistics of a sorted copy, so input order
	// must not matter and the input must not be mutated.
	in := []float64{5, 1, 3, 2, 4}
	s = Summarize(in)
	if s.P50 != 3 {
		t.Fatalf("P50 = %v, want 3", s.P50)
	}
	if in[0] != 5 || in[1] != 1 {
		t.Fatal("Summarize mutated input")
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{0, 0.5, 0}, {1, 0.99, 0}, {2, 0.5, 0.5}, {5, 0.25, 1},
		{10, 1, 9}, {10, 2, 9}, {10, -1, 0}, {101, 0.5, 50},
	}
	for _, c := range cases {
		if got := Rank(c.n, c.q); got != c.want {
			t.Errorf("Rank(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}
