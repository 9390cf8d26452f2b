package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// series builds ten runs, seeds 0..9, whose values are base scaled by
// 1 ± up to half the given width.
func series(k key, base, width float64) *runs {
	r := &runs{values: map[key][]float64{}, seeds: map[key][]int64{}, failed: map[string]int{}}
	for i := 0; i < 10; i++ {
		r.values[k] = append(r.values[k], base*(1+width*(float64(i)/9-0.5)))
		r.seeds[k] = append(r.seeds[k], int64(i))
	}
	return r
}

func TestVerdicts(t *testing.T) {
	k := key{"w", "latency_ms"}
	lower := metricDecl{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "latency_ms", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name           string
		d              metricDecl
		parent, change *runs
		want           string
	}{
		{"slower by more than the bound", lower, series(k, 100, 0.02), series(k, 115, 0.02), "worse"},
		{"slower within the bound", lower, series(k, 100, 0.02), series(k, 105, 0.02), "within-bound"},
		{"faster by more than the parent's spread", lower, series(k, 100, 0.02), series(k, 90, 0.02), "better"},
		{"faster, but by less than the parent's spread", lower, series(k, 100, 0.08), series(k, 99, 0.08), "within-bound"},
		{"spread wider than the bound", lower, series(k, 100, 0.40), series(k, 80, 0.02), "unresolved"},
		{"higher is better: a drop beyond the bound", higher, series(k, 100, 0.02), series(k, 85, 0.02), "worse"},
		{"higher is better: a rise", higher, series(k, 100, 0.02), series(k, 110, 0.02), "better"},
	} {
		if got := verdict(tc.d, tc.parent, tc.change, k); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSpreadsFlagsAWideMetricAndFailures(t *testing.T) {
	man := &manifest{EndToEnd: []metricDecl{{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	man.Workloads = append(man.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	k := key{"w", "latency_ms"}
	var out bytes.Buffer
	if !spreads(&out, man, series(k, 100, 0.02)) {
		t.Errorf("a 1%% spread was reported as outside a 10%% bound:\n%s", out.String())
	}
	out.Reset()
	if spreads(&out, man, series(k, 100, 0.60)) || !strings.Contains(out.String(), "WIDER THAN BOUND") {
		t.Errorf("a 30%% spread passed a 10%% bound:\n%s", out.String())
	}
	failing := series(k, 100, 0.02)
	failing.failed["w"] = 3
	if spreads(&out, man, failing) {
		t.Error("runs with failed operations passed")
	}
}
