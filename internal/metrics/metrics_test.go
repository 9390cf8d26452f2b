package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"ftdag/internal/stats"
)

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("x", "help")
	h := r.Histogram("x_seconds", "help")
	vh := r.ValueHistogram("x_batch", "help")
	r.CounterFunc("y_total", "help", func() float64 { return 1 })
	r.GaugeFunc("y", "help", func() float64 { return 1 })
	if c != nil || g != nil || h != nil || vh != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	// All instrument methods must be no-ops, not panics.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	h.ObserveDuration(time.Millisecond)
	h.ObserveSince(h.Start())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if !h.Start().IsZero() {
		t.Fatal("nil histogram Start must not call time.Now")
	}
	if got := r.Gather(); got != nil {
		t.Fatalf("nil registry Gather = %v, want nil", got)
	}
	if _, ok := r.Value("x_total"); ok {
		t.Fatal("nil registry Value must report absent")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry WritePrometheus = %q, %v", sb.String(), err)
	}
}

func TestCounterGaugeRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs run")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if v, ok := r.Value("jobs_total"); !ok || v != 5 {
		t.Fatalf("Value(jobs_total) = %v, %v", v, ok)
	}
	if _, ok := r.Value("absent"); ok {
		t.Fatal("Value(absent) must report absent")
	}
}

func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	c0 := r.Counter("steals_total", "steals", "worker", "0")
	c1 := r.Counter("steals_total", "steals", "worker", "1")
	c0.Add(2)
	c1.Add(3)
	samples := r.Gather()
	want := map[string]float64{`{worker="0"}`: 2, `{worker="1"}`: 3}
	n := 0
	for _, s := range samples {
		if s.Name == "steals_total" {
			if want[s.Labels] != s.Value {
				t.Fatalf("series %s%s = %v, want %v", s.Name, s.Labels, s.Value, want[s.Labels])
			}
			n++
		}
	}
	if n != 2 {
		t.Fatalf("gathered %d steals_total series, want 2", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := renderLabels([]string{"path", "a\\b\"c\nd"})
	want := `{path="a\\b\"c\nd"}`
	if got != want {
		t.Fatalf("renderLabels = %s, want %s", got, want)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x")
	mustPanic("duplicate", func() { r.Counter("dup_total", "x") })
	mustPanic("type conflict", func() { r.Gauge("dup_total", "x") })
	mustPanic("bad name", func() { r.Counter("9bad", "x") })
	mustPanic("odd labels", func() { r.Counter("odd_total", "x", "k") })
	mustPanic("bad label name", func() { r.Counter("lbl_total", "x", "9k", "v") })
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.ValueHistogram("batch", "batch sizes")
	for _, v := range []int64{0, 1, 2, 3, 4, 1 << 20, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got := h.Sum(); got != 0+1+2+3+4+(1<<20) { // -5 clamps to 0
		t.Fatalf("sum = %d", got)
	}
	// 0 and the clamped -5 land in bucket 0; 1 in bucket 1; 2,3 in bucket 2;
	// 4 in bucket 3; 1<<20 in bucket 21.
	wantCounts := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 21: 1}
	for i := range h.counts {
		if got := h.counts[i].Load(); got != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, wantCounts[i])
		}
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	var r = NewRegistry()
	h := r.ValueHistogram("big", "x")
	h.Observe(math.MaxInt64)
	if got := h.counts[numBuckets-1].Load(); got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

// TestHistogramQuantileTracksExact checks the histogram quantile stays within
// one log-bucket of the exact sample quantile computed by internal/stats —
// they share the Rank convention, so the only error is bucket resolution.
func TestHistogramQuantileTracksExact(t *testing.T) {
	r := NewRegistry()
	h := r.ValueHistogram("lat", "x")
	var xs []float64
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
		xs = append(xs, float64(v))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := stats.Quantile(xs, q)
		est := h.Quantile(q)
		// Containing bucket [2^(i-1), 2^i) spans a factor of two.
		if est < exact/2 || est > exact*2 {
			t.Fatalf("q=%v: histogram %v vs exact %v (out of bucket range)", q, est, exact)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.ValueHistogram("edge", "x")
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
	h.Observe(8)
	// One observation: every quantile interpolates inside bucket [8,16).
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		if got < 8 || got >= 16 {
			t.Fatalf("q=%v single-sample quantile = %v, want in [8,16)", q, got)
		}
	}
	h2 := r.ValueHistogram("edge2", "x")
	for i := 0; i < 100; i++ {
		h2.Observe(10) // all-equal: bucket [8,16)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h2.Quantile(q)
		if got < 8 || got >= 16 {
			t.Fatalf("q=%v all-equal quantile = %v, want in [8,16)", q, got)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ftdag_tasks_computed_total", "Tasks computed.")
	c.Add(3)
	g := r.Gauge("ftdag_jobs_running", "Running jobs.", "pool", "main")
	g.Set(2)
	h := r.Histogram("ftdag_compute_seconds", "Compute latency.")
	h.ObserveDuration(512 * time.Nanosecond) // bucket [512,1024) ns → le 1.024e-06
	h.ObserveDuration(3 * time.Nanosecond)   // bucket [2,4) ns

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP ftdag_tasks_computed_total Tasks computed.\n",
		"# TYPE ftdag_tasks_computed_total counter\n",
		"ftdag_tasks_computed_total 3\n",
		"# TYPE ftdag_jobs_running gauge\n",
		`ftdag_jobs_running{pool="main"} 2` + "\n",
		"# TYPE ftdag_compute_seconds histogram\n",
		`ftdag_compute_seconds_bucket{le="4e-09"} 1` + "\n",
		`ftdag_compute_seconds_bucket{le="1.024e-06"} 2` + "\n",
		`ftdag_compute_seconds_bucket{le="+Inf"} 2` + "\n",
		"ftdag_compute_seconds_sum 5.15e-07\n",
		"ftdag_compute_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be name[{labels}] value.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Split(line, " ")
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
	// HELP/TYPE appear exactly once per family.
	if strings.Count(out, "# TYPE ftdag_compute_seconds ") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
}

func TestWritePrometheusLabeledHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "x", "worker", "3")
	h.Observe(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `lat_seconds_bucket{worker="3",le="2e-09"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, sb.String())
	}
}

func TestGatherSortedCopyStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "x").Inc()
	r.Counter("a_total", "x").Inc()
	sc := r.sortedCopy()
	if len(sc) != 2 || sc[0].Name != "a_total" || sc[1].Name != "z_total" {
		t.Fatalf("sortedCopy = %+v", sc)
	}
}

func TestHistogramValueByCountSuffix(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "x")
	h.Observe(5)
	h.Observe(9)
	if v, ok := r.Value("lat_seconds_count"); !ok || v != 2 {
		t.Fatalf("Value(lat_seconds_count) = %v, %v, want 2", v, ok)
	}
}

// TestUptimeOneClock: the gauge and the returned reader are the same clock,
// and a nil registry loses the gauge but not the reader.
func TestUptimeOneClock(t *testing.T) {
	r := NewRegistry()
	up := r.Uptime("since start")
	time.Sleep(time.Millisecond)
	a := up()
	g, ok := r.Value("ftdag_uptime_seconds")
	b := up()
	if !ok || a <= 0 || g < a || g > b {
		t.Fatalf("reader %v, gauge %v (%v), reader %v: want them ordered and positive", a, g, ok, b)
	}
	var none *Registry
	if nup := none.Uptime("x"); nup() < 0 {
		t.Fatal("nil registry's uptime reader went backwards")
	}
}
