// Package metrics is the runtime's always-on observability layer: a
// stdlib-only registry of atomic counters, gauges, and log-bucketed latency
// histograms, rendered in Prometheus text exposition format by a hand-rolled
// encoder (no dependencies).
//
// The design constraint is that a *disabled* registry must cost nothing on
// the hot path. Every registration method is safe to call on a nil *Registry
// and returns a nil instrument; every instrument method is safe to call on a
// nil receiver and returns after a single inlineable pointer check. Layers
// therefore build their instrument bundles unconditionally and instrument
// their hot paths with plain method calls — when observability is off the
// whole thing compiles down to predicted-not-taken nil tests (≤ 2 ns/op on
// the task-compute hot path, enforced by TestDisabledInstrumentsCostNothing).
//
// Instruments are lock-free (sync/atomic) on the write path; the registry
// mutex is taken only at registration and scrape time.
package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Gauge is a settable int64 level (queue depth, running jobs).
type Gauge struct {
	v atomic.Int64
}

// Set stores n. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// series is one rendered time series within a family.
type series struct {
	labels  string // pre-rendered `{k="v",...}` or ""
	value   func() float64
	hist    func() HistogramCounts // non-nil for histogram families
	seconds bool                   // a histogram's bounds and sum render as seconds
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry is a named collection of instruments. The zero value is not
// usable; call NewRegistry. A nil *Registry is the disabled configuration:
// every registration returns a nil instrument and rendering is empty.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a series under name, creating the family on first use.
// Registration is a setup-time operation: invalid names, type conflicts, and
// duplicate (name, labels) pairs panic rather than failing silently.
func (r *Registry) register(name, help, typ string, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter. labels are key/value pairs
// (e.g. "worker", "3"). Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, "counter", &series{
		labels: renderLabels(labels),
		value:  func() float64 { return float64(c.v.Load()) },
	})
	return c
}

// Gauge registers and returns a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, "gauge", &series{
		labels: renderLabels(labels),
		value:  func() float64 { return float64(g.v.Load()) },
	})
	return g
}

// CounterFunc registers a counter whose value is computed by fn at scrape
// time — the zero-hot-path-cost option for values the runtime already
// counts elsewhere (e.g. scheduler steal totals). No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, "counter", &series{labels: renderLabels(labels), value: fn})
}

// GaugeFunc registers a gauge computed by fn at scrape time. No-op on a nil
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", &series{labels: renderLabels(labels), value: fn})
}

// Uptime registers the ftdag_uptime_seconds gauge — seconds since this call —
// and returns its reader, so a process's uptime has one clock whether a
// scrape or a healthz body reports it. On a nil registry only the gauge is
// missing: the reader still counts.
func (r *Registry) Uptime(help string) func() float64 {
	start := time.Now()
	up := func() float64 { return time.Since(start).Seconds() }
	r.GaugeFunc("ftdag_uptime_seconds", help, up)
	return up
}

// Sample is one gathered time series value.
type Sample struct {
	Name   string
	Labels string // pre-rendered `{k="v"}` block, "" when unlabeled
	Value  float64
}

// Gather evaluates every non-histogram series (histograms are summarized as
// <name>_count samples) in registration order. Nil registries gather
// nothing. Used by scrape-diff tooling (ftsoak) and tests; the HTTP
// exposition path is WritePrometheus.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, f := range r.families {
		for _, s := range f.series {
			if s.hist != nil {
				c := s.hist()
				out = append(out, Sample{Name: f.name + "_count", Labels: s.labels, Value: float64(c.Count())})
				continue
			}
			out = append(out, Sample{Name: f.name, Labels: s.labels, Value: s.value()})
		}
	}
	return out
}

// Value returns the gathered value of the series with the given name and no
// labels (histograms: the observation count). Returns 0, false when absent.
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	f, ok := r.byName[name]
	r.mu.Unlock()
	if !ok {
		// A histogram family is addressable by its _count as Gather
		// reports it.
		if strings.HasSuffix(name, "_count") {
			r.mu.Lock()
			f, ok = r.byName[strings.TrimSuffix(name, "_count")]
			r.mu.Unlock()
		}
		if !ok {
			return 0, false
		}
	}
	for _, s := range f.series {
		if s.labels == "" {
			if s.hist != nil {
				c := s.hist()
				return float64(c.Count()), true
			}
			return s.value(), true
		}
	}
	return 0, false
}

// validName reports whether name matches the Prometheus metric name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels turns key/value pairs into a `{k="v",...}` block, escaping
// backslash, quote, and newline in values per the exposition format.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: labels must be key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) || strings.Contains(kv[i], ":") {
			panic(fmt.Sprintf("metrics: invalid label name %q", kv[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatFloat renders a value the way Prometheus clients do: shortest
// round-trip representation.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
