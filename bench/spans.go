package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ftdag/internal/graph"
)

// The traced run records spans from here, around the calls into each layer;
// nothing inside the program is instrumented. A DAG execution is seen through
// a decorator on the input graph.Spec: its Compute is the "compute" span of a
// task, and the graph.Context it hands on times ReadPred and Write as
// "block.read" and "block.write" spans whose parent is that compute span. The
// service is seen through spans around each HTTP call.

// Span layers.
const (
	layerCompute = iota // kernel self time: the compute span minus its block children
	layerRead
	layerWrite
	layerHTTPSubmit
	layerHTTPStatus
	numLayers
)

var layerNames = [numLayers]string{"compute", "block.read", "block.write", "http.submit", "http.status"}

// spanRec is one recorded span. Parent is the layer of the enclosing span of
// the same task (-1: none); together with Task it names the causing span.
type spanRec struct {
	Layer  int8
	Parent int8
	Task   int64 // task key, or job index for HTTP spans
	Start  int64 // ns since the recorder was made
	Dur    int64
}

// maxSpans bounds the spans kept for the trace file. Totals are exact for
// every span; only the file is a prefix, and it says how many it dropped.
const maxSpans = 1 << 16

// shard spreads the per-layer totals so two workers rarely share a cache line.
type shard struct {
	ns    [numLayers]atomic.Int64
	count [numLayers]atomic.Int64
	_     [128]byte
}

type recorder struct {
	epoch   time.Time
	shards  [16]shard
	spans   []spanRec
	next    atomic.Int64
	dropped atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]spanRec, maxSpans)}
}

// add records one span; self is the part of dur not covered by child spans.
func (r *recorder) add(layer, parent int8, task int64, start time.Time, dur, self time.Duration) {
	s := &r.shards[uint64(task)%uint64(len(r.shards))]
	s.ns[layer].Add(int64(self))
	s.count[layer].Add(1)
	if i := r.next.Add(1) - 1; i < maxSpans {
		r.spans[i] = spanRec{layer, parent, task, int64(start.Sub(r.epoch)), int64(dur)}
	} else {
		r.dropped.Add(1)
	}
}

// layerTotals is the summed self time and span count of each layer.
type layerTotals struct {
	ns    [numLayers]int64
	count [numLayers]int64
}

func (r *recorder) totals() layerTotals {
	var t layerTotals
	for i := range r.shards {
		for l := 0; l < numLayers; l++ {
			t.ns[l] += r.shards[i].ns[l].Load()
			t.count[l] += r.shards[i].count[l].Load()
		}
	}
	return t
}

func (t layerTotals) sub(u layerTotals) layerTotals {
	for l := 0; l < numLayers; l++ {
		t.ns[l] -= u.ns[l]
		t.count[l] -= u.count[l]
	}
	return t
}

// writeFile writes the kept spans out once the benchmark has ended.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type jsonSpan struct {
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		Task    int64  `json:"task"`
		StartNS int64  `json:"start_ns"`
		DurNS   int64  `json:"dur_ns"`
	}
	n := r.next.Load()
	if n > maxSpans {
		n = maxSpans
	}
	out := struct {
		Dropped int64      `json:"dropped"`
		Spans   []jsonSpan `json:"spans"`
	}{r.dropped.Load(), make([]jsonSpan, n)}
	for i, s := range r.spans[:n] {
		js := jsonSpan{Name: layerNames[s.Layer], Task: s.Task, StartNS: s.Start, DurNS: s.Dur}
		if s.Parent >= 0 {
			js.Parent = layerNames[s.Parent]
		}
		out.Spans[i] = js
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedSpec decorates a graph.Spec so every Compute is a span.
type tracedSpec struct {
	graph.Spec
	rec *recorder
}

func (s tracedSpec) Compute(ctx graph.Context, key graph.Key) error {
	tc := &tracedCtx{inner: ctx, rec: s.rec, key: key}
	start := time.Now()
	err := s.Spec.Compute(tc, key)
	dur := time.Since(start)
	s.rec.add(layerCompute, -1, key, start, dur, dur-tc.children)
	return err
}

// tracedCtx times the block accesses of one compute and sums them, so the
// compute span can report its self time.
type tracedCtx struct {
	inner    graph.Context
	rec      *recorder
	key      graph.Key
	children time.Duration
}

func (c *tracedCtx) ReadPred(pred graph.Key) ([]float64, error) {
	start := time.Now()
	data, err := c.inner.ReadPred(pred)
	dur := time.Since(start)
	c.children += dur
	c.rec.add(layerRead, layerCompute, c.key, start, dur, dur)
	return data, err
}

func (c *tracedCtx) Write(data []float64) {
	start := time.Now()
	c.inner.Write(data)
	dur := time.Since(start)
	c.children += dur
	c.rec.add(layerWrite, layerCompute, c.key, start, dur, dur)
}
