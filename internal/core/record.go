package core

import (
	"fmt"
	"sync"

	"ftdag/internal/block"
	"ftdag/internal/graph"
)

// Recorder wraps a Spec and records the output every task produces on its
// most recent successful compute. Because tasks are stateless (Theorem 1:
// every execution of a task produces the same output for the same inputs),
// the recorded map of a faulty run must equal that of a fault-free
// sequential run — the strongest per-task form of the paper's correctness
// claim, used by the verification tests and the harness's -verify mode.
type Recorder struct {
	inner graph.Spec

	mu   sync.Mutex
	outs map[graph.Key][]float64
}

// NewRecorder wraps spec.
func NewRecorder(spec graph.Spec) *Recorder {
	return &Recorder{inner: spec, outs: make(map[graph.Key][]float64)}
}

var _ graph.Spec = (*Recorder)(nil)

func (r *Recorder) Sink() graph.Key                      { return r.inner.Sink() }
func (r *Recorder) Predecessors(k graph.Key) []graph.Key { return r.inner.Predecessors(k) }
func (r *Recorder) Successors(k graph.Key) []graph.Key   { return r.inner.Successors(k) }
func (r *Recorder) Output(k graph.Key) block.Ref         { return r.inner.Output(k) }

func (r *Recorder) Compute(ctx graph.Context, key graph.Key) error {
	rc := &recordCtx{inner: ctx}
	if err := r.inner.Compute(rc, key); err != nil {
		return err
	}
	r.mu.Lock()
	r.outs[key] = rc.data
	r.mu.Unlock()
	return nil
}

// Outputs returns a snapshot of the recorded per-task outputs.
func (r *Recorder) Outputs() map[graph.Key][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[graph.Key][]float64, len(r.outs))
	for k, v := range r.outs {
		out[k] = v
	}
	return out
}

// Diff compares the recorded outputs against another recording and returns
// a description of the first difference, or "" if identical.
func (r *Recorder) Diff(want map[graph.Key][]float64) string {
	got := r.Outputs()
	if len(got) != len(want) {
		return fmt.Sprintf("recorded %d task outputs, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("task %d missing from recording", k)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("task %d output length %d, want %d", k, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Sprintf("task %d output[%d] = %v, want %v", k, i, g[i], w[i])
			}
		}
	}
	return ""
}

type recordCtx struct {
	inner graph.Context
	data  []float64
}

func (c *recordCtx) ReadPred(pred graph.Key) ([]float64, error) { return c.inner.ReadPred(pred) }

func (c *recordCtx) ReadPredAt(pred graph.Key, dst []float64, runs ...block.Run) error {
	return graph.ReadPredAt(c.inner, pred, dst, runs...)
}

// Write keeps a copy: the slice itself passes to the executor's store, where
// the injector may flip its bits and an eviction recycles it.
func (c *recordCtx) Write(data []float64) {
	c.data = append([]float64(nil), data...)
	c.inner.Write(data)
}
