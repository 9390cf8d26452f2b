package core

import (
	"fmt"
	"time"

	"ftdag/internal/block"
	"ftdag/internal/graph"
)

// Sequential executes the task graph on a single thread in topological
// order. It measures T1 (the work term of the completion-time bound) and
// produces the ground-truth outputs against which the parallel executions
// are verified (Theorem 1: same result with and without faults).
type Sequential struct {
	spec  graph.Spec
	store *block.Store
	met   metrics // one block: the one context's block accesses
}

// NewSequential returns a sequential executor with the given block-version
// retention.
func NewSequential(spec graph.Spec, retention int) *Sequential {
	return &Sequential{spec: spec, store: block.NewStore(retention), met: newMetrics(1)}
}

// Run executes every task once, in topological order, and returns the
// result. A read failure means the spec's dependences do not protect its
// block reuse and is reported as an error. The store's buffers go to the
// block free list when Run returns, as RunOn's do.
func (e *Sequential) Run() (*Result, error) {
	defer e.store.Release()
	order, err := graph.TopoOrder(e.spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ctx := &seqCtx{e: e, met: &e.met.blocks[0].counters}
	for _, key := range order {
		ctx.key, ctx.wrote = key, false
		if err := e.spec.Compute(ctx, key); err != nil {
			return nil, fmt.Errorf("core: sequential compute of task %d: %w", key, err)
		}
		ctx.release(true)
		if !ctx.wrote {
			return nil, fmt.Errorf("core: task %d computed without writing its output", key)
		}
	}
	elapsed := time.Since(start)
	res := &Result{Elapsed: elapsed, Tasks: len(order), Store: e.met.storeStats(e.store)}
	res.Metrics.Computes = int64(len(order))
	ref := e.spec.Output(e.spec.Sink())
	data, err := e.store.Read(ref.Block, ref.Version)
	if err != nil {
		return nil, fmt.Errorf("core: sequential sink output unreadable: %w", err)
	}
	res.Sink = data
	return res, nil
}

type seqCtx struct {
	e   *Sequential
	met *counters // the executor's one block
	key graph.Key
	heldBufs
	wrote bool
}

var (
	_ graph.Context   = (*seqCtx)(nil)
	_ graph.RunReader = (*seqCtx)(nil)
)

func (c *seqCtx) ReadPred(pred graph.Key) ([]float64, error) {
	slot, version := specOutput(c.e.spec, c.e.store, pred)
	return c.read(c.met, pred, slot, version, false)
}

func (c *seqCtx) ReadPredAt(pred graph.Key, dst []float64, runs ...block.Run) error {
	slot, version := specOutput(c.e.spec, c.e.store, pred)
	return c.readAt(c.met, pred, slot, version, dst, runs, false)
}

func (c *seqCtx) Write(data []float64) {
	slot, version := specOutput(c.e.spec, c.e.store, c.key)
	_, _, evicted := c.write(slot, version, c.key, 0, data)
	c.met.countWrite(evicted)
	c.wrote = true
}
