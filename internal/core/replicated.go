package core

import (
	"fmt"
	"sync"
	"time"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
)

// Replicated is a dual-modular-redundancy executor — the replication
// approach the paper contrasts with (§VII: "Another direction has been to
// use replication of processes. While this approach does not require
// additional programmer effort, it decreases resource utilization
// efficiency"). Every task is executed twice and the outputs compared;
// a mismatch (a silent data corruption caught by the redundancy itself,
// with no external detector needed) re-executes the pair until the replicas
// agree. The point of the comparator is the paper's efficiency argument:
// fault-free execution costs 2× the work that the FT scheduler's
// near-zero-overhead bookkeeping avoids.
//
// Tasks run in level-synchronous topological waves on the work-stealing
// pool, like the checkpoint comparator. Single-assignment storage only.
type Replicated struct {
	spec graph.Spec
	cfg  Config

	mu         sync.Mutex
	outs       map[graph.Key][]float64
	met        counters
	mismatches int64
}

// ReplicatedStats counts the redundancy work.
type ReplicatedStats struct {
	// Mismatches is the number of replica disagreements detected.
	Mismatches int64
}

// NewReplicated returns a dual-modular-redundancy executor.
func NewReplicated(spec graph.Spec, cfg Config) *Replicated {
	return &Replicated{spec: spec, cfg: cfg, outs: make(map[graph.Key][]float64)}
}

// Run executes the graph with duplicated tasks.
func (e *Replicated) Run() (*Result, *ReplicatedStats, error) {
	start := time.Now()
	order, err := graph.TopoOrder(e.spec)
	if err != nil {
		return nil, nil, err
	}
	waves := buildWaves(e.spec, order)
	pool := sched.NewPoolWithPolicy(e.cfg.workers(), e.cfg.SchedPolicy)
	defer pool.Close()

	for _, wave := range waves {
		var wg sync.WaitGroup
		errs := make([]error, len(wave))
		for i, key := range wave {
			i, k := i, key
			wg.Add(1)
			pool.Submit(func(w *sched.Worker) {
				defer wg.Done()
				errs[i] = e.runReplicated(k)
			})
		}
		// The pool drains the wave; wg orders the error collection.
		pool.Wait()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		if e.cfg.Timeout > 0 && time.Since(start) > e.cfg.Timeout {
			return nil, nil, fmt.Errorf("%w after %v", ErrTimeout, e.cfg.Timeout)
		}
	}

	sinkOut, ok := e.outs[e.spec.Sink()]
	if !ok {
		return nil, nil, ErrHung
	}
	res := &Result{
		Sink:    sinkOut,
		Elapsed: time.Since(start),
		Tasks:   len(order),
		Metrics: e.met.snapshot(),
	}
	res.ReexecutedTasks = res.Metrics.Computes - 2*int64(len(order))
	return res, &ReplicatedStats{Mismatches: e.mismatches}, nil
}

// runReplicated executes one task twice and retries until the replicas
// agree. A planned fault corrupts one replica's output, modelling an SDC in
// one of the redundant executions.
func (e *Replicated) runReplicated(key graph.Key) error {
	e.met.replicatedTasks.Add(1)
	for attempt := 0; ; attempt++ {
		a, err := e.computeOnce(key)
		if err != nil {
			return err
		}
		b, err := e.computeOnce(key)
		if err != nil {
			return err
		}
		sdc := e.cfg.Plan.Fire(key, attempt, fault.SDC)
		if sdc {
			e.met.sdcInjected.Add(1)
		}
		if sdc ||
			e.cfg.Plan.Fire(key, attempt, fault.AfterCompute) ||
			e.cfg.Plan.Fire(key, attempt, fault.BeforeCompute) ||
			e.cfg.Plan.Fire(key, attempt, fault.AfterNotify) {
			e.met.injections.Add(1)
			if len(b) > 0 {
				b = append([]float64(nil), b...)
				b[0]++ // the SDC: one replica diverges
			}
		}
		if equalOutputs(a, b) {
			e.mu.Lock()
			e.outs[key] = a
			e.mu.Unlock()
			return nil
		}
		if sdc {
			e.met.sdcDetected.Add(1)
		}
		e.mu.Lock()
		e.mismatches++
		e.mu.Unlock()
		if attempt > 62 {
			return fmt.Errorf("core: replicas for task %d never agreed", key)
		}
	}
}

func (e *Replicated) computeOnce(key graph.Key) ([]float64, error) {
	ctx := &replCtx{e: e}
	e.met.computes.Add(1)
	if err := e.spec.Compute(ctx, key); err != nil {
		return nil, err
	}
	return ctx.out, nil
}

func equalOutputs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type replCtx struct {
	e   *Replicated
	out []float64
}

var _ graph.Context = (*replCtx)(nil)

func (c *replCtx) ReadPred(pred graph.Key) ([]float64, error) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	v, ok := c.e.outs[pred]
	if !ok {
		return nil, fault.Errorf(pred, 0)
	}
	return v, nil
}

func (c *replCtx) Write(data []float64) { c.out = data }
