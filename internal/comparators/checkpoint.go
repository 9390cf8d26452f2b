// Package comparators holds what the paper argues against — collective
// checkpoint/restart — built only to be measured beside internal/core's FT
// executor, whose Config and Result it speaks.
package comparators

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
)

// Checkpoint is a collective checkpoint/restart executor — the class of
// recovery scheme the paper positions itself against (§I–II: "Collective
// recovery approaches, such as those with checkpointing and restart, would
// synchronize all threads, possibly rolling them back to a prior execution.
// These approaches will require the overhead of synchronization even when
// there are no failures"). It exists as a quantitative comparator: the
// benchmarks contrast its fault-free synchronization+copy overhead and its
// rollback cost against the FT scheduler's selective recovery.
//
// Execution model: tasks run level-synchronously in topological waves on
// the same work-stealing pool. Every Interval completed waves the executor
// quiesces (a global barrier) and deep-copies all live task outputs — the
// checkpoint. A detected fault rolls every worker back to the last
// checkpoint: all work completed since is discarded and re-executed, healthy
// or not. Single-assignment storage only; the comparator does not model
// block reuse.
type Checkpoint struct {
	spec graph.Spec
	cfg  core.Config
	// Interval is the number of waves between checkpoints (>= 1).
	interval int

	mu      sync.Mutex
	outs    map[graph.Key][]float64
	poison  map[graph.Key]bool
	ckpts   int
	rolls   int
	copied  int64 // float64s copied into checkpoints
	rexecs  int64 // tasks re-executed due to rollback
	elapsed time.Duration

	computes, computeErrors, injections atomic.Int64
}

// CheckpointStats extends Result metrics with comparator-specific counters.
type CheckpointStats struct {
	Checkpoints     int
	Rollbacks       int
	CopiedFloat64s  int64
	RolledBackTasks int64
}

// NewCheckpoint returns a checkpoint/restart executor snapshotting every
// interval waves.
func NewCheckpoint(spec graph.Spec, cfg core.Config, interval int) *Checkpoint {
	if interval < 1 {
		panic("comparators: checkpoint interval must be >= 1")
	}
	return &Checkpoint{
		spec:     spec,
		cfg:      cfg,
		interval: interval,
		outs:     make(map[graph.Key][]float64),
		poison:   make(map[graph.Key]bool),
	}
}

// Run executes the graph to completion, rolling back to the last checkpoint
// whenever a fault is detected. It returns the result plus the comparator's
// stats.
func (e *Checkpoint) Run() (*core.Result, *CheckpointStats, error) {
	start := time.Now()
	order, err := graph.TopoOrder(e.spec)
	if err != nil {
		return nil, nil, err
	}
	waves := buildWaves(e.spec, order)

	pool := sched.NewPool(max(e.cfg.Workers, 1))
	defer pool.Close()

	// The initial (empty) checkpoint.
	snapOuts := map[graph.Key][]float64{}
	snapWave := 0
	e.ckpts++

	for w := 0; w < len(waves); {
		wave := waves[w]
		faulty := e.runWave(pool, wave)
		if faulty {
			// Collective recovery: synchronize (the pool is already
			// quiescent after the wave barrier), restore the
			// snapshot, and re-execute everything since.
			e.mu.Lock()
			restored := make(map[graph.Key][]float64, len(snapOuts))
			for k, v := range snapOuts {
				restored[k] = v
			}
			for i := snapWave; i <= w; i++ {
				e.rexecs += int64(len(waves[i]))
			}
			e.outs = restored
			e.poison = make(map[graph.Key]bool)
			e.rolls++
			e.mu.Unlock()
			w = snapWave
			continue
		}
		w++
		if w%e.interval == 0 || w == len(waves) {
			// Global barrier + deep copy: the fault-free overhead
			// the paper's approach avoids.
			e.mu.Lock()
			snapOuts = make(map[graph.Key][]float64, len(e.outs))
			for k, v := range e.outs {
				cp := make([]float64, len(v))
				copy(cp, v)
				snapOuts[k] = cp
				e.copied += int64(len(v))
			}
			snapWave = w
			e.ckpts++
			e.mu.Unlock()
		}
		if e.cfg.Timeout > 0 && time.Since(start) > e.cfg.Timeout {
			return nil, nil, fmt.Errorf("%w after %v", core.ErrTimeout, e.cfg.Timeout)
		}
	}
	e.elapsed = time.Since(start)

	sinkOut, ok := e.outs[e.spec.Sink()]
	if !ok {
		return nil, nil, core.ErrHung
	}
	res := &core.Result{
		Sink:    sinkOut,
		Elapsed: e.elapsed,
		Tasks:   len(order),
		Metrics: core.Metrics{
			Computes:        e.computes.Load(),
			ComputeErrors:   e.computeErrors.Load(),
			InjectionsFired: e.injections.Load(),
		},
	}
	res.ReexecutedTasks = res.Metrics.Computes - int64(res.Tasks)
	stats := &CheckpointStats{
		Checkpoints:     e.ckpts,
		Rollbacks:       e.rolls,
		CopiedFloat64s:  e.copied,
		RolledBackTasks: e.rexecs,
	}
	return res, stats, nil
}

// runWave executes one topological wave in parallel and reports whether a
// fault was detected in it (either injected into one of its tasks or
// observed while reading a poisoned input).
func (e *Checkpoint) runWave(pool *sched.Pool, wave []graph.Key) bool {
	var faultSeen sync.Once
	faulty := false
	for _, key := range wave {
		k := key
		pool.Submit(func(w *sched.Worker) {
			ctx := &ckptCtx{e: e, key: k}
			e.computes.Add(1)
			if err := e.spec.Compute(ctx, k); err != nil {
				e.computeErrors.Add(1)
				faultSeen.Do(func() { faulty = true })
				return
			}
			life := 0 // the comparator has no incarnations
			if e.plan().Fire(k, life, fault.AfterCompute) ||
				e.plan().Fire(k, life, fault.BeforeCompute) ||
				e.plan().Fire(k, life, fault.AfterNotify) {
				// Any planned fault poisons the output; the
				// collective scheme cannot localize it.
				e.injections.Add(1)
				e.mu.Lock()
				e.poison[k] = true
				e.mu.Unlock()
			}
		})
	}
	pool.Wait() // the wave barrier
	// Poisoned outputs produced in this wave are detected at the barrier
	// (the comparator checks integrity before checkpointing, as real
	// checkpoint systems validate before committing a snapshot).
	e.mu.Lock()
	if len(e.poison) > 0 {
		faulty = true
	}
	e.mu.Unlock()
	return faulty
}

// plan returns the fault plan (possibly nil; Fire on nil never fires).
func (e *Checkpoint) plan() *fault.Plan { return e.cfg.Plan }

type ckptCtx struct {
	e   *Checkpoint
	key graph.Key
}

var _ graph.Context = (*ckptCtx)(nil)

func (c *ckptCtx) ReadPred(pred graph.Key) ([]float64, error) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	if c.e.poison[pred] {
		return nil, fault.Errorf(pred, 0)
	}
	v, ok := c.e.outs[pred]
	if !ok {
		return nil, fault.Errorf(pred, 0)
	}
	return v, nil
}

func (c *ckptCtx) Write(data []float64) {
	c.e.mu.Lock()
	c.e.outs[c.key] = data
	c.e.mu.Unlock()
}

// buildWaves groups a topological order into level-synchronous waves: a
// task's wave is 1 + max(waves of its predecessors).
func buildWaves(s graph.Spec, order []graph.Key) [][]graph.Key {
	level := make(map[graph.Key]int, len(order))
	maxLevel := 0
	for _, k := range order {
		l := 0
		for _, p := range s.Predecessors(k) {
			if level[p]+1 > l {
				l = level[p] + 1
			}
		}
		level[k] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	waves := make([][]graph.Key, maxLevel+1)
	for _, k := range order {
		waves[level[k]] = append(waves[level[k]], k)
	}
	return waves
}
