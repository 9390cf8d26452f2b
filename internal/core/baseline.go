package core

import (
	"fmt"
	"sync"
	"time"

	"ftdag/internal/block"
	"ftdag/internal/cmap"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
)

// Baseline is the original (non-fault-tolerant) NABBIT scheduler — the
// non-shaded portions of Figure 2. It has no life numbers, bit vectors,
// recovery table, or poisoning checks, and therefore pays none of their
// costs; Figure 4 compares it against the FT executor in the absence of
// faults. Running it with a fault plan is a programming error.
type Baseline struct {
	spec  graph.Spec
	cfg   Config
	store *block.Store
	tasks cmap.Table[bTask]
	met   metrics
}

// bTask is the baseline task descriptor: the resolved facts and notify array
// every descriptor has (node), join counter, status.
type bTask struct {
	node[bTask]
	e      *Baseline
	join   int32
	status int32
}

// The baseline's spawned jobs, as for the FT executor (task.go): the
// descriptor under three method sets.
type (
	bExploreJob  bTask // initAndCompute of the task
	bTraverseJob bTask // tryInitCompute of the task's arg-th predecessor
	bDrainJob    bTask // notifyOnce over the batch of the notify array arg names
)

func (j *bExploreJob) Run(w *sched.Worker, _ int) {
	t := (*bTask)(j)
	t.e.initAndCompute(w, t)
}

func (j *bTraverseJob) Run(w *sched.Worker, i int) {
	t := (*bTask)(j)
	t.e.tryInitCompute(w, t, i)
}

func (j *bDrainJob) Run(w *sched.Worker, arg int) {
	t := (*bTask)(j)
	for _, s := range t.batch(arg) {
		t.e.notifyOnce(w, s)
	}
}

// NewBaseline returns a non-fault-tolerant executor for the spec.
func NewBaseline(spec graph.Spec, cfg Config) *Baseline {
	if cfg.Plan.Len() > 0 {
		panic("core: baseline executor cannot run with a fault plan")
	}
	return &Baseline{spec: spec, cfg: cfg, store: cfg.newStore(), met: newMetrics(cfg.workers())}
}

// Store exposes the block store.
func (e *Baseline) Store() *block.Store { return e.store }

// Run executes the task graph to completion.
func (e *Baseline) Run() (*Result, error) {
	start := time.Now()
	pool := sched.NewPool(e.cfg.workers())
	sink, _ := e.insertIfAbsent(e.spec.Sink())
	pool.Submit(func(w *sched.Worker) { e.initAndCompute(w, sink) })
	if e.cfg.Timeout > 0 {
		if !pool.WaitTimeout(e.cfg.Timeout) {
			return nil, fmt.Errorf("%w after %v", ErrTimeout, e.cfg.Timeout)
		}
	}
	stats := pool.Close()
	elapsed := time.Since(start)
	st, ok := e.tasks.Load(e.spec.Sink())
	if !ok || loadStatus(&st.status) != Completed {
		return nil, ErrHung
	}
	res := &Result{
		Elapsed: elapsed,
		Tasks:   e.tasks.Len(),
		Metrics: e.met.snapshot(),
		Sched:   stats,
		Store:   e.met.storeStats(e.store),
	}
	res.ReexecutedTasks = res.Metrics.Computes - int64(res.Tasks)
	data, err := st.slot.Read(st.out.Version, nil)
	if err != nil {
		return res, fmt.Errorf("core: baseline sink output unreadable: %w", err)
	}
	res.Sink = data
	return res, nil
}

func (e *Baseline) insertIfAbsent(key graph.Key) (*bTask, bool) {
	return e.tasks.LoadOrStore(key, func() *bTask {
		t := &bTask{e: e}
		t.resolve(e.spec, e.store, key)
		storeInt32(&t.join, int32(1+len(t.preds)))
		return t
	})
}

// initAndCompute spawns the traversal of every predecessor but the last and
// runs that one by call (see FT.initAndCompute).
func (e *Baseline) initAndCompute(w *sched.Worker, t *bTask) {
	if last := len(t.preds) - 1; last >= 0 {
		for i := 0; i < last; i++ {
			w.SpawnRunner((*bTraverseJob)(t), i)
		}
		e.tryInitCompute(w, t, last)
	}
	e.notifyOnce(w, t)
}

func (e *Baseline) tryInitCompute(w *sched.Worker, t *bTask, i int) {
	b, inserted := e.insertIfAbsent(t.preds[i])
	if inserted {
		w.SpawnRunner((*bExploreJob)(b), 0)
	}
	finished := true
	b.mu.Lock()
	if loadStatus(&b.status) < Computed {
		b.notify = append(b.notify, t)
		e.met.at(w).registrations.Add(1)
		finished = false
	}
	b.mu.Unlock()
	if finished {
		e.notifyOnce(w, t)
	}
}

func (e *Baseline) notifyOnce(w *sched.Worker, t *bTask) {
	e.met.at(w).notifications.Add(1)
	if addInt32(&t.join, -1) == 0 {
		e.computeAndNotify(w, t)
	}
}

func (e *Baseline) computeAndNotify(w *sched.Worker, t *bTask) {
	if h := e.cfg.Hooks.OnCompute; h != nil {
		h(t.key, 0)
	}
	e.met.at(w).computes.Add(1)
	ctx := baseCtxPool.Get().(*baseCtx)
	ctx.e, ctx.t, ctx.w = e, t, w
	if err := e.spec.Compute(ctx, t.key); err != nil {
		panic(fmt.Sprintf("core: baseline compute of task %d failed: %v", t.key, err))
	}
	wrote := ctx.wrote
	ctx.release(true)
	*ctx = baseCtx{heldBufs: ctx.heldBufs}
	baseCtxPool.Put(ctx)
	if !wrote {
		panic(fmt.Sprintf("core: task %d computed without writing its output", t.key))
	}
	if h := e.cfg.Hooks.OnComputed; h != nil {
		h(t.key, 0)
	}
	storeStatus(&t.status, Computed)
	// The drain is the FT executor's (finishAndNotify): batches of the
	// notify array, each spawned as the task plus the batch's position.
	notified := 0
	for {
		t.mu.Lock()
		total := len(t.notify)
		if notified == total {
			storeStatus(&t.status, Completed)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		for lo := notified; lo < total; lo += notifyBatchSize {
			w.SpawnRunner((*bDrainJob)(t), batchArg(lo, total))
		}
		notified = total
	}
}

// baseCtx is the baseline compute context; with no faults possible, access
// errors indicate spec bugs and surface as panics.
type baseCtx struct {
	e *Baseline
	t *bTask
	w *sched.Worker // as ftCtx.w
	heldBufs
	wrote bool
}

var _ graph.Context = (*baseCtx)(nil)

// baseCtxPool recycles contexts as ftCtxPool does.
var baseCtxPool = sync.Pool{New: func() any { return new(baseCtx) }}

func (c *baseCtx) ReadPred(pred graph.Key) ([]float64, error) {
	var slot *block.Slot
	var version int
	if p, ok := c.e.tasks.Load(pred); ok {
		slot, version = p.slot, p.out.Version
	} else {
		slot, version = specOutput(c.e.spec, c.e.store, pred)
	}
	data, err := c.read(c.e.met.at(c.w), pred, slot, version, false)
	if err != nil {
		panic(fmt.Sprintf("core: baseline read of task %d's output failed: %v — spec violates use-before-redefine ordering", pred, err))
	}
	return data, nil
}

func (c *baseCtx) Write(data []float64) {
	_, _, evicted := c.write(c.t.slot, c.t.out.Version, c.t.key, data)
	c.e.met.at(c.w).countWrite(evicted)
	c.wrote = true
}
