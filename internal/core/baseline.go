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
	tasks *cmap.Map[*bTask]
	met   metrics
}

// bTask is the baseline task descriptor: join counter, notify array, status.
type bTask struct {
	key    graph.Key
	join   int32
	mu     sync.Mutex
	notify []graph.Key
	status int32
	preds  []graph.Key
}

// NewBaseline returns a non-fault-tolerant executor for the spec.
func NewBaseline(spec graph.Spec, cfg Config) *Baseline {
	if cfg.Plan.Len() > 0 {
		panic("core: baseline executor cannot run with a fault plan")
	}
	return &Baseline{spec: spec, cfg: cfg, store: cfg.newStore(), tasks: cmap.New[*bTask]()}
}

// Store exposes the block store.
func (e *Baseline) Store() *block.Store { return e.store }

// Run executes the task graph to completion.
func (e *Baseline) Run() (*Result, error) {
	start := time.Now()
	pool := sched.NewPoolWithPolicy(e.cfg.workers(), e.cfg.SchedPolicy)
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
		Store:   e.store.Stats(),
	}
	res.ReexecutedTasks = res.Metrics.Computes - int64(res.Tasks)
	ref := e.spec.Output(e.spec.Sink())
	data, err := e.store.Read(ref.Block, ref.Version)
	if err != nil {
		return res, fmt.Errorf("core: baseline sink output unreadable: %w", err)
	}
	res.Sink = data
	return res, nil
}

func (e *Baseline) insertIfAbsent(key graph.Key) (*bTask, bool) {
	return e.tasks.LoadOrStore(key, func() *bTask {
		preds := e.spec.Predecessors(key)
		t := &bTask{key: key, preds: preds}
		storeInt32(&t.join, int32(1+len(preds)))
		return t
	})
}

func (e *Baseline) initAndCompute(w *sched.Worker, t *bTask) {
	for _, pkey := range t.preds {
		pk := pkey
		w.Spawn(func(w *sched.Worker) { e.tryInitCompute(w, t, pk) })
	}
	e.notifyOnce(w, t)
}

func (e *Baseline) tryInitCompute(w *sched.Worker, t *bTask, pkey graph.Key) {
	b, inserted := e.insertIfAbsent(pkey)
	if inserted {
		w.Spawn(func(w *sched.Worker) { e.initAndCompute(w, b) })
	}
	finished := true
	b.mu.Lock()
	if loadStatus(&b.status) < Computed {
		b.notify = append(b.notify, t.key)
		e.met.registrations.Add(1)
		finished = false
	}
	b.mu.Unlock()
	if finished {
		e.notifyOnce(w, t)
	}
}

func (e *Baseline) notifyOnce(w *sched.Worker, t *bTask) {
	e.met.notifications.Add(1)
	if addInt32(&t.join, -1) == 0 {
		e.computeAndNotify(w, t)
	}
}

func (e *Baseline) computeAndNotify(w *sched.Worker, t *bTask) {
	if h := e.cfg.Hooks.OnCompute; h != nil {
		h(t.key, 0)
	}
	e.met.computes.Add(1)
	ctx := &baseCtx{e: e, t: t}
	if err := e.spec.Compute(ctx, t.key); err != nil {
		panic(fmt.Sprintf("core: baseline compute of task %d failed: %v", t.key, err))
	}
	ctx.release(true)
	if !ctx.wrote {
		panic(fmt.Sprintf("core: task %d computed without writing its output", t.key))
	}
	if h := e.cfg.Hooks.OnComputed; h != nil {
		h(t.key, 0)
	}
	storeStatus(&t.status, Computed)
	notified := 0
	for {
		t.mu.Lock()
		if notified == len(t.notify) {
			storeStatus(&t.status, Completed)
			t.mu.Unlock()
			return
		}
		batch := append([]graph.Key(nil), t.notify[notified:]...)
		t.mu.Unlock()
		notified += len(batch)
		for _, skey := range batch {
			sk := skey
			w.Spawn(func(w *sched.Worker) {
				s, ok := e.tasks.Load(sk)
				if !ok {
					panic(fmt.Sprintf("core: baseline notify of unknown task %d", sk))
				}
				e.notifyOnce(w, s)
			})
		}
	}
}

// baseCtx is the baseline compute context; with no faults possible, access
// errors indicate spec bugs and surface as panics.
type baseCtx struct {
	e *Baseline
	t *bTask
	heldBufs
	wrote bool
}

var _ graph.Context = (*baseCtx)(nil)

func (c *baseCtx) ReadPred(pred graph.Key) ([]float64, error) {
	ref := c.e.spec.Output(pred)
	data, err := c.e.store.Read(ref.Block, ref.Version)
	if err != nil {
		panic(fmt.Sprintf("core: baseline read of %v (task %d) failed: %v — spec violates use-before-redefine ordering", ref, pred, err))
	}
	if len(data) >= block.PoolMin {
		c.hold(pred, data, len(c.t.preds))
	}
	return data, nil
}

func (c *baseCtx) Write(data []float64) {
	ref := c.e.spec.Output(c.t.key)
	c.e.store.Write(ref.Block, ref.Version, c.t.key, data)
	c.wrote = true
	c.out = data
}
