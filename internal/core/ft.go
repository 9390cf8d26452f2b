package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ftdag/internal/block"
	"ftdag/internal/cmap"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/replica"
	"ftdag/internal/sched"
	"ftdag/internal/trace"
)

// Config configures an executor run.
type Config struct {
	// Workers is the number of scheduler workers P (default 1).
	Workers int
	// Retention is the block store's version retention K: 0 retains all
	// versions (single-assignment), 1 is the memory-reuse configuration,
	// 2 is the two-version configuration the paper uses for
	// Floyd-Warshall.
	Retention int
	// Plan is the fault-injection plan (nil: no faults).
	Plan *fault.Plan
	// VerifyChecksums additionally validates block checksums on every
	// read (block.WithVerification).
	VerifyChecksums bool
	// Timeout bounds the run; 0 means no bound. A correct FT execution
	// always drains (Lemma 3), so tests set this as a hang watchdog.
	Timeout time.Duration
	// Cancel, when non-nil, aborts the run cooperatively (between tasks)
	// as soon as it is closed; Run then returns ErrCancelled.
	Cancel <-chan struct{}
	// Spans, when non-nil, is the process-wide distributed-trace recorder:
	// the executor emits compute, fault-injection, recovery, and
	// replica-digest-join spans into it under SpanCtx's trace, so one
	// cluster trace links what every process did to a job. Nil disables
	// span emission at a cost of one pointer check per site.
	Spans *trace.Spans
	// SpanCtx positions this run in a distributed trace: executor spans
	// parent to SpanCtx.Span (typically the service's job-run span).
	SpanCtx trace.SpanContext
	// SpanJob is the service-assigned job ID stamped on executor spans.
	SpanJob int64
	// TimeLatency makes the run time each FT compute and recovery into its
	// per-worker shards of the two latency histograms (LiveTally's Latency,
	// which Observe's families read). Off, it costs one branch per site.
	TimeLatency bool
	// Replicate selects the tasks to execute twice on distinct workers
	// with digest comparison at the join (internal/replica). Nil (or an
	// empty set) disables replication; a full set is dual modular
	// redundancy. On digest disagreement the task is invalidated and
	// re-executed through the ordinary FT-NABBIT recovery machinery.
	Replicate *replica.Set
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c Config) newStore() *block.Store {
	var opts []block.Option
	if c.VerifyChecksums {
		opts = append(opts, block.WithVerification())
	}
	return block.NewStore(c.Retention, opts...)
}

// ErrHung reports that the scheduler drained without completing the sink —
// this would contradict Lemma 3 and indicates an executor bug (or an
// injected fault on the sink's after-notify phase, which by design has no
// observer).
var ErrHung = errors.New("core: execution quiesced without completing the sink")

// ErrTimeout reports that the configured watchdog expired.
var ErrTimeout = errors.New("core: execution timed out")

// ErrCancelled reports that Config.Cancel fired before the run completed.
var ErrCancelled = errors.New("core: execution cancelled")

// FT is the fault-tolerant dynamic task graph executor of Figures 2 and 3.
// One FT value executes one graph once; construct a new one per run.
type FT = exec[ftState]

// Baseline is the original (non-fault-tolerant) NABBIT scheduler — the
// non-shaded portions of Figure 2, which is what the executor is when its
// descriptors hold no shaded state. It has no life numbers, bit vectors,
// recovery table, poisoning checks, fault plan, replicas or spans, and
// therefore pays none of their costs; Figure 4 compares it against the FT
// executor in the absence of faults.
type Baseline = exec[nabbitState]

// exec is the executor; S, the state its descriptors hold, makes it FT-NABBIT
// or NABBIT. The lines only FT-NABBIT runs are those behind task.shaded,
// where the NABBIT stencil has nothing.
type exec[S state] struct {
	spec  graph.Spec
	cfg   Config
	store *block.Store
	plan  *fault.Plan
	tasks cmap.Table[task[S]]      // the paper's concurrent hash map of descriptors
	rec   cmap.Table[atomic.Int64] // the recovery table R: key → last life recovered
	met   metrics
	group *sched.Group // this run's slice of the pool (set by RunOn)
	hooks hooks        // test instrumentation; set after construction
}

// NewFT returns a fault-tolerant executor for the spec.
func NewFT(spec graph.Spec, cfg Config) *FT {
	return &FT{
		spec:  spec,
		cfg:   cfg,
		store: cfg.newStore(),
		plan:  cfg.Plan,
		met:   newMetrics(cfg.workers()),
	}
}

// NewBaseline returns a non-fault-tolerant executor for the spec. Without
// recovery nothing could act on an injected fault or a replica's digest
// mismatch, so a fault plan or a replica set is a programming error.
func NewBaseline(spec graph.Spec, cfg Config) *Baseline {
	if cfg.Plan.Len() > 0 {
		panic("core: baseline executor cannot run with a fault plan")
	}
	if cfg.Replicate.Len() > 0 {
		panic("core: baseline executor cannot replicate tasks")
	}
	return &Baseline{spec: spec, cfg: cfg, store: cfg.newStore(), met: newMetrics(cfg.workers())}
}

// LiveMetrics snapshots the executor's counters mid-run. Safe to call
// concurrently with the execution (the counters are atomics, summed over the
// workers' blocks); serves the live-introspection endpoints.
func (e *exec[S]) LiveMetrics() Metrics { return e.met.snapshot() }

// LiveTally is every count of the run as it stands — LiveMetrics, Result.Store
// and the latency histograms — for a registry's families (Observe). Safe to
// call concurrently with the execution; no count it reads ever goes down.
func (e *exec[S]) LiveTally() Tally {
	return Tally{Metrics: e.met.snapshot(), Store: e.met.storeStats(e.store), Latency: e.met.latency()}
}

// TasksDiscovered returns the number of task descriptors inserted so far —
// a live progress indicator that converges on the graph's task count.
func (e *exec[S]) TasksDiscovered() int { return e.tasks.Len() }

// Run executes the task graph to completion on a private pool of
// cfg.Workers workers and returns the result.
func (e *exec[S]) Run() (*Result, error) {
	pool := sched.NewPool(e.cfg.workers())
	res, err := e.RunOn(pool)
	if err != nil && errors.Is(err, ErrTimeout) {
		// Workers may be stuck inside a slow user compute, and Close waits
		// for them: close in the background, so the pool's workers exit once
		// the compute returns. Only a compute that never returns pins them.
		go pool.Close()
		return res, err
	}
	stats := pool.Close()
	if res != nil {
		res.Sched = stats
	}
	return res, err
}

// RunOn executes the task graph on a caller-owned pool, which may be shared
// with other concurrent executions. The run schedules all of its work
// through a private sched.Group, so Config.Cancel and Config.Timeout abort
// only this execution — the pool stays healthy and reusable. The caller
// keeps responsibility for closing the pool; Result.Sched is left zero here
// because a shared pool's counters are not attributable to one run (Run
// fills it for the single-run case). However the run ends, its store and its
// workers' caches hand their buffers to the shared free list on the way out
// (block.Store.Release, block.Cache.Release), once the sink has been copied
// out; a compute that a cancel or a timeout leaves running then reads
// ErrNotRetained, and takes and frees its buffers through the shared list.
func (e *exec[S]) RunOn(pool *sched.Pool) (*Result, error) {
	defer e.met.release()
	defer e.store.Release()
	start := time.Now()
	g := pool.NewGroup()
	e.group = g
	if e.cfg.Spans != nil && e.cfg.SpanCtx.Valid() {
		// Steals of this run's tasks appear in its distributed trace.
		g.SetSpan(e.cfg.SpanCtx, e.cfg.SpanJob)
	}
	sink, _ := e.insertIfAbsent(e.spec.Sink())
	g.Submit(func(w *sched.Worker) { e.initAndCompute(w, sink) })
	if e.cfg.Cancel != nil {
		cancelDone := make(chan struct{})
		defer close(cancelDone)
		go func() {
			select {
			case <-e.cfg.Cancel:
				g.Abort()
			case <-cancelDone:
			}
		}()
	}
	if e.cfg.Timeout > 0 {
		if !g.WaitTimeout(e.cfg.Timeout) {
			g.Abort() // stop scheduling further traversal work
			return nil, fmt.Errorf("%w after %v\n%s", ErrTimeout, e.cfg.Timeout, e.DumpStuck(16))
		}
	} else {
		g.Wait()
	}
	if g.Aborted() {
		return nil, ErrCancelled
	}
	elapsed := time.Since(start)

	st, ok := e.tasks.Load(e.spec.Sink())
	if !ok || st.Status() != Completed {
		return nil, ErrHung
	}
	res := &Result{
		Elapsed: elapsed,
		Tasks:   e.tasks.Len(),
		Metrics: e.met.snapshot(),
		Store:   e.met.storeStats(e.store),
	}
	res.ReexecutedTasks = res.Metrics.Computes - int64(res.Tasks)
	data, err := st.slot.Read(st.out.Version, nil, nil)
	if err != nil {
		// Only possible when a fault was injected on the sink's
		// after-notify phase: nothing consumes the sink, so nothing
		// recovers it (paper §IV: "a failed task whose successors
		// already have been computed is not recovered").
		return res, fmt.Errorf("core: sink output unreadable: %w", err)
	}
	res.Sink = data
	return res, nil
}

// aborted reports whether this run was cancelled or timed out: RunOn has
// returned, or is about to, while computes may still be running.
func (e *exec[S]) aborted() bool { return e.group != nil && e.group.Aborted() }

// spawn schedules r.Run(_, arg) as part of this run's group, so that per-run
// abort and quiescence see exactly this run's work even on a shared pool.
// Outside a RunOn execution (unit tests drive the routines directly on a bare
// worker) there is no group, and the nil group's spawn is the worker's own.
func (e *exec[S]) spawn(w *sched.Worker, r sched.Runner, arg int) { e.group.SpawnRunner(w, r, arg) }

// newTask builds a fresh incarnation descriptor.
func (e *exec[S]) newTask(key graph.Key, life int) *task[S] {
	t := &task[S]{e: e}
	t.resolve(e.spec, e.store, key, life)
	return t
}

// insertIfAbsent is INSERTTASKIFABSENT + GETTASK.
func (e *exec[S]) insertIfAbsent(key graph.Key) (*task[S], bool) {
	return e.tasks.LoadOrStore(key, func() *task[S] { return e.newTask(key, 0) })
}

// initAndCompute is INITANDCOMPUTE: traverse the immediate predecessors,
// then issue the self-notification that makes the task eligible once every
// predecessor has notified. All sub-traversals but the last are spawned, so
// idle workers can steal them; the last runs by call, as the continuation of
// a Cilk procedure runs after its last spawn — a spawn the same worker would
// pop straight back buys nothing.
func (e *exec[S]) initAndCompute(w *sched.Worker, t *task[S]) {
	if last := len(t.preds) - 1; last >= 0 {
		for i := 0; i < last; i++ {
			e.spawn(w, (*traverseJob[S])(t), i)
		}
		e.tryInitCompute(w, t, last)
	}
	e.notifyOnce(w, t, len(t.preds))
}

// tryInitCompute is TRYINITCOMPUTE for t's i-th predecessor: ensure the
// predecessor exists (exploring it if this thread inserted it), then either
// register t in the predecessor's notify array or, if the predecessor is
// already computed, notify t directly. Any detected error on the predecessor
// triggers its recovery.
func (e *exec[S]) tryInitCompute(w *sched.Worker, t *task[S], i int) {
	b, inserted := e.insertIfAbsent(t.preds[i])
	if inserted {
		e.spawn(w, (*exploreJob[S])(b), 0)
	}
	b.mu.Lock()
	if err := b.check(); err != nil { // catch
		b.mu.Unlock()
		e.recoverFromError(w, err, b.key, b.Life())
		return
	}
	finished := b.Status() >= Computed
	if !finished {
		b.notify = append(b.notify, t)
		e.met.at(w).registrations.Add(1)
	}
	b.mu.Unlock()
	if finished {
		e.notifyOnce(w, t, i)
	}
}

// notifyOnce is NOTIFYONCE: clear the bit of the notifying predecessor — ind
// is its predIndex, len(t.preds) for the self-notification. A notification
// that wins its bit counts; the one whose clear empties the vector is the
// join's decrement to zero, and its thread executes the task (task.Join). For
// a task with at most 63 predecessors that is one compare-and-swap on t, as
// NABBIT's decrement is one add. Errors accessing t trigger t's recovery.
func (e *exec[S]) notifyOnce(w *sched.Worker, t *task[S], ind int) {
	if err := t.check(); err != nil { // catch
		e.recoverFromError(w, err, t.key, t.Life())
		return
	}
	won, last := t.Join(ind)
	if !won {
		return
	}
	e.met.at(w).notifications.Add(1)
	if last {
		e.computeAndNotify(w, t)
	}
}

// notifySuccessor is NOTIFYSUCCESSOR: notify the current incarnation of a
// successor registered in from's notify array. The array holds the
// descriptor that registered; unless a recovery has superseded it, that is
// the current incarnation and the task table is not consulted. The flag is
// read where the table used to be read, so a replacement that lands later is
// the race it always was: the notification goes to the old incarnation, and
// the recovery scan has re-registered a successor whose bit was still set.
func (e *exec[S]) notifySuccessor(w *sched.Worker, from, s *task[S]) {
	if s.has(superseded) {
		s, _ = e.tasks.Load(s.key)
	}
	e.notifyOnce(w, s, s.predIndex(from.key))
}

// drain runs NOTIFYSUCCESSOR over the batch of t's notify array that arg
// names. NABBIT notifies the registered descriptors themselves: it has no
// incarnations, and its join is a counter.
func (e *exec[S]) drain(w *sched.Worker, t *task[S], arg int) {
	for _, s := range t.batch(arg) {
		if t.shaded() {
			e.notifySuccessor(w, t, s)
		} else {
			e.notifyOnce(w, s, 0)
		}
	}
}

// computeAndNotify is COMPUTEANDNOTIFY: run the user compute, mark the task
// Computed, then notify every successor enqueued in the notify array,
// re-checking under the lock until the array stops growing, at which point
// the task is Completed. Errors in the task itself are recovered; errors in
// a predecessor's data reset this task for re-processing (Guarantee 5).
// Tasks selected by Config.Replicate take the replicated path instead
// (replica_exec.go), which defers the notify drain until both replicas'
// digests agree.
func (e *exec[S]) computeAndNotify(w *sched.Worker, t *task[S]) {
	if t.shaded() && e.cfg.Replicate.Contains(t.key) {
		e.computeReplicated(w, t)
		return
	}
	if err := e.compute(w, t); err != nil { // catch
		e.catchComputeError(w, t, err)
	}
}

// compute is the try block of COMPUTEANDNOTIFY: what it returns, the caller
// catches.
func (e *exec[S]) compute(w *sched.Worker, t *task[S]) error {
	if err := t.check(); err != nil {
		return err
	}
	if t.shaded() && e.plan.Fire(t.key, t.Life(), fault.BeforeCompute) {
		e.inject(w, t, false)
		return fault.Errorf(t.key, t.Life())
	}
	if err := e.runCompute(w, t, nil); err != nil {
		return err
	}
	if t.shaded() && e.plan.Fire(t.key, t.Life(), fault.SDC) {
		// Unreplicated task: the corruption is unobservable by
		// construction. Count the miss and continue as if nothing
		// happened — that is the point of the SDC model.
		e.injectSDC(w, t)
		e.met.at(w).sdcMissed.Add(1)
	}
	e.finishAndNotify(w, t)
	return nil
}

// runCompute executes the user compute of t's current incarnation with its
// hooks, metrics and span, fires a planned after-compute fault, and returns
// the compute's buffers to the block free list when it ends. Shared by the
// plain and replicated (primary) paths; the replicated path passes its join,
// which receives the digest of the written output — the checksum the store
// just computed for it — and the snapshot of the inputs the compute read. The
// compute span covers the injection, and its arg is 1 when the compute failed
// either way. The clock is read once before the compute and once after it,
// and the histogram and the span share the pair. NABBIT's computes are seen
// by the hooks and counted, but not timed or spanned.
func (e *exec[S]) runCompute(w *sched.Worker, t *task[S], rj *replicaJoin) error {
	if h := e.hooks.onCompute; h != nil {
		h(t.key, t.Life())
	}
	blk := e.met.block(w)
	blk.computes.Add(1)
	var timed bool
	var sp *trace.Spans
	pool := &nabbitCtxPool
	if t.shaded() {
		timed, sp, pool = e.cfg.TimeLatency, e.cfg.Spans, &ftCtxPool
	}
	var start time.Time
	if timed || sp != nil {
		start = time.Now()
	}
	ctx := pool.Get().(*taskCtx[S])
	ctx.e, ctx.t, ctx.w, ctx.capture = e, t, w, rj != nil
	ctx.cache = e.met.cache(w)
	err := e.spec.Compute(ctx, t.key)
	wrote, sum, reads := ctx.wrote, ctx.sum, ctx.reads
	ctx.release(rj == nil)
	*ctx = taskCtx[S]{heldBufs: ctx.heldBufs}
	pool.Put(ctx)
	var took time.Duration
	if timed || sp != nil {
		took = time.Since(start)
	}
	if timed {
		blk.computeLat.Observe(int64(took))
	}
	switch {
	case err != nil:
		e.met.at(w).computeErrors.Add(1)
	case !wrote:
		panic(fmt.Sprintf("core: task %d computed without writing its output", t.key))
	default:
		if rj != nil {
			rj.inputs = reads
			rj.primaryDigest = sum
		}
		if t.shaded() && e.plan.Fire(t.key, t.Life(), fault.AfterCompute) {
			e.inject(w, t, true)
			err = fault.Errorf(t.key, t.Life())
		}
	}
	if sp != nil {
		e.emitSpan("compute", start, took, t.key, t.Life(), boolArg(err != nil))
	}
	return err
}

// emitSpan records one executor span (compute, inject, recover,
// replica-join) under the run's distributed-trace context. Callers guard
// with a Config.Spans nil check so disabled tracing costs one branch.
func (e *exec[S]) emitSpan(name string, start time.Time, dur time.Duration, key graph.Key, life int, arg int64) {
	e.cfg.Spans.Emit(trace.Span{
		Trace:  e.cfg.SpanCtx.Trace,
		Parent: e.cfg.SpanCtx.Span,
		Name:   name,
		Start:  start.UnixMicro(),
		Dur:    dur.Microseconds(),
		Job:    e.cfg.SpanJob,
		Task:   int64(key),
		Life:   life,
		Arg:    arg,
	})
}

// finishAndNotify is COMPUTEANDNOTIFY after a compute that succeeded: it
// marks t Computed and drains its notify array (one drain job per
// notifyBatchSize entries, re-checking under the lock until the array stops
// growing), then fires any planned after-notify fault. A drain job is t
// itself plus the batch's position, so the drain copies no entries and
// allocates nothing.
func (e *exec[S]) finishAndNotify(w *sched.Worker, t *task[S]) {
	if h := e.hooks.onComputed; h != nil {
		h(t.key, t.Life())
	}
	t.setStatus(Computed)
	notified := 0
	for {
		t.mu.Lock()
		total := len(t.notify)
		if notified == total {
			t.setStatus(Completed)
			t.mu.Unlock()
			break
		}
		t.mu.Unlock()
		for lo := notified; lo < total; lo += notifyBatchSize {
			e.spawn(w, (*drainJob[S])(t), batchArg(lo, total))
		}
		notified = total
	}
	if t.shaded() && e.plan.Fire(t.key, t.Life(), fault.AfterNotify) {
		// Silent corruption: no exception here; the fault is
		// observed (if at all) by later readers of the task's
		// descriptor or output (§VI-B "after notify").
		e.inject(w, t, true)
	}
}

// catchComputeError is the catch block of COMPUTEANDNOTIFY, shared by the
// plain and replicated compute paths: a fault in the task itself is
// recovered; a predecessor's fault recovers the predecessor and resets this
// task (Guarantee 5). NABBIT has no faults to catch: any error is a spec bug,
// unless the run was aborted under the compute and its store released
// (taskCtx.failed).
func (e *exec[S]) catchComputeError(w *sched.Worker, t *task[S], err error) {
	var fe *fault.Error
	if !t.shaded() && e.aborted() {
		return
	}
	if !t.shaded() || !errors.As(err, &fe) {
		panic(fmt.Sprintf("core: task %d compute returned non-fault error: %v", t.key, err))
	}
	if fe.Key == t.key {
		e.recoverTaskOnce(w, fe.Key, fe.Life)
	} else {
		// A predecessor's fault surfaced during our compute
		// (Guarantee 5). The read error names the failed
		// producer exactly, so recover it directly, then
		// process this task anew; its re-traversal registers
		// with the recovered incarnation and re-observes any
		// other failed predecessors.
		//
		// This deviates from the paper's pseudocode, which
		// instead detects overwritten predecessors during the
		// reset re-traversal (the B.overwritten check in
		// TRYINITCOMPUTE). That check is only sound when every
		// predecessor's data is consumed by the successor; the
		// blocked FW and SW graphs carry ordering-only
		// anti-dependence edges whose predecessors are
		// *legitimately* overwritten, and recovering those on
		// traversal livelocks. Read-time attribution recovers
		// exactly the producers whose data is needed.
		e.recoverTaskOnce(w, fe.Key, fe.Life)
		e.resetNode(w, t)
	}
}

// inject poisons the task descriptor (and, when withBlock is set, the output
// block version the incarnation has written). Once the descriptor is
// poisoned another thread may recover the incarnation, and its recovery may
// rewrite the version before Corrupt runs: Corrupt names the incarnation, so
// the recovery's clean version is left alone.
func (e *exec[S]) inject(w *sched.Worker, t *task[S], withBlock bool) {
	if e.cfg.Spans != nil {
		e.emitSpan("inject", time.Now(), 0, t.key, t.Life(), boolArg(withBlock))
	}
	t.mark(poisoned)
	if withBlock {
		if injectWindow != nil {
			injectWindow(w, t.key, t.Life())
		}
		e.store.Corrupt(t.out.Block, t.out.Version, t.Life())
	}
	e.met.at(w).injections.Add(1)
}

// injectWindow, set only by tests, runs in inject between poisoning the
// descriptor and corrupting the output: it holds open the window in which
// another thread recovers the poisoned incarnation.
var injectWindow func(w *sched.Worker, key graph.Key, life int)

// recoverFromError routes a caught *fault.Error to recovery of the task it
// names. Non-fault errors indicate executor bugs and panic.
func (e *exec[S]) recoverFromError(w *sched.Worker, err error, defaultKey graph.Key, defaultLife int) {
	var fe *fault.Error
	if errors.As(err, &fe) {
		e.recoverTaskOnce(w, fe.Key, fe.Life)
		return
	}
	panic(fmt.Sprintf("core: unexpected non-fault error on task %d: %v", defaultKey, err))
}

// recoverTaskOnce is RECOVERTASKONCE (Guarantee 1): only the thread that
// wins the recovery-table race performs the recovery of this incarnation.
func (e *exec[S]) recoverTaskOnce(w *sched.Worker, key graph.Key, life int) {
	if !e.isRecovering(key, life) {
		e.recoverTask(w, key)
	}
}

// isRecovering is ISRECOVERING: atomically claim responsibility for
// recovering incarnation life of key. The table maps each key to the most
// recent life whose recovery has been initiated; claiming succeeds by
// inserting the first record or by advancing life-1 → life.
func (e *exec[S]) isRecovering(key graph.Key, life int) bool {
	rec, inserted := e.rec.LoadOrStore(key, func() *atomic.Int64 {
		r := new(atomic.Int64)
		r.Store(int64(life))
		return r
	})
	if inserted {
		return false
	}
	return !rec.CompareAndSwap(int64(life-1), int64(life))
}

// recoverTask is RECOVERTASK (Guarantees 2, 4, 6): replace the descriptor
// with a fresh incarnation, reconstruct its notify array by scanning
// successors that are still waiting (Visited with their bit for this task
// still set), and re-process the task as if newly created. Failures during
// recovery restart the loop with yet another incarnation, unless some other
// thread has already claimed that newer recovery.
func (e *exec[S]) recoverTask(w *sched.Worker, key graph.Key) {
	for {
		t := e.replaceTask(w, key)
		if h := e.hooks.onRecover; h != nil {
			h(key, t.Life())
		}
		timed, sp := e.cfg.TimeLatency, e.cfg.Spans
		var recStart time.Time
		if timed || sp != nil {
			recStart = time.Now()
		}
		err := func() error { // try
			for _, skey := range e.spec.Successors(key) {
				s, ok := e.tasks.Load(skey)
				if !ok {
					continue // not yet discovered: nothing can be waiting on t
				}
				if err := e.reinitNotifyEntry(w, t, s); err != nil {
					return err
				}
			}
			e.spawn(w, (*exploreJob[S])(t), 0)
			return nil
		}()
		var took time.Duration
		if timed || sp != nil {
			took = time.Since(recStart)
		}
		if timed {
			e.met.block(w).recoveryLat.Observe(int64(took))
		}
		if sp != nil {
			e.emitSpan("recover", recStart, took, key, t.Life(), 0)
		}
		if err == nil {
			return
		}
		var fe *fault.Error
		if !errors.As(err, &fe) {
			panic(fmt.Sprintf("core: unexpected non-fault error recovering task %d: %v", key, err))
		}
		if e.isRecovering(key, t.Life()) {
			return // another thread owns the newer recovery
		}
	}
}

// replaceTask is REPLACETASK: atomically install a fresh incarnation with
// life+1, and mark the old one superseded for the holders of its pointer.
func (e *exec[S]) replaceTask(w *sched.Worker, key graph.Key) *task[S] {
	var nt *task[S]
	e.tasks.Update(key, func(old *task[S], ok bool) *task[S] {
		life := 0
		if ok {
			life = old.Life() + 1
			old.mark(superseded)
		}
		nt = e.newTask(key, life)
		return nt
	})
	e.met.at(w).recoveries.Add(1)
	return nt
}

// reinitNotifyEntry is REINITNOTIFYENTRY (Guarantee 4): a successor that is
// still Visited and whose notification bit for t is still set must have been
// waiting (or would have registered) on the failed incarnation; enqueue it
// in the new incarnation's notify array. Errors in the successor trigger its
// recovery; errors in t propagate to recoverTask's retry loop.
func (e *exec[S]) reinitNotifyEntry(w *sched.Worker, t *task[S], s *task[S]) error {
	err := func() error { // try
		if err := s.check(); err != nil {
			return err
		}
		if s.Status() != Visited {
			return nil
		}
		ind := s.predIndex(t.key)
		if s.ft().bits.IsSet(ind) {
			if err := t.check(); err != nil {
				return err
			}
			t.mu.Lock()
			t.notify = append(t.notify, s)
			t.mu.Unlock()
			e.met.at(w).reinitEnqueues.Add(1)
		}
		return nil
	}()
	if err == nil {
		return nil
	}
	var fe *fault.Error
	if errors.As(err, &fe) && fe.Key == s.key { // catch: error in S
		e.recoverTaskOnce(w, fe.Key, fe.Life)
		return nil
	}
	return err // rethrow: error in t (or unexpected)
}

// resetNode is RESETNODE (Guarantee 5): re-arm the bit vector of the same
// incarnation — which is also its join counter — and re-traverse its
// predecessors; the traversal observes and recovers whichever predecessor
// failed.
func (e *exec[S]) resetNode(w *sched.Worker, t *task[S]) {
	e.met.at(w).resets.Add(1)
	err := func() error { // try
		if err := t.check(); err != nil {
			return err
		}
		t.ft().bits.SetAll()
		e.initAndCompute(w, t)
		return nil
	}()
	if err != nil { // catch
		e.recoverFromError(w, err, t.key, t.Life())
	}
}

// boolArg encodes a boolean as a span argument.
func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
