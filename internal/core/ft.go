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
)

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
	group group // this run's work on its pool (set by runOn)
	hooks hooks // test instrumentation; set after construction
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
func (e *exec[S]) initAndCompute(w worker, t *task[S]) {
	if last := len(t.preds) - 1; last >= 0 {
		for i := 0; i < last; i++ {
			e.group.spawn(w, (*traverseJob[S])(t), i)
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
func (e *exec[S]) tryInitCompute(w worker, t *task[S], i int) {
	b, inserted := e.insertIfAbsent(t.preds[i])
	if inserted {
		e.group.spawn(w, (*exploreJob[S])(b), 0)
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
func (e *exec[S]) notifyOnce(w worker, t *task[S], ind int) {
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
func (e *exec[S]) notifySuccessor(w worker, from, s *task[S]) {
	if s.has(superseded) {
		s, _ = e.tasks.Load(s.key)
	}
	e.notifyOnce(w, s, s.predIndex(from.key))
}

// drain runs NOTIFYSUCCESSOR over the batch of t's notify array that arg
// names. NABBIT notifies the registered descriptors themselves: it has no
// incarnations, and its join is a counter.
func (e *exec[S]) drain(w worker, t *task[S], arg int) {
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
func (e *exec[S]) computeAndNotify(w worker, t *task[S]) {
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
func (e *exec[S]) compute(w worker, t *task[S]) error {
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

// finishAndNotify is COMPUTEANDNOTIFY after a compute that succeeded: it
// marks t Computed and drains its notify array (one drain job per
// notifyBatchSize entries, re-checking under the lock until the array stops
// growing), then fires any planned after-notify fault. A drain job is t
// itself plus the batch's position, so the drain copies no entries and
// allocates nothing.
func (e *exec[S]) finishAndNotify(w worker, t *task[S]) {
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
			e.group.spawn(w, (*drainJob[S])(t), batchArg(lo, total))
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
func (e *exec[S]) catchComputeError(w worker, t *task[S], err error) {
	var fe *fault.Error
	if !t.shaded() && e.group.Aborted() {
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

// recoverFromError routes a caught *fault.Error to recovery of the task it
// names. Non-fault errors indicate executor bugs and panic.
func (e *exec[S]) recoverFromError(w worker, err error, defaultKey graph.Key, defaultLife int) {
	var fe *fault.Error
	if errors.As(err, &fe) {
		e.recoverTaskOnce(w, fe.Key, fe.Life)
		return
	}
	panic(fmt.Sprintf("core: unexpected non-fault error on task %d: %v", defaultKey, err))
}

// recoverTaskOnce is RECOVERTASKONCE (Guarantee 1): only the thread that
// wins the recovery-table race performs the recovery of this incarnation.
func (e *exec[S]) recoverTaskOnce(w worker, key graph.Key, life int) {
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
func (e *exec[S]) recoverTask(w worker, key graph.Key) {
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
			e.group.spawn(w, (*exploreJob[S])(t), 0)
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
func (e *exec[S]) replaceTask(w worker, key graph.Key) *task[S] {
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
func (e *exec[S]) reinitNotifyEntry(w worker, t *task[S], s *task[S]) error {
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
func (e *exec[S]) resetNode(w worker, t *task[S]) {
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
