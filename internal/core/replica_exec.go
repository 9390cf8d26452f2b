package core

import (
	"sync/atomic"
	"time"

	"ftdag/internal/fault"
	"ftdag/internal/replica"
)

// This file is the executor half of selective task replication
// (internal/replica): tasks in Config.Replicate run twice — the primary on
// the spawning worker, a shadow on any *other* worker (core-local corruption
// would hit both copies of a co-located pair) — and their output
// digests are compared at a continuation-passing join. Neither replica ever
// blocks a worker, so the busy-leaves property and Lemma 3 (a correct
// execution always drains) are preserved. On digest disagreement the task
// and its stored output are invalidated and the ordinary FT-NABBIT recovery
// machinery re-executes it; successors have not been notified yet (the
// notify drain runs only after a clean join), so the downstream notify
// closure is invalidated with it by construction.

// replicaJoin is the join state of one replicated execution of t, and the
// shadow's job. The two replicas each call arrive exactly once; the last
// arrival resolves. The digest fields are plain because each is written by
// one replica before its (sequentially consistent) arrive decrement, which
// happens-before the resolving replica's observation of remaining == 0.
type replicaJoin[S state] struct {
	t             *task[S]
	remaining     atomic.Int32
	aborted       atomic.Bool // primary failed; recovery owns the task
	shadowFailed  atomic.Bool // shadow errored; re-verify from the input snapshot
	sdcFired      bool        // an SDC was injected into the primary's output
	primaryDigest uint64
	shadowDigest  uint64
	// inputs is the primary's snapshot of the predecessor payloads it read
	// (its private read copies, and copies of the words it gathered),
	// written before its arrive. If the live shadow loses a store read to
	// retention eviction, the resolver re-runs the shadow compute from this
	// snapshot so the primary never goes unverified just because an
	// anti-dependent writer won a race. The resolver frees the read copies
	// once the join is decided.
	inputs []predRead
}

// arrive records one replica's completion and reports whether the caller is
// the last to arrive (and must therefore resolve the join).
func (rj *replicaJoin[S]) arrive() bool { return rj.remaining.Add(-1) == 0 }

// run is the shadow's job: runShadow on the worker it was placed on.
func (rj *replicaJoin[S]) run(w worker, _ int) { rj.t.e.runShadow(w, rj.t, rj) }

// computeReplicated executes t with a shadow replica. The shadow is spawned
// first so it can overlap the primary; the primary then runs inline on w.
func (e *exec[S]) computeReplicated(w worker, t *task[S]) {
	rj := &replicaJoin[S]{t: t}
	rj.remaining.Store(2)
	e.met.at(w).replicatedTasks.Add(1)
	e.group.spawnAvoiding(w, rj)
	err := func() error { // try (primary)
		if err := t.check(); err != nil {
			return err
		}
		if e.plan.Fire(t.key, t.Life(), fault.BeforeCompute) {
			e.inject(w, t, false)
			return fault.Errorf(t.key, t.Life())
		}
		if err := e.runCompute(w, t, rj); err != nil {
			return err
		}
		if e.plan.Fire(t.key, t.Life(), fault.SDC) {
			// CorruptSilently flips the stored payload and re-derives its
			// checksum; the primary's digest becomes that of the corrupted
			// data — exactly what a downstream consumer would read.
			if sum, ok := e.injectSDC(w, t); ok {
				rj.primaryDigest = sum
			}
			rj.sdcFired = true
		}
		return nil
	}()
	if err != nil {
		rj.aborted.Store(true)
	}
	last := rj.arrive()
	if err != nil { // catch
		e.catchComputeError(w, t, err)
		return
	}
	if last {
		e.resolveReplicas(w, t, rj)
	}
}

// runShadow executes the shadow replica on a worker other than the
// primary's. The shadow reads predecessors through the store like the
// primary but captures its write locally; only the digest matters. A shadow
// failure (poisoned descriptor, evicted predecessor version, compute error)
// does not trigger recovery — the resolver re-verifies the primary from its
// input snapshot instead, so a shadow losing a store read to an
// anti-dependent writer never costs detection coverage.
func (e *exec[S]) runShadow(w worker, t *task[S], rj *replicaJoin[S]) {
	digest, err := e.shadowCompute(w, t, false, nil)
	if err != nil {
		rj.shadowFailed.Store(true)
	} else {
		rj.shadowDigest = digest
	}
	if rj.arrive() {
		e.resolveReplicas(w, t, rj)
	}
}

// shadowCompute runs t's compute without storing the output and returns the
// output's digest. With snapshot set, the predecessor reads come from inputs
// — the primary's snapshot — instead of the store (the re-verification path).
func (e *exec[S]) shadowCompute(w worker, t *task[S], snapshot bool, inputs []predRead) (uint64, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	blk := e.met.block(w)
	blk.shadowComputes.Add(1)
	ctx := &shadowCtx[S]{taskCtx: taskCtx[S]{e: e, t: t, met: &blk.counters, heldBufs: heldBufs{reads: inputs, cache: &blk.cache}}, snapshot: snapshot}
	err := e.spec.Compute(ctx, t.key)
	if err == nil && !ctx.wrote {
		err = fault.Errorf(t.key, t.Life())
	}
	var digest uint64
	if err == nil {
		digest = replica.Digest(ctx.out)
	}
	// The captured output is the shadow's to free, once: a piece of a read
	// copy goes back with the copy.
	if !ctx.holds(ctx.out) {
		ctx.cache.Free(ctx.out)
	}
	ctx.release(!snapshot)
	return digest, err
}

// reverifyFromSnapshot re-runs the shadow compute from the primary's input
// snapshot after the live shadow failed, filling rj.shadowDigest. It runs
// inline on the resolving worker — the distinct-worker placement was already
// attempted by the live shadow; this retry trades that placement for
// guaranteed verification. Reports whether a digest was produced.
func (e *exec[S]) reverifyFromSnapshot(w worker, t *task[S], rj *replicaJoin[S]) bool {
	digest, err := e.shadowCompute(w, t, true, rj.inputs)
	if err != nil {
		return false
	}
	rj.shadowDigest = digest
	return true
}

// resolveReplicas runs on whichever replica arrived last. On agreement the
// task proceeds to its notify drain; on disagreement the task descriptor and
// its stored output are poisoned and the ordinary recovery machinery
// re-executes the incarnation (the SDC plan entry has already fired, so the
// re-execution is clean).
func (e *exec[S]) resolveReplicas(w worker, t *task[S], rj *replicaJoin[S]) {
	if rj.aborted.Load() {
		return // the primary's catch already dispatched recovery
	}
	if e.cfg.Spans != nil {
		// The replica digest join, as a trace span: Arg 1 when the digests
		// disagreed (an SDC was caught), 0 on agreement.
		e.emitSpan("replica-join", time.Now(), 0, t.key, t.Life(),
			boolArg(rj.primaryDigest != rj.shadowDigest && !rj.shadowFailed.Load()))
	}
	err := func() error { // try
		if rj.shadowFailed.Load() {
			e.met.at(w).shadowFailures.Add(1)
			if !e.reverifyFromSnapshot(w, t, rj) {
				// Neither the live shadow nor the snapshot re-run could
				// produce a digest (the task was poisoned under us, or
				// its compute genuinely errors): accept the primary
				// unverified. If a corruption was injected it escaped
				// the one mechanism that could have caught it: a miss.
				if rj.sdcFired {
					e.met.at(w).sdcMissed.Add(1)
				}
				e.finishAndNotify(w, t)
				return nil
			}
		}
		if rj.primaryDigest != rj.shadowDigest {
			e.met.at(w).sdcDetected.Add(1)
			// Invalidate the task and its output so any concurrent
			// reader observes the failure, then hand the incarnation
			// to recovery. Successors are un-notified at this point,
			// so the downstream notify closure re-attaches to the
			// fresh incarnation via the recovery scan. Corrupt names
			// this incarnation: a recovery claimed in between keeps
			// the version it rewrites.
			t.mark(poisoned)
			e.store.Corrupt(t.out.Block, t.out.Version, t.Life())
			return fault.Errorf(t.key, t.Life())
		}
		e.finishAndNotify(w, t)
		return nil
	}()
	for _, in := range rj.inputs {
		// A gather's copy is a tile's boundary: listed, it would sit on the
		// free list under a length no Alloc asks for, up to the list's cap.
		if in.runs == nil {
			e.met.block(w).cache.Free(in.data)
		}
	}
	rj.inputs = nil
	if err != nil { // catch
		e.recoverFromError(w, err, t.key, t.Life())
	}
}

// injectSDC silently corrupts the task's freshly written output version:
// the payload bits flip and the stored checksum is recomputed over the
// corrupted data, so neither the poisoned flag nor checksum verification
// can observe it. Only replica digest comparison can. It returns the
// recomputed checksum and whether the version was still retained.
func (e *exec[S]) injectSDC(w worker, t *task[S]) (sum uint64, ok bool) {
	sum, ok = e.store.CorruptSilently(t.out.Block, t.out.Version)
	e.met.at(w).sdcInjected.Add(1)
	return sum, ok
}
