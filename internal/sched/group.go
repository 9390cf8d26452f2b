package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"ftdag/internal/trace"
)

// Group tracks one logical job's work on a shared Pool: a subset of the
// pool's jobs with its own tally, quiescence condition, and abort flag. It is
// what lets a long-lived pool serve many concurrent task-graph executions —
// each execution waits on (and cancels) only its own group, while
// Pool.Wait/Pool.Abort retain their whole-pool semantics.
//
// Every function routed through Submit/Spawn carries the group in its job
// record (not a wrapper closure — the spawn path stays allocation-free);
// the worker loop applies the group contract: (a) an aborted group's queued
// work becomes a no-op instead of being discarded — it is still counted
// done, so other groups' progress and the pool's own quiescence are
// unaffected — and (b) the group reaches its own quiescence exactly when its
// last function (and everything transitively spawned from it through the
// group) has finished or been skipped.
type Group struct {
	pool *Pool

	// tally counts the group's outstanding jobs (tally.go), one pair per
	// worker of the pool and one for everyone else; nothing in the Group
	// itself is written per job. A worker looks at it where it stops working
	// for the group (Worker.leaveGroup) and broadcasts cond under mu.
	tally   tally
	aborted atomic.Bool

	// span/spanJob position the group's work in a distributed trace (set
	// once via SetSpan before any Submit; read by workers after a deque
	// transfer, which orders the writes). Steal events are emitted under
	// this context so cross-worker migration of a job's tasks is visible
	// in the job's cluster trace.
	span    trace.SpanContext
	spanJob int64

	mu   sync.Mutex
	cond *sync.Cond
}

// SetSpan attaches a distributed-trace context (and the owning job's ID)
// to the group. Call before submitting work; the pool's span recorder
// (Pool.ObserveSpans) emits steal spans under it.
func (g *Group) SetSpan(ctx trace.SpanContext, job int64) {
	g.span = ctx
	g.spanJob = job
}

// NewGroup returns an empty group on the pool. An empty group is quiescent.
func (p *Pool) NewGroup() *Group {
	g := &Group{pool: p, tally: newTally(len(p.workers))}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Pool returns the pool the group schedules onto.
func (g *Group) Pool() *Pool { return g.pool }

// Submit schedules f from outside the pool as part of this group.
func (g *Group) Submit(f Func) {
	g.tally.external().added.Add(1)
	g.pool.submitJob(job{run: f, g: g})
}

// Spawn schedules f from a job running on w as part of this group. Like
// Worker.Spawn it must be called from a job executing on w; f lands on w's
// own deque.
func (g *Group) Spawn(w *Worker, f Func) { g.SpawnRunner(w, f, 0) }

// SpawnRunner is Spawn for a Runner (see Worker.SpawnRunner).
func (g *Group) SpawnRunner(w *Worker, r Runner, arg int) {
	g.tally[w.id].added.Add(1)
	w.spawnJob(job{run: r, arg: arg, g: g})
}

// SpawnAvoiding schedules f as part of this group on some worker other than
// w (round-robin; on a single-worker pool it degrades to worker 0) and
// returns the chosen worker id. Used for distinct-worker replica placement.
func (g *Group) SpawnAvoiding(w *Worker, f Func) int {
	g.tally.external().added.Add(1)
	return g.pool.submitAvoidingJob(w.ID(), job{run: f, g: g})
}

// Pending returns the group's outstanding job count (scheduled but not yet
// finished or skipped). Mid-run it may count a job that finished during the
// call; it is zero once Wait has returned from quiescence.
func (g *Group) Pending() int64 { return g.tally.pending() }

// Abort cancels the group cooperatively: functions of this group that have
// not started yet run as no-ops, currently running ones finish normally, and
// Wait returns. Other groups and the pool itself are untouched. The group
// must not be reused afterwards.
func (g *Group) Abort() {
	g.aborted.Store(true)
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Aborted reports whether Abort was called.
func (g *Group) Aborted() bool { return g.aborted.Load() }

// Wait blocks until every function submitted or spawned through the group
// has finished, or until the group is aborted.
func (g *Group) Wait() {
	if g.tally.quiescent() {
		return
	}
	g.mu.Lock()
	for !g.tally.quiescent() && !g.aborted.Load() {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// WaitTimeout is Wait with a deadline; it reports whether the group reached
// quiescence (or abort) in time.
func (g *Group) WaitTimeout(d time.Duration) bool {
	deadline := time.Now().Add(d)
	done := make(chan struct{})
	go func() {
		g.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(time.Until(deadline)):
		return false
	}
}
