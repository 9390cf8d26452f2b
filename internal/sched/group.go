package sched

import (
	"sync"
	"sync/atomic"

	"ftdag/internal/trace"
)

// Group tracks one logical job's work on a shared Pool: a subset of the
// pool's jobs with its own tally, quiescence condition, and abort flag. It is
// what lets a long-lived pool serve many concurrent task-graph executions —
// each execution waits on (and cancels) only its own group, while Pool.Wait
// keeps its whole-pool semantics. A group's Abort is the only way to cancel
// work.
//
// Every function routed through Submit/SpawnRunner carries the group in its
// job record (not a wrapper closure — the spawn path stays allocation-free);
// the worker loop applies the group contract: (a) an aborted group's queued
// work becomes a no-op instead of being discarded — it is still counted
// done, so other groups' progress and the pool's own quiescence are
// unaffected — and (b) the group reaches its own quiescence exactly when its
// last function (and everything transitively spawned from it through the
// group) has finished or been skipped.
//
// A grouped job is counted in the group's tally alone — one add where it is
// spawned, one done where it ran, both on the worker's own pair — and the
// group holds one job of the pool's tally while it has work: the hold is
// taken by the Submit that finds the group idle and released, once nothing
// of the group is outstanding, by the worker that leaves it (release). A
// running job of the group implies the hold, so a spawn takes no lock.
type Group struct {
	pool *Pool

	// tally counts the group's outstanding jobs (tally.go), one pair per
	// worker of the pool and one for everyone else; nothing in the Group
	// itself is written per job. A worker looks at it where it stops working
	// for the group (Worker.leaveGroup).
	tally   tally
	aborted atomic.Bool

	// span/spanJob position the group's work in a distributed trace (set
	// once via SetSpan before any Submit; read by workers after a deque
	// transfer, which orders the writes). Steal events are emitted under
	// this context so cross-worker migration of a job's tasks is visible
	// in the job's cluster trace.
	span    trace.SpanContext
	spanJob int64

	// mu guards held and the folded counts, and is the lock of cond, which
	// Wait sleeps on until the hold is released. held is whether the group
	// holds a job of the pool's tally; foldedJobs and foldedSpawns are the
	// group's Stats.Jobs and Stats.Spawns already added to the pool's.
	mu           sync.Mutex
	cond         *sync.Cond
	held         bool
	foldedJobs   int64
	foldedSpawns int64
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

// Submit schedules f from outside the pool as part of this group. The first
// Submit after the group was idle takes the group's hold on the pool.
func (g *Group) Submit(f Func) {
	g.mu.Lock()
	if !g.held {
		g.held = true
		g.pool.tally.external().added.Add(1)
	}
	g.tally.external().added.Add(1)
	g.mu.Unlock()
	g.pool.submitJob(job{run: f, g: g})
}

// release is where a group that has gone idle gives its hold on the pool
// back, after folding its counts into the pool's Stats, and wakes its
// waiters. A worker calls it when its scan of the tally found nothing of the
// group outstanding; under mu the scan is repeated, because a Submit may
// have come in between, and with no Submit able to add while mu is held and
// no job of the group running to spawn, a quiescent tally stays quiescent
// until the hold is gone. The hold is counted done on the pool's external
// pair, where it was added, so the workers' pairs keep counting jobs only.
func (g *Group) release() {
	g.mu.Lock()
	if g.held && g.tally.quiescent() {
		var jobs, spawns int64
		for i := range g.tally {
			jobs += g.tally[i].done.Load()
		}
		for i := range g.tally[:len(g.tally)-1] {
			spawns += g.tally[i].added.Load()
		}
		g.pool.groupJobs.Add(jobs - g.foldedJobs)
		g.pool.groupSpawns.Add(spawns - g.foldedSpawns)
		g.foldedJobs, g.foldedSpawns = jobs, spawns
		g.held = false
		g.pool.tally.external().done.Add(1)
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// SpawnRunner schedules r.Run(w', arg) from a job running on w as part of
// this group. Like Worker.SpawnRunner it must be called from a job executing
// on w; the job lands on w's own deque. On a nil group it is
// Worker.SpawnRunner.
func (g *Group) SpawnRunner(w *Worker, r Runner, arg int) {
	w.spawnJob(job{run: r, arg: arg, g: g})
}

// SpawnAvoiding schedules f, from a job running on w, as part of this group
// on any worker but w, so that a fault local to one core cannot hit both; on
// a single-worker pool f runs on worker 0. It is counted on the tally's
// external pair, so Stats.Spawns leaves it out. On a nil group f is ungrouped.
func (g *Group) SpawnAvoiding(w *Worker, f Func) {
	t := w.pool.tally
	if g != nil {
		t = g.tally
	}
	t.external().added.Add(1)
	w.pool.place(placement{j: job{run: f, g: g}, avoid: w.id})
}

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
// has finished and the group has released its hold on the pool, or until the
// group is aborted.
func (g *Group) Wait() {
	g.mu.Lock()
	for g.held && !g.aborted.Load() {
		g.cond.Wait()
	}
	g.mu.Unlock()
}
