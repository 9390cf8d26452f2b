// Package sched implements a Cilk-style randomized work-stealing runtime.
//
// A Pool runs P workers, each a goroutine owning a Chase–Lev deque
// (internal/deque). A job spawned by a running job is pushed to the bottom
// of the spawning worker's own deque and popped LIFO, preserving the
// depth-first order Cilk uses for the busy-leaves property; idle workers
// steal FIFO from the top of a uniformly random victim's deque. This is the
// scheduling discipline assumed by the paper's completion-time bounds
// (Arora–Blumofe–Plaxton / Blumofe–Leiserson: T_P = O(T1/P + T∞) w.h.p.).
//
// The spawn→execute→steal path is lock-free and allocation-free:
//
//   - Idle workers park on a Treiber stack and are woken by submit/spawn in
//     microseconds (park.go), so IdleTime measures genuine starvation.
//   - Spawn recycles fixed job slots through per-worker free-lists, and
//     group membership travels as a field of the job record rather than a
//     wrapper closure, so the spawn→execute cycle performs zero heap
//     allocations in steady state.
//   - The pool has one shared queue besides the deques: the placement list,
//     a mutex-guarded slice served oldest first. Only a submission from
//     outside the pool (Submit, Group.Submit: a run's root) and a job that
//     must run off its spawner's worker (a shadow replica,
//     Group.SpawnAvoiding) go on it, so a spawn never takes its lock. Every
//     worker the entry does not avoid takes from it ahead of its own deque:
//     no job waits for one particular worker.
//   - Outstanding jobs are counted in one {added, done} pair per worker
//     (tally.go), and quiescence is found by summing them: there is no
//     counter that two workers write. An ungrouped job is counted in the
//     pool's tally, a grouped job in its group's only; the pool's tally holds
//     one job for each group that has work (group.go), so the pool is idle
//     only when every group is.
//
// The task-graph executors in internal/core express every traversal step
// (TRYINITCOMPUTE, INITANDCOMPUTE, NOTIFYSUCCESSOR, …) as a spawned job: a
// Runner — the task descriptor — plus an integer, so the caller's side of a
// spawn allocates nothing either.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ftdag/internal/deque"
	"ftdag/internal/trace"
)

// Func is a unit of work. It receives the worker executing it so that
// further spawns land on that worker's own deque, as in Cilk.
type Func func(w *Worker)

// Runner is a unit of work that is a value instead of a closure: the
// scheduler calls Run with the worker executing it and the integer it was
// spawned with. A task-graph executor spawns one job per dependence edge; with
// the task descriptor (a pointer) as the Runner and the edge index as arg, the
// spawn allocates nothing, where a closure capturing the same two would cost
// an allocation per edge. Func is the Runner that ignores arg.
type Runner interface {
	Run(w *Worker, arg int)
}

// Run calls f; it makes every Func a Runner.
func (f Func) Run(w *Worker, _ int) { f(w) }

// job is the scheduler's internal unit of work: the Runner and its argument
// plus the group it is accounted to (nil for ungrouped work) and, for a
// submission to an observed pool, the time it was submitted. Carrying the
// group as a field rather than wrapping the function in a closure keeps the
// spawn path allocation-free and the group's bookkeeping inline in the worker
// loop.
type job struct {
	run Runner
	arg int
	g   *Group
	at  int64 // Submit time, Unix nanoseconds; 0 for spawned and placed jobs and on unobserved pools
}

// Stats aggregates scheduler counters across all workers of a Pool run.
type Stats struct {
	Jobs         int64         // jobs executed
	Spawns       int64         // jobs pushed by running jobs
	Steals       int64         // successful steals
	FailedSteals int64         // steal attempts that found nothing or lost a race
	InjectorHits int64         // jobs taken from the placement list: submissions and placed jobs
	Parks        int64         // times a worker parked (blocked waiting for a wake token)
	IdleTime     time.Duration // total time workers spent parked
	// BusyTime is the total time workers spent awake: running jobs and
	// looking for them, from a worker's start or wake to its next park or
	// its exit, the stretch a worker is in counted up to the snapshot.
	BusyTime time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("jobs=%d spawns=%d steals=%d failedSteals=%d injectorHits=%d parks=%d idle=%v",
		s.Jobs, s.Spawns, s.Steals, s.FailedSteals, s.InjectorHits, s.Parks, s.IdleTime)
}

// counters are one worker's scheduler statistics. They are atomics (rather
// than plain fields owned by the worker goroutine) so that a long-lived pool
// can be observed mid-run via StatsSnapshot without a data race; each worker
// writes only its own cache line, so the hot-path cost is an uncontended
// atomic add. Jobs and spawns are not here: they are the worker's pairs of the
// pool's and the groups' tallies.
type counters struct {
	steals       atomic.Int64
	failedSteals atomic.Int64
	injectorHits atomic.Int64
	parks        atomic.Int64
	idleNanos    atomic.Int64
	// busy is the worker's awake time in one word, so that a reader takes
	// it whole: twice the nanoseconds of its finished stretches, plus one
	// and less twice the start of the current stretch on the pool's clock
	// while it is awake (busyAt). The worker alone writes it, when it
	// starts, parks, wakes and exits, from the clock reads that time its
	// idle stretches: busy time costs no clock read of its own.
	busy atomic.Int64
}

// wake opens a busy stretch at at, on the pool's clock.
func (c *counters) wake(at int64) { c.busy.Store((c.busy.Load()>>1-at)<<1 | 1) }

// sleep closes the busy stretch open since the last wake at at.
func (c *counters) sleep(at int64) { c.busy.Store((c.busy.Load()>>1 + at) << 1) }

// busyAt is the worker's awake time up to now, on the pool's clock.
func (c *counters) busyAt(now int64) time.Duration {
	v := c.busy.Load()
	if v&1 != 0 {
		return time.Duration(v>>1 + now)
	}
	return time.Duration(v >> 1)
}

// Worker is one scheduling thread of a Pool.
type Worker struct {
	pool  *Pool
	id    int
	dq    *deque.Deque[job]
	stats counters

	// rng, cur and free are the words of the Worker that its goroutine writes
	// per steal attempt and per job. The Worker is 128 bytes, a size class
	// the allocator lays out on 128-byte boundaries, so they share a block
	// with no other Worker's words (TestWorkerLayout).
	rng uint64

	// cur is the group of the job the worker ran last, nil when that job
	// had none or the worker has since looked at the group's tally. Owned by
	// the worker goroutine.
	cur *Group

	// free is the worker-local free-list of deque job slots. It is touched
	// only by the owning goroutine (Spawn allocates from the spawner, the
	// executing worker — owner or thief — recycles into its own list), so
	// it needs no synchronization. Bounded so a pathological spawn burst
	// degrades to the allocator instead of hoarding memory.
	free []*job

	// Parking state (park.go): parkNext links this worker into the parked
	// stack, onStack guards against double-push (set by the worker, cleared
	// by the popper), parkCh carries at most one pending wake token.
	parkNext atomic.Int32
	onStack  atomic.Bool
	parkCh   chan struct{}
}

// ID returns the worker's index in [0, P).
func (w *Worker) ID() int { return w.id }

// Spawn schedules f for execution: it is pushed onto this worker's own deque
// (LIFO, stealable FIFO). Must be called from a job running on w.
func (w *Worker) Spawn(f Func) { w.SpawnRunner(f, 0) }

// SpawnRunner is Spawn for a Runner: r.Run(w', arg) runs on whichever worker
// w' takes the job.
func (w *Worker) SpawnRunner(r Runner, arg int) { w.spawnJob(job{run: r, arg: arg}) }

// spawnJob counts j in the tally of its group, or the pool's if it has none,
// on the spawning worker's pair, and pushes it.
func (w *Worker) spawnJob(j job) {
	p := w.pool
	if j.g != nil {
		j.g.tally[w.id].added.Add(1)
	} else {
		p.tally[w.id].added.Add(1)
	}
	s := w.newSlot()
	*s = j
	w.dq.PushBottom(s)
	// One atomic load in the saturated steady state; a wake only when
	// someone is actually parked.
	if p.parkHead.Load() != 0 {
		p.wakeOne()
	}
}

// newSlot takes a job slot from the worker's free-list, falling back to the
// allocator when the list is empty (cold start, or a burst that outran
// recycling).
func (w *Worker) newSlot() *job {
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s
	}
	return new(job)
}

// putSlot recycles an executed job's slot into this worker's free-list,
// dropping it for the garbage collector when the list is full.
func (w *Worker) putSlot(s *job) {
	*s = job{} // release the runner and group for GC
	if len(w.free) < cap(w.free) {
		w.free = append(w.free, s)
	}
}

// slotFreeListCap bounds each worker's slot free-list. Steals migrate slots
// between workers' lists, so the bound also caps the drift.
const slotFreeListCap = 256

// Pool is a fixed-size work-stealing worker pool.
type Pool struct {
	workers []*Worker
	wg      sync.WaitGroup

	// tally counts the pool's outstanding jobs (tally.go): its ungrouped
	// jobs and one hold per group with work (group.go). Its workers' pairs
	// are the ungrouped part of Stats.Spawns and Stats.Jobs; groupSpawns
	// and groupJobs are the rest, folded in from each group when it
	// releases its hold — once per group, not per job. A worker that finds
	// no work looks at the tally and, if nothing is outstanding, broadcasts
	// quiesceCond under quiesceMu; Wait evaluates the same predicate under
	// the same lock before it sleeps.
	tally       tally
	groupSpawns atomic.Int64
	groupJobs   atomic.Int64
	quiesceMu   sync.Mutex
	quiesceCond *sync.Cond

	// What every spawn and every turn of the worker loop reads — the head
	// of the parked-worker stack (park.go), with its count for
	// observability, and the stop flag — is written only when a worker
	// parks or wakes or the pool stops. The pad keeps it off the line of the
	// placement list below, which every submission and placement writes
	// (TestSchedLayout).
	parkHead    atomic.Uint64
	parkedCount atomic.Int64
	stop        atomic.Bool
	_           [128]byte

	// placed is the placement list (Submit, Group.Submit,
	// Group.SpawnAvoiding): a ring of a power-of-two length, oldest entry
	// at placedHead. placedLen is its length, written under placedMu: the
	// workers' lock-free emptiness peek and the depth gauge.
	placedMu   sync.Mutex
	placed     []placement
	placedHead int
	placedLen  atomic.Int64

	obs   atomic.Pointer[poolObs]     // instrument bundle; nil until Observe
	spans atomic.Pointer[trace.Spans] // steal-span recorder; nil until ObserveSpans

	epoch time.Time // the start of the pool's clock (since)
}

// since returns t on the pool's clock: nanoseconds since the pool started.
func (p *Pool) since(t time.Time) int64 { return int64(t.Sub(p.epoch)) }

// NewPool starts a work-stealing pool with p workers (p >= 1). The caller
// should arrange GOMAXPROCS >= p if true parallelism is desired; the pool
// itself only guarantees p concurrent logical workers.
func NewPool(p int) *Pool {
	if p < 1 {
		panic("sched: pool size must be >= 1")
	}
	if p > maxWorkers {
		panic(fmt.Sprintf("sched: pool size %d exceeds the %d-worker limit", p, maxWorkers))
	}
	pool := &Pool{tally: newTally(p), epoch: time.Now()}
	pool.quiesceCond = sync.NewCond(&pool.quiesceMu)
	pool.workers = make([]*Worker, p)
	for i := 0; i < p; i++ {
		pool.workers[i] = &Worker{
			pool:   pool,
			id:     i,
			dq:     deque.New[job](),
			rng:    uint64(i)*0x9E3779B97F4A7C15 + 0x1234567F,
			free:   make([]*job, 0, slotFreeListCap),
			parkCh: make(chan struct{}, 1),
		}
	}
	pool.wg.Add(p)
	for _, w := range pool.workers {
		go w.run()
	}
	return pool
}

// Submit schedules f from outside the pool (e.g. the root of a task-graph
// traversal). f joins the placement list, which every worker takes from, in
// submission order, ahead of its own deque.
func (p *Pool) Submit(f Func) { p.submitJob(job{run: f}) }

// submitJob counts an ungrouped job in the pool's tally — a grouped one is
// counted by Group.Submit — stamps it when the pool is observed (queue-wait
// histogram) and places it for any worker.
func (p *Pool) submitJob(j job) {
	if j.g == nil {
		p.tally.external().added.Add(1)
	}
	if p.obs.Load() != nil {
		j.at = time.Now().UnixNano()
	}
	p.place(placement{j: j, avoid: -1})
}

// placement is an entry of the placement list: a job any worker but avoid
// may run (Group.SpawnAvoiding), or any worker at all when avoid is -1 (a
// submission).
type placement struct {
	j     job
	avoid int
}

// place appends e to the placement list and wakes a parked worker other than
// e.avoid. The avoided worker runs the caller, but park leaves a worker on the
// stack when its recheck finds work, so it may be popped: it gets no token,
// which another worker needs.
func (p *Pool) place(e placement) {
	p.placedMu.Lock()
	n := int(p.placedLen.Load())
	if n == len(p.placed) {
		// Full: unroll the ring into one twice as long. An emptied ring
		// keeps its array, so steady state allocates nothing.
		ring := make([]placement, max(8, 2*n))
		for i := range n {
			ring[i] = p.placed[(p.placedHead+i)&(n-1)]
		}
		p.placed, p.placedHead = ring, 0
	}
	p.placed[(p.placedHead+n)&(len(p.placed)-1)] = e
	p.placedLen.Store(int64(n + 1))
	p.placedMu.Unlock()
	for w := p.popParked(); w != nil; w = p.popParked() {
		if w.id != e.avoid {
			p.wakeWorker(w)
			return
		}
	}
}

// takePlaced takes the oldest entry of the placement list that does not avoid
// w; on a single-worker pool, the oldest. w wakes no one for the entries that
// avoid it, so a worker left with only those parks. The entries it skipped
// move up one place over the taken one, so a take costs the skipped prefix,
// not the length of the list.
func (w *Worker) takePlaced() (job, bool) {
	p := w.pool
	p.placedMu.Lock()
	n, mask := int(p.placedLen.Load()), len(p.placed)-1
	for i := range n {
		e := p.placed[(p.placedHead+i)&mask]
		if e.avoid == w.id && len(p.workers) > 1 {
			continue
		}
		for k := i; k > 0; k-- {
			p.placed[(p.placedHead+k)&mask] = p.placed[(p.placedHead+k-1)&mask]
		}
		p.placed[p.placedHead] = placement{}
		p.placedHead = (p.placedHead + 1) & mask
		p.placedLen.Store(int64(n - 1))
		p.placedMu.Unlock()
		w.stats.injectorHits.Add(1)
		p.obs.Load().pickedUp(e.j) // a clock read and a histogram add: outside the lock
		return e.j, true
	}
	p.placedMu.Unlock()
	return job{}, false
}

// Wait blocks until every submitted and spawned job has finished.
func (p *Pool) Wait() {
	if p.tally.quiescent() {
		return
	}
	p.quiesceMu.Lock()
	for !p.tally.quiescent() {
		p.quiesceCond.Wait()
	}
	p.quiesceMu.Unlock()
}

// Close stops all workers after the pool is quiescent and returns the
// aggregated statistics. The pool must not be used afterwards.
func (p *Pool) Close() Stats {
	p.Wait()
	p.stop.Store(true)
	p.wakeAll()
	p.wg.Wait()
	return p.StatsSnapshot()
}

// StatsSnapshot aggregates the workers' counters without stopping the pool.
// Safe to call concurrently with running work; used by long-lived pools
// (service observability endpoints) where Close is not an option. A group's
// jobs and spawns are in it from the moment the group goes idle — before its
// Wait returns — and not before.
func (p *Pool) StatsSnapshot() Stats {
	s := Stats{Jobs: p.groupJobs.Load(), Spawns: p.groupSpawns.Load()}
	now := p.since(time.Now())
	for i, w := range p.workers {
		s.Jobs += p.tally[i].done.Load()
		s.Spawns += p.tally[i].added.Load()
		s.Steals += w.stats.steals.Load()
		s.FailedSteals += w.stats.failedSteals.Load()
		s.InjectorHits += w.stats.injectorHits.Load()
		s.Parks += w.stats.parks.Load()
		s.IdleTime += time.Duration(w.stats.idleNanos.Load())
		s.BusyTime += w.stats.busyAt(now)
	}
	return s
}

func (w *Worker) run() {
	defer w.pool.wg.Done()
	w.stats.wake(w.pool.since(time.Now()))
	for {
		j, ok := w.takeAny()
		if !ok {
			w.leaveGroup()
			w.pool.settle()
			if w.pool.stop.Load() {
				w.stats.sleep(w.pool.since(time.Now()))
				return
			}
			j, ok = w.park()
			if !ok {
				continue // woken (or stopping): rescan from the top
			}
		}
		if j.g != w.cur {
			w.leaveGroup()
			w.cur = j.g
		}
		w.invoke(j)
	}
}

// leaveGroup runs where the worker stops working for the group of its last
// job: the job it takes next belongs to another group or to none, or there is
// no job. If nothing of the group is outstanding it releases the group's hold
// on the pool and wakes the group's waiters (Group.release). Whichever worker
// counts a group's last job done comes through here afterwards and then sees
// every other count, so scanning nowhere else loses no release — and scanning
// here does not wait for the pool to go idle.
func (w *Worker) leaveGroup() {
	g := w.cur
	if g == nil {
		return
	}
	w.cur = nil
	if g.tally.quiescent() {
		g.release()
	}
}

// settle wakes the pool's waiters if nothing is outstanding. A worker calls
// it when it has found no work: the worker that counted the pool's last job
// done finds none next.
func (p *Pool) settle() {
	if p.tally.quiescent() {
		p.quiesceMu.Lock()
		p.quiesceCond.Broadcast()
		p.quiesceMu.Unlock()
	}
}

// takeAny finds the next job: the placement list, then the worker's own
// deque, then other workers' deques. Placed jobs and submissions run ahead of
// local deque work: a shadow replica gates another worker's join, and a
// submission is a run's root, so their latency matters more than preserving
// strict LIFO order here.
func (w *Worker) takeAny() (job, bool) {
	if w.pool.placedLen.Load() != 0 {
		if j, ok := w.takePlaced(); ok {
			return j, true
		}
	}
	if s := w.dq.PopBottom(); s != nil {
		j := *s
		w.putSlot(s)
		return j, true
	}
	return w.findWork()
}

// park blocks the worker until a producer wakes it. It returns a job if the
// post-publish recheck found one (closing the race with a producer that saw
// an empty parked stack), otherwise after a wake token with no job — the
// caller rescans. Park time is accounted as idle: with wake-on-submit the
// counter now measures genuine starvation rather than sleep quanta. The two
// clock reads that time it also close the busy stretch that ends here and
// open the next, so busy time costs no clock read of its own.
func (w *Worker) park() (job, bool) {
	p := w.pool
	p.pushParked(w)
	if j, ok := w.takeAny(); ok {
		// Still on the stack with work in hand: a producer may pop and
		// wake us redundantly; the token is consumed as a spurious wake
		// at the next park.
		return j, true
	}
	if p.stop.Load() {
		return job{}, false
	}
	w.stats.parks.Add(1)
	start := time.Now()
	w.stats.sleep(p.since(start))
	<-w.parkCh
	woke := time.Now()
	w.stats.wake(p.since(woke))
	w.stats.idleNanos.Add(int64(woke.Sub(start)))
	return job{}, false
}

// invoke applies the group contract around the job body: an aborted group's
// queued work becomes a no-op instead of being discarded (it is still counted
// done, so the pool drains normally), and the group reaches quiescence
// exactly when its last job has finished or been skipped. The job is counted
// done where it was counted added: in its group's tally, or the pool's.
func (w *Worker) invoke(j job) {
	if j.g == nil {
		j.run.Run(w, j.arg)
		w.pool.tally[w.id].done.Add(1)
		return
	}
	if !j.g.aborted.Load() {
		j.run.Run(w, j.arg)
	}
	j.g.tally[w.id].done.Add(1)
}

// findWork makes one steal attempt on each other worker's deque, from a
// random start.
func (w *Worker) findWork() (job, bool) {
	p := w.pool
	n := len(p.workers)
	if n == 1 {
		return job{}, false
	}
	var searchStart time.Time
	o := p.obs.Load()
	if o != nil {
		searchStart = time.Now()
	}
	// One pass over every other worker per call, starting at a random one;
	// the caller's park loop provides repetition. Every worker, not n random
	// draws: a thief that parks is not woken again for work already queued,
	// so a pass that skips the one busy deque strands its work until the
	// owner gets back to it.
	start := int(w.nextRand() % uint64(n))
	for k := 0; k < n; k++ {
		victim := p.workers[(start+k)%n]
		if victim == w {
			continue
		}
		if s := victim.dq.Steal(); s != nil {
			j := *s
			w.putSlot(s) // thief recycles into its own free-list
			w.stats.steals.Add(1)
			if o != nil {
				o.stealLat.ObserveSince(searchStart)
			}
			if sp := p.spans.Load(); sp != nil && j.g != nil && j.g.span.Valid() {
				sp.Emit(trace.Span{
					Trace: j.g.span.Trace, Parent: j.g.span.Span,
					Name: "steal", Start: time.Now().UnixMicro(),
					Job: j.g.spanJob, Task: -1, Arg: int64(victim.id),
				})
			}
			return j, true
		}
		w.stats.failedSteals.Add(1)
	}
	return job{}, false
}

// nextRand is a xorshift64* PRNG; cheap and per-worker so victim selection
// never contends.
func (w *Worker) nextRand() uint64 {
	x := w.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	w.rng = x
	return x * 0x2545F4914F6CDD1D
}
