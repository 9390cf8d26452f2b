package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const groupTestTimeout = 30 * time.Second

// TestGroupIsolatedQuiescence: two groups on one pool reach quiescence
// independently — each Wait sees exactly its own spawn tree.
func TestGroupIsolatedQuiescence(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	var fast, slow atomic.Int64
	slowGate := make(chan struct{})

	gSlow := pool.NewGroup()
	gSlow.Submit(func(w *Worker) {
		<-slowGate
		slow.Add(1)
	})
	gFast := pool.NewGroup()
	for i := 0; i < 8; i++ {
		gFast.Submit(func(w *Worker) {
			gFast.Spawn(w, func(w *Worker) { fast.Add(1) })
			fast.Add(1)
		})
	}
	if !gFast.WaitTimeout(groupTestTimeout) {
		t.Fatal("fast group did not quiesce while slow group was blocked")
	}
	if got := fast.Load(); got != 16 {
		t.Fatalf("fast group ran %d jobs, want 16", got)
	}
	if slow.Load() != 0 {
		t.Fatal("slow group ran before its gate opened")
	}
	close(slowGate)
	if !gSlow.WaitTimeout(groupTestTimeout) {
		t.Fatal("slow group did not quiesce")
	}
	if got := slow.Load(); got != 1 {
		t.Fatalf("slow group ran %d jobs, want 1", got)
	}
}

// TestGroupAbortIsLocalized: aborting a group returns its Wait while its
// root job still runs, and turns its queued jobs into no-ops that are still
// counted done; a sibling group on the same pool runs to completion, and the
// pool still drains and closes. The queued jobs are spawned to the root's
// deque, or placed on the pool's placement list (SpawnAvoiding), as shadow
// replicas are. On one worker every queued job of the aborted group is
// skipped; on two another worker may run some of them before the abort.
func TestGroupAbortIsLocalized(t *testing.T) {
	for _, c := range []struct {
		workers int
		placed  bool
	}{{1, false}, {2, false}, {1, true}, {2, true}} {
		workers := c.workers
		pool := NewPool(workers)
		var aborted, survivor atomic.Int64

		gA := pool.NewGroup()
		gB := pool.NewGroup()
		spawned, gate := make(chan struct{}), make(chan struct{})
		spawn := gA.Spawn
		if c.placed {
			spawn = gA.SpawnAvoiding
		}
		gA.Submit(func(w *Worker) {
			for i := 0; i < 64; i++ {
				spawn(w, func(w *Worker) { aborted.Add(1) })
			}
			close(spawned)
			<-gate // hold the worker so the spawns sit in the deque or the list
		})
		<-spawned
		for i := 0; i < 32; i++ {
			gB.Submit(func(w *Worker) { survivor.Add(1) })
		}
		gA.Abort()
		if !gA.WaitTimeout(groupTestTimeout) {
			t.Fatalf("P=%d placed=%v: aborted group's Wait did not return while its root job ran", workers, c.placed)
		}
		close(gate)
		if !gB.WaitTimeout(groupTestTimeout) {
			t.Fatalf("P=%d placed=%v: survivor group did not quiesce after sibling abort", workers, c.placed)
		}
		if got := survivor.Load(); got != 32 {
			t.Fatalf("P=%d placed=%v: survivor group ran %d jobs, want 32", workers, c.placed, got)
		}
		// The pool itself must still drain: aborted-group functions no-op but
		// are still accounted, so Close must not hang.
		done := make(chan Stats, 1)
		go func() { done <- pool.Close() }()
		select {
		case <-done:
		case <-time.After(groupTestTimeout):
			t.Fatalf("P=%d placed=%v: pool did not drain after group abort", workers, c.placed)
		}
		waitDrained(t, gA)
		var counted int64
		for i := range gA.tally {
			counted += gA.tally[i].done.Load()
		}
		if counted != 65 {
			t.Fatalf("P=%d placed=%v: aborted group counted %d jobs done, want its root and 64 spawns", workers, c.placed, counted)
		}
		if ran := aborted.Load(); workers == 1 && ran != 0 {
			t.Fatalf("P=1 placed=%v: %d queued jobs of the aborted group ran", c.placed, ran)
		}
		if !gA.Aborted() {
			t.Fatal("Aborted() = false after Abort")
		}
	}
}

// TestPoolReuseAcrossJobs is the pattern the multi-job service depends on:
// one pool serving many consecutive (and concurrent) Submit+Wait cycles
// without teardown, with stats accumulating monotonically.
func TestPoolReuseAcrossJobs(t *testing.T) {
	pool := NewPool(3)
	var total atomic.Int64
	for cycle := 0; cycle < 50; cycle++ {
		g := pool.NewGroup()
		for i := 0; i < 10; i++ {
			g.Submit(func(w *Worker) {
				g.Spawn(w, func(w *Worker) { total.Add(1) })
			})
		}
		if !g.WaitTimeout(groupTestTimeout) {
			t.Fatalf("cycle %d did not quiesce", cycle)
		}
		if g.Pending() != 0 {
			t.Fatalf("cycle %d: pending = %d after Wait", cycle, g.Pending())
		}
	}
	if got := total.Load(); got != 500 {
		t.Fatalf("ran %d spawned jobs across cycles, want 500", got)
	}
	snap := pool.StatsSnapshot()
	if snap.Jobs < 1000 {
		t.Fatalf("snapshot jobs = %d, want >= 1000", snap.Jobs)
	}
	if final := pool.Close(); final.Jobs < snap.Jobs {
		t.Fatalf("Close jobs %d < snapshot jobs %d", final.Jobs, snap.Jobs)
	}
}

// TestPoolReuseSubmitWaitCycles exercises bare Pool.Submit+Wait reuse (no
// groups), the minimal long-lived-pool contract.
func TestPoolReuseSubmitWaitCycles(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var n atomic.Int64
	for cycle := 0; cycle < 100; cycle++ {
		pool.Submit(func(w *Worker) { n.Add(1) })
		pool.Wait()
		if got := n.Load(); got != int64(cycle+1) {
			t.Fatalf("after cycle %d: ran %d jobs", cycle, got)
		}
	}
}

// TestAbortRacesSubmitAndSpawn hammers a group's Abort against concurrent
// external Submits to it and Spawns from its running jobs: no deadlock, no
// panic, and the group's Wait and the pool's Close return promptly whoever
// wins the race.
func TestAbortRacesSubmitAndSpawn(t *testing.T) {
	for round := 0; round < 20; round++ {
		pool := NewPool(4)
		g := pool.NewGroup()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Submitters race the abort from outside.
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					g.Submit(func(w *Worker) {
						// Spawners race the abort from inside.
						g.Spawn(w, func(w *Worker) {})
					})
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
		g.Abort()
		if !g.WaitTimeout(groupTestTimeout) {
			t.Fatal("group Wait hung after Abort racing Submit/Spawn")
		}
		close(stop)
		wg.Wait()
		done := make(chan Stats, 1)
		go func() { done <- pool.Close() }()
		select {
		case <-done:
		case <-time.After(groupTestTimeout):
			t.Fatal("pool close hung after a group abort raced Submit/Spawn")
		}
	}
}

// TestGroupAbortRacesSpawn: aborting a group mid-fan-out never hangs the
// group or the pool, and never executes work after Wait has observed the
// abort and the group has drained.
func TestGroupAbortRacesSpawn(t *testing.T) {
	for round := 0; round < 20; round++ {
		pool := NewPool(4)
		g := pool.NewGroup()
		var executed atomic.Int64
		g.Submit(func(w *Worker) {
			var rec func(w *Worker, depth int)
			rec = func(w *Worker, depth int) {
				executed.Add(1)
				if depth == 0 {
					return
				}
				for i := 0; i < 3; i++ {
					g.Spawn(w, func(w *Worker) { rec(w, depth-1) })
				}
			}
			rec(w, 6)
		})
		time.Sleep(time.Duration(round%3) * 50 * time.Microsecond)
		g.Abort()
		g.Wait()
		done := make(chan Stats, 1)
		go func() { done <- pool.Close() }()
		select {
		case <-done:
		case <-time.After(groupTestTimeout):
			t.Fatal("pool close hung after group abort race")
		}
	}
}

// TestStatsSnapshotConcurrent reads pool statistics while workers are busy;
// run under -race this verifies snapshotting a live pool is safe.
func TestStatsSnapshotConcurrent(t *testing.T) {
	pool := NewPool(4)
	g := pool.NewGroup()
	for i := 0; i < 200; i++ {
		g.Submit(func(w *Worker) {
			g.Spawn(w, func(w *Worker) {})
		})
	}
	for i := 0; i < 50; i++ {
		_ = pool.StatsSnapshot()
	}
	g.Wait()
	if s := pool.Close(); s.Jobs < 400 {
		t.Fatalf("jobs = %d, want >= 400", s.Jobs)
	}
}

// TestBusyTimeIsCurrent: a worker held in one long job never parks, yet a
// snapshot taken during the job counts the time it has run so far, and
// successive snapshots never go down — across the park that follows too.
func TestBusyTimeIsCurrent(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	pool.Submit(func(*Worker) {
		close(started)
		<-gate
	})
	<-started
	const held = 20 * time.Millisecond
	time.Sleep(held)
	last := pool.StatsSnapshot().BusyTime
	if last < held {
		t.Fatalf("busy time %v while the worker has run one job for %v", last, held)
	}
	close(gate)
	for deadline := time.Now().Add(groupTestTimeout); pool.StatsSnapshot().Parks == 0; time.Sleep(time.Millisecond) {
		if now := pool.StatsSnapshot().BusyTime; now < last {
			t.Fatalf("busy time went down from %v to %v", last, now)
		} else {
			last = now
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never parked")
		}
	}
	for range 3 {
		if now := pool.StatsSnapshot().BusyTime; now < last {
			t.Fatalf("busy time went down from %v to %v across a park", last, now)
		} else {
			last = now
		}
	}
}
