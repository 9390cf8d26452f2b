package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRunSingleJob(t *testing.T) {
	var ran atomic.Bool
	stats := Run(1, func(w *Worker) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("submitted job did not run")
	}
	if stats.Jobs != 1 {
		t.Fatalf("Jobs = %d, want 1", stats.Jobs)
	}
}

func TestSpawnFanOut(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		var count atomic.Int64
		const n = 1000
		stats := Run(p, func(w *Worker) {
			for i := 0; i < n; i++ {
				w.Spawn(func(w *Worker) { count.Add(1) })
			}
		})
		if count.Load() != n {
			t.Fatalf("P=%d: ran %d spawned jobs, want %d", p, count.Load(), n)
		}
		if stats.Jobs != n+1 {
			t.Fatalf("P=%d: Jobs = %d, want %d", p, stats.Jobs, n+1)
		}
	}
}

// fib exercises deep recursive spawning with a join protocol built from
// atomic counters, the same shape the task-graph executors use.
func TestRecursiveSpawnFib(t *testing.T) {
	const n = 18
	want := seqFib(n)
	for _, p := range []int{1, 3, 7} {
		var result atomic.Int64
		Run(p, func(w *Worker) { fib(w, n, &result) })
		if result.Load() != want {
			t.Fatalf("P=%d: fib(%d) = %d, want %d", p, n, result.Load(), want)
		}
	}
}

func fib(w *Worker, n int, out *atomic.Int64) {
	if n < 2 {
		out.Add(int64(n))
		return
	}
	w.Spawn(func(w *Worker) { fib(w, n-1, out) })
	fib(w, n-2, out)
}

func seqFib(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	a, b := int64(0), int64(1)
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

func TestWaitThenReuse(t *testing.T) {
	p := NewPool(2)
	var c atomic.Int64
	p.Submit(func(w *Worker) { c.Add(1) })
	p.Wait()
	if c.Load() != 1 {
		t.Fatalf("after first Wait: %d jobs, want 1", c.Load())
	}
	// The pool must accept further rounds of work after quiescing.
	for round := 0; round < 5; round++ {
		p.Submit(func(w *Worker) {
			c.Add(1)
			w.Spawn(func(w *Worker) { c.Add(1) })
		})
		p.Wait()
	}
	if c.Load() != 11 {
		t.Fatalf("after rounds: %d jobs, want 11", c.Load())
	}
	p.Close()
}

func TestWaitTimeout(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	p.Submit(func(w *Worker) { <-release })
	if p.WaitTimeout(30 * time.Millisecond) {
		t.Fatal("WaitTimeout returned true while a job was blocked")
	}
	close(release)
	if !p.WaitTimeout(5 * time.Second) {
		t.Fatal("WaitTimeout returned false after the job unblocked")
	}
	p.Close()
}

// TestStealsHappen: the root job fills its own deque and then sleeps without
// popping, so the spawned tasks can only complete via steals by the other
// workers — and they must all be stolen while the root sleeps. This holds
// even on a single hardware core, because the root's sleep yields the
// processor. A thief parks only after a pass over every other deque found
// nothing; when its pass was n random draws, it missed the one busy deque
// about a third of the time at P = 4 and parked, nothing woke it, and the
// rest waited for the root to give up.
func TestStealsHappen(t *testing.T) {
	const n = 100
	var c, stolen atomic.Int64
	stats := Run(4, func(w *Worker) {
		for i := 0; i < n; i++ {
			w.Spawn(func(w *Worker) { c.Add(1) })
		}
		deadline := time.Now().Add(2 * time.Second)
		for c.Load() < n && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		stolen.Store(c.Load())
	})
	if got := stolen.Load(); got != n {
		t.Fatalf("the thieves ran %d of %d jobs in the 2 s the owner slept", got, n)
	}
	if stats.Steals == 0 {
		t.Fatalf("expected steals with a parked owner, got stats %v", stats)
	}
}

func TestCloseAggregatesStats(t *testing.T) {
	p := NewPool(3)
	for i := 0; i < 10; i++ {
		p.Submit(func(w *Worker) {
			w.Spawn(func(w *Worker) {})
		})
	}
	stats := p.Close()
	if stats.Jobs != 20 {
		t.Fatalf("Jobs = %d, want 20", stats.Jobs)
	}
	if stats.Spawns != 10 {
		t.Fatalf("Spawns = %d, want 10", stats.Spawns)
	}
	if stats.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestPoolSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) should panic")
		}
	}()
	NewPool(0)
}

func TestManyWorkersSmallWork(t *testing.T) {
	// More workers than work: everything must still drain.
	var c atomic.Int64
	Run(16, func(w *Worker) { c.Add(1) })
	if c.Load() != 1 {
		t.Fatalf("ran %d, want 1", c.Load())
	}
}

func BenchmarkSpawnOverhead(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	p.Submit(func(w *Worker) {
		for i := 0; i < b.N; i++ {
			w.Spawn(func(w *Worker) {})
		}
	})
	p.Wait()
}

// TestSpawnCycleAllocatesNothing: the steady-state spawn→execute cycle — each
// job takes its slot from the worker's free-list and the executing worker
// recycles it — touches no allocator. Exact, because one allocation here
// multiplies across every task-graph edge. The job chains to its successor
// rather than bursting: a burst never recycles a slot.
func TestSpawnCycleAllocatesNothing(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	n := 0
	var f Func
	f = func(w *Worker) {
		if n++; n < 1000 {
			w.Spawn(f)
		}
	}
	run := func() {
		n = 0
		p.Submit(f)
		p.Wait()
	}
	run() // fill the slot free-list
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("1000 Spawn cycles allocated %v times, want 0", allocs)
	}
}

// countdown is a Runner whose job is a value: each run records its argument
// and respawns itself with the next one down.
type countdown struct {
	g    *Group // nil: spawn on the worker directly
	seen []int
}

func (c *countdown) Run(w *Worker, arg int) {
	c.seen = append(c.seen, arg)
	switch {
	case arg == 0:
	case c.g != nil:
		c.g.SpawnRunner(w, c, arg-1)
	default:
		w.SpawnRunner(c, arg-1)
	}
}

// TestSpawnRunner: a Runner spawned with an argument runs with it, directly on
// a worker and through a group (counted toward the group's quiescence, skipped
// after its abort), and the spawn→execute cycle of a pointer Runner allocates
// nothing — which is the reason the type exists.
func TestSpawnRunner(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	for _, grouped := range []bool{false, true} {
		c := &countdown{seen: make([]int, 0, 8)}
		if grouped {
			c.g = p.NewGroup()
			c.g.Submit(func(w *Worker) { c.g.SpawnRunner(w, c, 5) })
			c.g.Wait()
		} else {
			p.Submit(func(w *Worker) { w.SpawnRunner(c, 5) })
			p.Wait()
		}
		if len(c.seen) != 6 || c.seen[0] != 5 || c.seen[5] != 0 {
			t.Fatalf("grouped=%v: ran with arguments %v, want 5 down to 0", grouped, c.seen)
		}
	}

	g := p.NewGroup()
	c := &countdown{g: g}
	g.Submit(func(w *Worker) {
		g.Abort()
		g.SpawnRunner(w, c, 3)
	})
	p.Wait()
	waitDrained(t, g)
	if len(c.seen) != 0 {
		t.Fatalf("aborted group ran %v; want nothing run", c.seen)
	}

	c = &countdown{g: p.NewGroup(), seen: make([]int, 0, 1<<12)}
	run := func() {
		c.seen = c.seen[:0]
		c.g.Submit(func(w *Worker) { c.g.SpawnRunner(w, c, 1000) })
		c.g.Wait()
	}
	run() // fill the slot free-list
	// The Submit closure is the one allocation; 1000 spawns add none.
	if allocs := testing.AllocsPerRun(10, run); allocs > 2 {
		t.Fatalf("1000 SpawnRunner cycles allocated %v times, want the Submit closure only", allocs)
	}
}
