package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInjectorFIFOOrder pins the fairness contract of external submission:
// submitted jobs are served in submission order under saturation, so under a
// backlog the newest submission never jumps the queue and the oldest never
// starves. A single-worker pool keeps the test deterministic: one consumer of
// the placement list, so the execution order must equal the submission order
// exactly.
func TestInjectorFIFOOrder(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	// Saturate the only worker so every submission queues behind a backlog
	// rather than being picked up as it arrives.
	gate := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func(w *Worker) {
		close(started)
		<-gate
	})
	<-started

	const n = 64
	var mu sync.Mutex
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		p.Submit(func(w *Worker) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	close(gate)
	p.Wait()

	if len(order) != n {
		t.Fatalf("ran %d jobs, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("position %d served job %d: injector is not FIFO (order %v)", i, got, order[:i+1])
		}
	}
}

// TestStealLivenessFanOut is the steal-liveness regression for the parking
// rewrite: a single root fans out work on one deque, and the other workers —
// who start with nothing and immediately park — must be woken and steal it.
// A lost-wakeup bug leaves them parked until Close, which shows up here as
// Steals == 0. The jobs sleep briefly so that even on a single hardware core
// the woken thieves get scheduled while the root's job blocks.
func TestStealLivenessFanOut(t *testing.T) {
	const workers = 4
	const n = 64
	p := NewPool(workers)
	var c atomic.Int64
	start := time.Now()
	p.Submit(func(w *Worker) {
		for i := 0; i < n; i++ {
			w.Spawn(func(w *Worker) {
				time.Sleep(200 * time.Microsecond)
				c.Add(1)
			})
		}
	})
	p.Wait()
	elapsed := time.Since(start)
	stats := p.StatsSnapshot()
	p.Close()

	if c.Load() != n {
		t.Fatalf("ran %d, want %d", c.Load(), n)
	}
	// All spawned work sat on the root's deque; any job executed by another
	// worker was necessarily stolen. Require real participation, not a lucky
	// single grab.
	if stats.Steals < workers-1 {
		t.Fatalf("Steals = %d, want >= %d (thieves not woken?); stats %v",
			stats.Steals, workers-1, stats)
	}
	// Idle accounting must be bounded by wall clock per worker. Under the
	// old sleep backoff, bookkeeping drift could overshoot; with parking,
	// accrued idle is the time actually spent blocked.
	if stats.IdleTime > time.Duration(workers)*elapsed {
		t.Fatalf("IdleTime %v exceeds %d workers x %v elapsed", stats.IdleTime, workers, elapsed)
	}
}

// TestSubmitWakesParkedWorkers verifies the publish-then-recheck handshake
// end-to-end: with the whole pool parked (quiescent), a Submit must wake a
// worker promptly rather than waiting out a poll interval.
func TestSubmitWakesParkedWorkers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Quiesce once so every worker has been through the park path.
	p.Submit(func(w *Worker) {})
	p.Wait()
	time.Sleep(10 * time.Millisecond) // let all workers actually park
	for i := 0; i < 100; i++ {
		done := make(chan struct{})
		start := time.Now()
		p.Submit(func(w *Worker) { close(done) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: submitted job not picked up after %v with all workers parked",
				i, time.Since(start))
		}
		p.Wait()
	}
}

// TestInjectorBacklog queues a backlog of submissions behind a held worker and
// checks none are lost.
func TestInjectorBacklog(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func(w *Worker) {
		close(started)
		<-gate
	})
	<-started
	const n = 1536
	var c atomic.Int64
	for i := 0; i < n; i++ {
		p.Submit(func(w *Worker) { c.Add(1) })
	}
	close(gate)
	p.Wait()
	if got := c.Load(); got != int64(n) {
		t.Fatalf("ran %d jobs, want %d (the backlog lost work)", got, n)
	}
}

// BenchmarkSpawnExecute measures the steady-state spawn→execute cycle — the
// path the 0 allocs/op acceptance gate covers. Unlike BenchmarkSpawnOverhead
// (a pure burst, where the free-list can never recycle because nothing has
// executed yet), this chains each job to spawn its successor, so slots cycle
// through execute→recycle→spawn and the free-list absorbs every allocation
// after warm-up.
func BenchmarkSpawnExecute(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	done := make(chan struct{})
	n := 0
	var f Func
	f = func(w *Worker) {
		if n < b.N {
			n++
			w.Spawn(f)
			return
		}
		close(done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	p.Submit(f)
	<-done
	p.Wait()
}

// BenchmarkSubmitThroughput measures the external submission path (an append
// to the placement list under its lock, a wake check, a worker's take) under a
// single producer.
func BenchmarkSubmitThroughput(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	var c atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func(w *Worker) { c.Add(1) })
	}
	p.Wait()
}
