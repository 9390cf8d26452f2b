package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftdag/internal/metrics"
)

// TestSpawnAvoidingNeverRunsOnAvoided: a placed job runs on some worker other
// than the one that placed it, through a group and through the nil group.
func TestSpawnAvoidingNeverRunsOnAvoided(t *testing.T) {
	for _, workers := range []int{2, 3, 4} {
		for _, grouped := range []bool{true, false} {
			t.Run(fmt.Sprintf("P=%d/grouped=%v", workers, grouped), func(t *testing.T) {
				p := NewPool(workers)
				defer p.Close()
				var g *Group
				submit, wait := p.Submit, p.WaitTimeout
				if grouped {
					g = p.NewGroup()
					submit, wait = g.Submit, g.WaitTimeout
				}
				var ran, violations atomic.Int64
				for i := 0; i < 64; i++ {
					submit(func(w *Worker) {
						avoid := w.ID()
						g.SpawnAvoiding(w, func(w2 *Worker) {
							if w2.ID() == avoid {
								violations.Add(1)
							}
							ran.Add(1)
						})
					})
				}
				if !wait(groupTestTimeout) {
					t.Fatal("placed jobs did not drain")
				}
				if n := ran.Load(); n != 64 {
					t.Fatalf("%d of 64 placed jobs ran", n)
				}
				if n := violations.Load(); n != 0 {
					t.Fatalf("%d placed jobs ran on the avoided worker", n)
				}
			})
		}
	}
}

// TestSpawnAvoidingSingleWorkerRunsOnWorker0: with no other worker, the
// placed job runs on worker 0, the one it avoids.
func TestSpawnAvoidingSingleWorkerRunsOnWorker0(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var on atomic.Int64
	on.Store(-1)
	p.Submit(func(w *Worker) {
		(*Group)(nil).SpawnAvoiding(w, func(w2 *Worker) { on.Store(int64(w2.ID())) })
	})
	if !p.WaitTimeout(groupTestTimeout) {
		t.Fatal("pool did not drain")
	}
	if id := on.Load(); id != 0 {
		t.Fatalf("placed job ran on worker %d, want 0", id)
	}
}

func TestGroupSpawnAvoidingCountsTowardGroup(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	g := p.NewGroup()
	var mu sync.Mutex
	order := []string{}
	g.Submit(func(w *Worker) {
		g.SpawnAvoiding(w, func(w2 *Worker) {
			mu.Lock()
			order = append(order, "shadow")
			mu.Unlock()
		})
		mu.Lock()
		order = append(order, "primary")
		mu.Unlock()
	})
	g.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 {
		t.Fatalf("group quiesced with %d/2 jobs done", len(order))
	}
}

// holdWorker submits a job that holds the worker it lands on until the
// returned gate is closed, and returns that worker's id once the job runs.
func holdWorker(p *Pool) (id int, gate chan struct{}) {
	gate = make(chan struct{})
	held := make(chan int)
	p.Submit(func(w *Worker) {
		held <- w.ID()
		<-gate
	})
	return <-held, gate
}

// TestSpawnAvoidingDoesNotWaitForAHeldWorker: a worker held by another
// tenant's long job delays no placed job while other workers are free. Eight
// jobs placed from a group job must all run, on the two workers that are
// neither held nor avoided, before the held worker is let go.
func TestSpawnAvoidingDoesNotWaitForAHeldWorker(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	heldID, gate := holdWorker(p)
	defer close(gate)
	g := p.NewGroup()
	var ran atomic.Int64
	wrong := make(chan string, 16)
	g.Submit(func(w *Worker) {
		avoid := w.ID()
		for i := 0; i < 8; i++ {
			g.SpawnAvoiding(w, func(w2 *Worker) {
				if id := w2.ID(); id == avoid || id == heldID {
					wrong <- fmt.Sprintf("worker %d (avoided %d, held %d)", id, avoid, heldID)
				}
				ran.Add(1)
			})
		}
	})
	if !g.WaitTimeout(2 * time.Second) {
		t.Fatalf("%d of 8 placed jobs ran within 2s while worker %d was held", ran.Load(), heldID)
	}
	select {
	case where := <-wrong:
		t.Fatalf("a placed job ran on %s", where)
	default:
	}
}

// TestSpawnAvoidingParksWhenOnlyItsOwn: a worker whose only pending job
// avoids it finds no work and parks; it neither spins nor hands the job on.
// With the other worker held, its parks and busy time stay where they were
// for as long as the hold lasts, and the placed job runs on the held worker
// once it is let go.
func TestSpawnAvoidingParksWhenOnlyItsOwn(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	heldID, gate := holdWorker(p)
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	other := p.workers[1-heldID]
	g := p.NewGroup()
	ranOn := make(chan int, 1)
	placed := make(chan int64, 1)
	g.Submit(func(w *Worker) {
		g.SpawnAvoiding(w, func(w2 *Worker) { ranOn <- w2.ID() })
		placed <- w.stats.parks.Load()
	})
	// Let the other worker run out of work and park.
	before := <-placed
	for deadline := time.Now().Add(groupTestTimeout); other.stats.parks.Load() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker left with only a job that avoids it never parked")
		}
	}
	parks := other.stats.parks.Load()
	busy := other.stats.busyAt(p.since(time.Now()))
	const hold = 200 * time.Millisecond
	time.Sleep(hold)
	if n := other.stats.parks.Load() - parks; n > 1 {
		t.Errorf("worker %d parked %d more times while the other was held", other.id, n)
	}
	if d := other.stats.busyAt(p.since(time.Now())) - busy; d > hold/4 {
		t.Errorf("worker %d was awake %v of a %v hold", other.id, d, hold)
	}
	select {
	case id := <-ranOn:
		t.Fatalf("the placed job ran on worker %d while the other was held", id)
	default:
	}
	release()
	if !g.WaitTimeout(groupTestTimeout) {
		t.Fatal("group did not quiesce after the hold ended")
	}
	if id := <-ranOn; id != heldID {
		t.Fatalf("the placed job ran on worker %d, want the once-held %d", id, heldID)
	}
}

// TestSpawnAvoidingWakesPastTheAvoided: park leaves a worker whose recheck
// found work on the parked stack, so the worker a job avoids can be the one a
// wake would pop. The placement must wake another parked worker instead of
// handing the token to the one that may not run the job.
func TestSpawnAvoidingWakesPastTheAvoided(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	gate := make(chan struct{})
	defer close(gate)
	ranOn := make(chan int, 1)
	p.Submit(func(w *Worker) {
		other := p.workers[1-w.id]
		for other.stats.parks.Load() == 0 || !other.onStack.Load() {
			time.Sleep(time.Millisecond)
		}
		p.pushParked(w) // as park leaves it: on the stack, running
		(*Group)(nil).SpawnAvoiding(w, func(w2 *Worker) { ranOn <- w2.ID() })
		<-gate
	})
	select {
	case <-ranOn:
	case <-time.After(2 * time.Second):
		p.wakeAll() // so that Close can drain the stranded job
		t.Fatal("the placed job waited for the worker it avoids while the other was parked")
	}
}

// TestSubmitBehindASkippedEntry: a submission queued behind an entry its taker
// must skip still runs. With one of two workers held, the free worker places
// a job that avoids itself at the head of the list and submits one behind it:
// it must take the submission past the head, not park until the held worker
// clears the head.
func TestSubmitBehindASkippedEntry(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	heldID, gate := holdWorker(p)
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	ranOn := make(chan int, 1)
	p.Submit(func(w *Worker) {
		(*Group)(nil).SpawnAvoiding(w, func(*Worker) {})
		p.Submit(func(w2 *Worker) { ranOn <- w2.ID() })
	})
	select {
	case id := <-ranOn:
		if id != 1-heldID {
			t.Fatalf("the submission ran on worker %d, want the free worker %d", id, 1-heldID)
		}
	case <-time.After(2 * time.Second):
		release()
		t.Fatal("the submission behind an entry that avoids the free worker did not run while the other was held")
	}
	release()
	if !p.WaitTimeout(groupTestTimeout) {
		t.Fatal("pool did not drain")
	}
}

// TestPlacementListInstruments: the instruments read the one list. Every take
// from it is a hit, submissions and placed jobs alike; its depth is zero once
// the pool is idle; and the queue-wait histogram samples the submissions
// alone, which are the entries stamped.
func TestPlacementListInstruments(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	reg := metrics.NewRegistry()
	p.Observe(reg)
	g := p.NewGroup()
	const n, m = 16, 10 // submissions, placed jobs
	for i := 0; i < n; i++ {
		submit := p.Submit
		if i%2 == 1 {
			submit = g.Submit
		}
		place := i < m
		submit(func(w *Worker) {
			if place {
				g.SpawnAvoiding(w, func(*Worker) {})
			}
		})
	}
	p.Wait()
	if hits := p.StatsSnapshot().InjectorHits; hits != n+m {
		t.Errorf("Stats.InjectorHits = %d, want %d submissions + %d placed jobs", hits, n, m)
	}
	for name, want := range map[string]float64{
		"ftdag_injector_hits_total":      n + m,
		"ftdag_injector_depth":           0,
		"ftdag_queue_wait_seconds_count": n,
	} {
		if got, ok := reg.Value(name); !ok || got != want {
			t.Errorf("%s = %v (registered %v), want %v", name, got, ok, want)
		}
	}
}
