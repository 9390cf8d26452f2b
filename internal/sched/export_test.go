package sched

import "time"

// Pairs exposes, to the tests outside the package, the pool's tally: what its
// workers' pairs have counted, summed, and what its pair of the goroutines
// that are no worker has.
func (p *Pool) Pairs() (workerAdded, workerDone, externalAdded, externalDone int64) {
	for i := range p.tally[:len(p.workers)] {
		workerAdded += p.tally[i].added.Load()
		workerDone += p.tally[i].done.Load()
	}
	return workerAdded, workerDone, p.tally.external().added.Load(), p.tally.external().done.Load()
}

// Spawn is SpawnRunner for a Func.
func (g *Group) Spawn(w *Worker, f Func) { g.SpawnRunner(w, f, 0) }

// Pending returns the group's outstanding job count (scheduled but not yet
// finished or skipped). Mid-run it may count a job that finished during the
// call; it is zero once Wait has returned from quiescence, and once Pool.Wait
// has returned.
func (g *Group) Pending() int64 { return g.tally.pending() }

// Run executes root on a fresh pool of p workers, waits for quiescence, and
// returns the stats.
func Run(p int, root Func) Stats {
	pool := NewPool(p)
	pool.Submit(root)
	return pool.Close()
}

// WaitTimeout is Wait with a deadline; it reports whether quiescence was
// reached.
func (p *Pool) WaitTimeout(d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		p.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// WaitTimeout is Wait with a deadline; it reports whether the group reached
// quiescence (or abort) in time.
func (g *Group) WaitTimeout(d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		g.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
