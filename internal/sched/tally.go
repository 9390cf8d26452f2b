package sched

import "sync/atomic"

// pair is one writer's share of a quiescence count: the jobs it has added
// and the jobs it has finished, both monotone. It fills two cache lines (the
// adjacent-line prefetcher pairs them), so counting a job writes no line
// another worker writes.
type pair struct {
	added atomic.Int64
	done  atomic.Int64
	_     [128 - 16]byte
}

// tally is a count of outstanding jobs spread over its writers: pair i
// belongs to worker i, the last to every goroutine that is no worker (Submit,
// SpawnAvoiding). A spawn adds to the spawning worker's pair before
// the job becomes visible, a finished or abort-skipped job is counted done in
// the executing worker's after it has run, so Σadded − Σdone never falls
// below the number of jobs outstanding.
type tally []pair

func newTally(workers int) tally { return make(tally, workers+1) }

// external is the pair of the goroutines that are no worker.
func (t tally) external() *pair { return &t[len(t)-1] }

// pending returns Σadded − Σdone with every done read before any added
// (Mattern's counting method). The counters only grow, so with T the instant
// between the two passes, Σdone read ≤ Σdone(T) ≤ Σadded(T) ≤ Σadded read:
// the result is never negative, and zero proves that nothing was outstanding
// at T. With nothing outstanding no job is running, so nothing can spawn,
// and the count stays zero until the next submission from outside.
func (t tally) pending() int64 {
	var n int64
	for i := range t {
		n -= t[i].done.Load()
	}
	for i := range t {
		n += t[i].added.Load()
	}
	return n
}

func (t tally) quiescent() bool { return t.pending() == 0 }
