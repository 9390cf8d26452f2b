package sched

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
