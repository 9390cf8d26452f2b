package sched

// ExternalAdded exposes, to the tests outside the package, how many jobs have
// been added to the pool's pair of the goroutines that are no worker.
func (p *Pool) ExternalAdded() int64 { return p.tally.external().added.Load() }
