package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ftdag/internal/block"
	"ftdag/internal/graph"
	obs "ftdag/internal/metrics" // aliased: this file's own type is named metrics
)

// counters is one block of executor counters.
type counters struct {
	computes       atomic.Int64
	computeErrors  atomic.Int64
	recoveries     atomic.Int64
	resets         atomic.Int64
	registrations  atomic.Int64
	notifications  atomic.Int64
	injections     atomic.Int64
	overwriteMarks atomic.Int64
	reinitEnqueues atomic.Int64

	// Selective-replication counters (internal/replica). Shadow computes
	// are deliberately NOT folded into computes: ReexecutedTasks is defined
	// as Computes − Tasks and replication overhead must not masquerade as
	// fault re-execution.
	replicatedTasks atomic.Int64
	shadowComputes  atomic.Int64
	shadowFailures  atomic.Int64
	sdcInjected     atomic.Int64
	sdcDetected     atomic.Int64
	sdcMissed       atomic.Int64

	// Block accesses (Result.Store), counted from what Slot.Read and Write return.
	blockWrites, blockReads, evictions, corruptReads, checksumFailures, missingReads atomic.Int64
}

// countRead counts one Slot.Read that returned err.
func (c *counters) countRead(err error) {
	c.blockReads.Add(1)
	if errors.Is(err, block.ErrCorrupted) {
		c.corruptReads.Add(1)
		if errors.Is(err, block.ErrChecksum) {
			c.checksumFailures.Add(1)
		}
	} else if err != nil {
		c.missingReads.Add(1)
	}
}

// countWrite counts one Slot.Write.
func (c *counters) countWrite(evicted bool) {
	c.blockWrites.Add(1)
	if evicted {
		c.evictions.Add(1)
	}
}

// workerCounters is what an executor keeps per worker — its counters, its
// shards of the two latency histograms and its block free list — on cache
// lines of its own: padded to a multiple of 128 bytes, two lines, because the
// adjacent-line prefetcher pairs them (TestCounterBlocksArePadded holds size
// and addresses to that).
type workerCounters struct {
	counters
	computeLat, recoveryLat obs.HistogramShard
	cache                   block.Cache
	_                       [48]byte
}

// metrics is the counters of an executor that runs tasks on pool workers: one
// block per worker, so that counting a notification, a registration and a
// compute for every task, timing it, and taking and freeing its buffers write
// no cache line another worker writes. A snapshot is the sum of the blocks.
type metrics struct {
	blocks []workerCounters
}

func newMetrics(workers int) metrics { return metrics{blocks: make([]workerCounters, workers)} }

// block returns w's block. Its counters and shards are atomics and its cache
// falls back on the shared list when another call is in it, so sharing a
// block is correct, only slower: a pool larger than the executor was
// configured for wraps around.
func (m *metrics) block(w worker) *workerCounters {
	i := w.id
	if i >= len(m.blocks) {
		i %= len(m.blocks)
	}
	return &m.blocks[i]
}

// at returns the counters w counts in.
func (m *metrics) at(w worker) *counters { return &m.block(w).counters }

// release hands every buffer the blocks' caches hold to the shared list, as
// a run does when it ends, and closes them.
func (m *metrics) release() {
	for i := range m.blocks {
		m.blocks[i].cache.Release()
	}
}

// latency is the sum of the blocks' histogram shards.
func (m *metrics) latency() Latency {
	var l Latency
	for i := range m.blocks {
		m.blocks[i].computeLat.AddTo(&l.Compute)
		m.blocks[i].recoveryLat.AddTo(&l.Recovery)
	}
	return l
}

func (m *metrics) snapshot() Metrics {
	var out Metrics
	for i := range m.blocks {
		m.blocks[i].addTo(&out)
	}
	return out
}

// storeStats is Result.Store: the workers' counts and the store's high water.
func (m *metrics) storeStats(s *block.Store) block.Stats {
	st := block.Stats{BytesRetained: s.BytesRetained()}
	for i := range m.blocks {
		c := &m.blocks[i]
		st.Writes += c.blockWrites.Load()
		st.Reads += c.blockReads.Load()
		st.Evictions += c.evictions.Load()
		st.CorruptReads += c.corruptReads.Load()
		st.ChecksumFailures += c.checksumFailures.Load()
		st.MissingReads += c.missingReads.Load()
	}
	return st
}

// Metrics is an immutable snapshot of one run's executor counters.
type Metrics struct {
	// Computes counts user compute invocations, i.e. Σ_A N(A) in the
	// paper's notation (including executions aborted by an injected
	// after-compute fault).
	Computes int64
	// ComputeErrors counts compute invocations that observed an error
	// (in themselves or a predecessor).
	ComputeErrors int64
	// Recoveries counts task replacements (REPLACETASK calls), i.e. the
	// number of recovery initiations that won the at-most-once race.
	Recoveries int64
	// Resets counts RESETNODE invocations (task reprocessed in place
	// after observing a predecessor failure during compute).
	Resets int64
	// Registrations counts successor enqueues into notify arrays during
	// normal traversal; ReinitEnqueues counts those reconstructed by
	// recovery scans.
	Registrations  int64
	ReinitEnqueues int64
	// Notifications counts join-counter decrements that won their bit.
	Notifications int64
	// InjectionsFired counts faults actually injected.
	InjectionsFired int64
	// OverwriteMarks counts tasks marked overwritten by block eviction.
	OverwriteMarks int64
	// ReplicatedTasks counts primary executions that ran with a shadow
	// replica; ShadowComputes counts the redundant executions themselves
	// (excluded from Computes so ReexecutedTasks stays Computes − Tasks).
	// ShadowFailures counts shadows that errored, degrading that execution
	// to unverified.
	ReplicatedTasks int64
	ShadowComputes  int64
	ShadowFailures  int64
	// SDCInjected counts silent output corruptions fired by the plan;
	// SDCDetected those caught by replica digest comparison; SDCMissed
	// those that struck an unreplicated task (or one whose shadow failed)
	// and went unobserved.
	SDCInjected int64
	SDCDetected int64
	SDCMissed   int64
}

// addTo adds the block's counts to m. Every counter only grows, so the sums
// of successive snapshots taken during a run only grow too.
func (c *counters) addTo(m *Metrics) {
	m.Computes += c.computes.Load()
	m.ComputeErrors += c.computeErrors.Load()
	m.Recoveries += c.recoveries.Load()
	m.Resets += c.resets.Load()
	m.Registrations += c.registrations.Load()
	m.ReinitEnqueues += c.reinitEnqueues.Load()
	m.Notifications += c.notifications.Load()
	m.InjectionsFired += c.injections.Load()
	m.OverwriteMarks += c.overwriteMarks.Load()
	m.ReplicatedTasks += c.replicatedTasks.Load()
	m.ShadowComputes += c.shadowComputes.Load()
	m.ShadowFailures += c.shadowFailures.Load()
	m.SDCInjected += c.sdcInjected.Load()
	m.SDCDetected += c.sdcDetected.Load()
	m.SDCMissed += c.sdcMissed.Load()
}

// Add adds b's counts to m, field by field.
func (m *Metrics) Add(b Metrics) {
	m.Computes += b.Computes
	m.ComputeErrors += b.ComputeErrors
	m.Recoveries += b.Recoveries
	m.Resets += b.Resets
	m.Registrations += b.Registrations
	m.ReinitEnqueues += b.ReinitEnqueues
	m.Notifications += b.Notifications
	m.InjectionsFired += b.InjectionsFired
	m.OverwriteMarks += b.OverwriteMarks
	m.ReplicatedTasks += b.ReplicatedTasks
	m.ShadowComputes += b.ShadowComputes
	m.ShadowFailures += b.ShadowFailures
	m.SDCInjected += b.SDCInjected
	m.SDCDetected += b.SDCDetected
	m.SDCMissed += b.SDCMissed
}

func (m Metrics) String() string {
	s := fmt.Sprintf("computes=%d errors=%d recoveries=%d resets=%d injected=%d overwrites=%d",
		m.Computes, m.ComputeErrors, m.Recoveries, m.Resets, m.InjectionsFired, m.OverwriteMarks)
	if m.ReplicatedTasks > 0 || m.SDCInjected > 0 {
		s += fmt.Sprintf(" replicated=%d shadows=%d sdc=%d/%d/%d",
			m.ReplicatedTasks, m.ShadowComputes, m.SDCInjected, m.SDCDetected, m.SDCMissed)
	}
	return s
}

// hooks are test instrumentation callbacks. They must be safe for
// concurrent use. Nil hooks are skipped.
type hooks struct {
	// onCompute fires before each user compute invocation.
	onCompute func(key graph.Key, life int)
	// onComputed fires after a compute completes without error.
	onComputed func(key graph.Key, life int)
	// onRecover fires when a recovery is initiated (after replaceTask).
	onRecover func(key graph.Key, newLife int)
	// onInject fires in inject between poisoning the descriptor and
	// corrupting the output: it can hold open the window in which another
	// thread recovers the poisoned incarnation.
	onInject func(w worker, key graph.Key, life int)
}
