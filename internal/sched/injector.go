package sched

import "sync/atomic"

// Sharded external-submission queue ("injector").
//
// The original injector was a single mutex-guarded slice popped LIFO: every
// Submit serialized on one lock, every idle worker contended for the same
// cache line, and the newest submission was served first (inflating tail
// sojourn for early jobs: bench/'s service_durable workload reports it as
// service.done_p95_ms). The replacement is one bounded MPMC ring per worker:
// Submit round-robins across shards, each worker drains its own shard first
// and scans the others only after a failed steal pass, so the common case is
// an uncontended ring operation and service order within a shard is strictly
// FIFO.
//
// Each ring is a Vyukov bounded MPMC queue: a power-of-two slot array where
// every slot carries a sequence number that encodes, relative to the
// enqueue/dequeue cursors, whether the slot is free, full, or in transit.
// Producers claim a slot by CAS on the tail cursor, write the payload, and
// publish it by storing seq = tail+1; consumers symmetrically claim via the
// head cursor and release the slot for the next lap with seq = head+cap.
// The payload write is a plain store ordered by the seq atomics
// (store-release / load-acquire pairs), so enqueue and dequeue are one CAS
// plus two uncontended atomic ops each — no locks, no allocation.
//
// When every ring is full the job goes to a mutex-guarded overflow queue.
// Overflow is strictly an overload relief valve: it preserves FIFO order
// among overflow entries but jobs admitted to rings after an overflow spill
// may be served first. Admission control above the pool (service layer)
// keeps the queues short enough that overflow is cold in practice.

// injRingCap is the per-shard ring capacity. Must be a power of two. At 512
// slots × P shards the injector absorbs bursts far beyond the service
// layer's admission bound before touching the overflow lock.
const injRingCap = 512

// injSlot is one ring slot. j is written by the producer that claimed the
// slot and read by the consumer that claimed it; the seq atomic publishes
// the hand-off in both directions.
type injSlot struct {
	seq atomic.Uint64
	j   job
}

// injRing is one bounded MPMC shard.
type injRing struct {
	head  atomic.Uint64 // dequeue cursor
	_     [56]byte      // keep producers and consumers off each other's line
	tail  atomic.Uint64 // enqueue cursor
	_     [56]byte
	mask  uint64
	slots []injSlot
}

func newInjRing() *injRing {
	r := &injRing{mask: injRingCap - 1, slots: make([]injSlot, injRingCap)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// enqueue publishes j into the ring; it reports false when the ring is full
// (including the transient case where a lapped slot's consumer has claimed
// but not yet released it — the caller falls through to the next shard).
func (r *injRing) enqueue(j job) bool {
	for {
		t := r.tail.Load()
		s := &r.slots[t&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == t: // slot free for this lap: claim it
			if r.tail.CompareAndSwap(t, t+1) {
				s.j = j
				s.seq.Store(t + 1)
				return true
			}
		case seq < t: // previous lap's payload still in the slot
			return false
		default: // another producer claimed t; reload the cursor
		}
	}
}

// dequeue removes the oldest published job, reporting false when the ring
// is empty (or its head slot is claimed but not yet published).
func (r *injRing) dequeue() (job, bool) {
	for {
		h := r.head.Load()
		s := &r.slots[h&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == h+1: // slot published for this lap: claim it
			if r.head.CompareAndSwap(h, h+1) {
				j := s.j
				s.j = job{}
				s.seq.Store(h + r.mask + 1)
				return j, true
			}
		case seq < h+1: // slot not yet published: ring empty at head
			return job{}, false
		default: // another consumer claimed h; reload the cursor
		}
	}
}
