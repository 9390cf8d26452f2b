// Package deque implements the Chase–Lev lock-free work-stealing deque.
//
// Each worker in the scheduling pool owns one deque. The owner pushes and
// pops at the bottom (LIFO, preserving the depth-first execution order that
// the NABBIT analysis assumes), while thieves steal from the top (FIFO,
// taking the shallowest — typically largest — piece of the traversal).
//
// The implementation follows Chase & Lev, "Dynamic Circular Work-Stealing
// Deque" (SPAA 2005) with the memory-ordering corrections of Lê et al.
// (PPoPP 2013), expressed with Go's sequentially-consistent sync/atomic
// operations. The buffer grows geometrically and is never shrunk; stale
// buffers are reclaimed by the garbage collector, which sidesteps the ABA
// and reclamation issues the original C code must handle manually.
package deque

import "sync/atomic"

// ring is an immutable-capacity circular buffer. Slots are published to
// thieves via the atomic top/bottom indices of the owning Deque, but the
// element writes themselves must also be atomic because a thief may read a
// slot concurrently with the owner overwriting it after a grow.
type ring[T any] struct {
	mask int64
	elts []atomic.Pointer[T]
}

func newRing[T any](capacity int64) *ring[T] {
	return &ring[T]{mask: capacity - 1, elts: make([]atomic.Pointer[T], capacity)}
}

func (r *ring[T]) load(i int64) *T     { return r.elts[i&r.mask].Load() }
func (r *ring[T]) store(i int64, v *T) { r.elts[i&r.mask].Store(v) }
func (r *ring[T]) capacity() int64     { return r.mask + 1 }

// grow returns a ring of twice the capacity holding elements [top, bottom).
func (r *ring[T]) grow(top, bottom int64) *ring[T] {
	nr := newRing[T](2 * r.capacity())
	for i := top; i < bottom; i++ {
		nr.store(i, r.load(i))
	}
	return nr
}

// Deque is a single-owner, multi-thief work-stealing deque of *T.
// PushBottom and PopBottom may only be called by the owning goroutine;
// Steal may be called by any goroutine. The zero value is not usable; call
// New.
//
// The owner stores to bottom on every push and pop and reads top and buf
// beside it; thieves write top. Each side has a 128-byte block of its own (two
// lines: the adjacent-line prefetcher pairs them) and the struct fills two,
// so the allocator aligns it to them and no word one worker writes shares a
// block with a word of another worker's deque (sched's TestWorkerLayout).
type Deque[T any] struct {
	top    atomic.Int64
	_      [128 - 8]byte
	bottom atomic.Int64
	buf    atomic.Pointer[ring[T]]
	_      [128 - 16]byte
}

// MinCapacity is the initial ring capacity. It must be a power of two.
const MinCapacity = 32

// New returns an empty deque.
func New[T any]() *Deque[T] {
	d := &Deque[T]{}
	d.buf.Store(newRing[T](MinCapacity))
	return d
}

// PushBottom appends v at the bottom. Owner only.
func (d *Deque[T]) PushBottom(v *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t >= buf.capacity() {
		buf = buf.grow(t, b)
		d.buf.Store(buf)
	}
	buf.store(b, v)
	d.bottom.Store(b + 1)
}

// PopBottom removes and returns the most recently pushed element, or nil if
// the deque is empty. Owner only.
func (d *Deque[T]) PopBottom() *T {
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	switch {
	case t > b:
		// Deque was empty; restore bottom.
		d.bottom.Store(b + 1)
		return nil
	case t == b:
		// Single element: race with thieves via CAS on top.
		v := buf.load(b)
		if !d.top.CompareAndSwap(t, t+1) {
			v = nil // lost the race to a thief
		}
		d.bottom.Store(b + 1)
		return v
	default:
		return buf.load(b)
	}
}

// Steal removes and returns the oldest element, or nil if the deque is empty
// or the steal lost a race (spurious failure; the caller should pick another
// victim). Safe for concurrent use by any number of thieves.
func (d *Deque[T]) Steal() *T {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	buf := d.buf.Load()
	v := buf.load(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return v
}
