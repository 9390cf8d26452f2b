// Package bitvec provides a fixed-size atomic bit vector.
//
// The fault-tolerant scheduler associates one bit per predecessor with each
// task's join counter (paper §IV, Guarantee 3). The bit for a predecessor is
// cleared exactly once per notification round via TestAndClear, which makes
// join-counter decrements idempotent across task recoveries: a predecessor
// that notifies again after being recovered finds its bit already cleared and
// does not decrement the counter a second time.
package bitvec

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Vector is a fixed-size vector of bits supporting atomic per-bit
// test-and-clear and a bulk re-set used when a task's bookkeeping is reset
// (RESETNODE in the paper). The first word is part of the Vector itself, so
// a vector of up to 64 bits — a task with up to 63 predecessors — held by
// value inside its owner costs no allocation; longer vectors spill into
// rest, which is a pointer and not a slice so that the vectors that never
// spill — one per task descriptor — carry one word for it, not three. The
// zero value has no bits; use New, or Init on an embedded Vector. A Vector
// must not be copied after Init.
type Vector struct {
	n     int
	first atomic.Uint64
	rest  *[]atomic.Uint64 // words 1.. of vectors longer than wordBits
}

// New returns a vector of n bits, all initially set to 1.
func New(n int) *Vector {
	v := new(Vector)
	v.Init(n)
	return v
}

// Init sizes the vector to n bits, all set to 1. It is for a Vector held by
// value, before the owner is shared.
func (v *Vector) Init(n int) {
	v.n = n
	if n > wordBits {
		rest := make([]atomic.Uint64, (n-1)/wordBits)
		v.rest = &rest
	}
	v.SetAll()
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// words is the number of words in use.
func (v *Vector) words() int { return (v.n + wordBits - 1) / wordBits }

// word returns word w of the vector.
func (v *Vector) word(w int) *atomic.Uint64 {
	if w == 0 {
		return &v.first
	}
	return &(*v.rest)[w-1]
}

// bit returns the word holding bit i and i's mask within it.
func (v *Vector) bit(i int) (*atomic.Uint64, uint64) {
	if i < 0 || i >= v.n {
		panic("bitvec: index out of range")
	}
	return v.word(i / wordBits), uint64(1) << uint(i%wordBits)
}

// SetAll atomically sets every bit in the vector to 1.
// Bits past Len in the final word are left clear so Count stays exact.
func (v *Vector) SetAll() {
	for w, n := 0, v.words(); w < n; w++ {
		mask := ^uint64(0)
		if rem := v.n - w*wordBits; rem < wordBits {
			mask = (uint64(1) << uint(rem)) - 1
		}
		v.word(w).Store(mask)
	}
}

// ClearAll atomically clears every bit.
func (v *Vector) ClearAll() {
	for w, n := 0, v.words(); w < n; w++ {
		v.word(w).Store(0)
	}
}

// TestAndClear atomically clears bit i and reports whether it was previously
// set. It is the ATOMICBITUNSET of the paper: at most one caller per
// set-round observes true for a given bit.
func (v *Vector) TestAndClear(i int) bool {
	w, mask := v.bit(i)
	for {
		old := w.Load()
		if old&mask == 0 {
			return false
		}
		if w.CompareAndSwap(old, old&^mask) {
			return true
		}
	}
}

// Set atomically sets bit i to 1.
func (v *Vector) Set(i int) {
	w, mask := v.bit(i)
	for {
		old := w.Load()
		if old&mask != 0 {
			return
		}
		if w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// IsSet reports whether bit i is currently set.
func (v *Vector) IsSet(i int) bool {
	w, mask := v.bit(i)
	return w.Load()&mask != 0
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for w, n := 0, v.words(); w < n; w++ {
		c += bits.OnesCount64(v.word(w).Load())
	}
	return c
}
