// Package bitvec provides a fixed-size atomic bit vector.
//
// The fault-tolerant scheduler gives each task one bit per predecessor plus
// one for itself (paper §IV, Guarantee 3). The bit for a predecessor is
// cleared at most once per notification round, which makes notifications
// idempotent across task recoveries: a predecessor that notifies again after
// being recovered finds its bit already cleared. The vector is also the join
// counter: the clear that empties it is the last notification of the round,
// and Clear says so.
package bitvec

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Vector is a fixed-size vector of bits supporting atomic per-bit clear and a
// bulk re-set used when a task's bookkeeping is reset (RESETNODE in the
// paper). The first word is part of the Vector itself, so a vector of up to 64
// bits — a task with up to 63 predecessors — held by value inside its owner
// costs no allocation, and the clear that takes that word to zero is the
// vector's last: one compare-and-swap is both the bit and the join. Longer
// vectors spill into rest, a pointer and not a slice so that the vectors that
// never spill — one per task descriptor — carry one word for it, not three;
// the spill also counts the vector's non-zero words. The zero value has no
// bits; use New, or Init on an embedded Vector. A Vector must not be copied
// after Init.
type Vector struct {
	n     int
	first atomic.Uint64
	rest  *spill
}

// spill is what a vector longer than wordBits keeps outside itself: words 1..
// and the number of words, the first included, that are not zero.
type spill struct {
	live  atomic.Int64
	words []atomic.Uint64
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
	v.rest = nil
	if n > wordBits {
		v.rest = &spill{words: make([]atomic.Uint64, (n-1)/wordBits)}
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
	return &v.rest.words[w-1]
}

// bit returns the word holding bit i and i's mask within it.
func (v *Vector) bit(i int) (*atomic.Uint64, uint64) {
	if i < 0 || i >= v.n {
		panic("bitvec: index out of range")
	}
	return v.word(i / wordBits), uint64(1) << uint(i%wordBits)
}

// SetAll sets every bit in the vector to 1. Bits past Len in the final word
// are left clear so Count stays exact. On a vector of one word it is one
// store. A longer vector stores its live-word count before the words: a clear
// racing the re-set can then empty only words already re-set, which leaves
// the count above zero until every word is set again.
func (v *Vector) SetAll() {
	n := v.words()
	if v.rest != nil {
		v.rest.live.Store(int64(n))
	}
	for w := 0; w < n; w++ {
		mask := ^uint64(0)
		if rem := v.n - w*wordBits; rem < wordBits {
			mask = (uint64(1) << uint(rem)) - 1
		}
		v.word(w).Store(mask)
	}
}

// Clear atomically clears bit i. won reports that the bit was set — it is
// the ATOMICBITUNSET of the paper: at most one caller per set-round wins a
// given bit — and last that this clear left the vector empty: exactly one
// caller per set-round sees it, after every other bit's winner has cleared.
func (v *Vector) Clear(i int) (won, last bool) {
	w, mask := v.bit(i)
	for {
		old := w.Load()
		if old&mask == 0 {
			return false, false
		}
		if w.CompareAndSwap(old, old&^mask) {
			if old != mask {
				return true, false
			}
			return true, v.rest == nil || v.rest.live.Add(-1) == 0
		}
	}
}

// TestAndClear is Clear for a caller that does not ask whether the vector is
// now empty.
func (v *Vector) TestAndClear(i int) bool {
	won, _ := v.Clear(i)
	return won
}

// Set atomically sets bit i to 1. On a vector longer than one word it must
// not race a Clear: the live-word count follows each word's transitions, not
// their order.
func (v *Vector) Set(i int) {
	w, mask := v.bit(i)
	for {
		old := w.Load()
		if old&mask != 0 {
			return
		}
		if w.CompareAndSwap(old, old|mask) {
			if old == 0 && v.rest != nil {
				v.rest.live.Add(1)
			}
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
