package trace

import (
	"slices"
	"sync"
)

// ring is the bounded buffer under both recorders: it keeps the newest
// cap(buf) values put into it, the oldest overwritten first, and numbers
// every value from 0 in the order it was put, so value n sits at
// buf[n%cap(buf)] for as long as it is retained. Safe for concurrent use:
// writers hold mu around next, and the readers take it themselves.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total uint64 // values ever put; the next one's number
}

// next counts one more value and returns the slot it goes in; the caller
// holds mu and stores the value before unlocking. It hands out the slot
// rather than taking the value so that the store is compiled for the
// concrete type where it is written: a generic put(v T) is not inlined, and
// its call and argument copy cost ≈ 10 ns more per span.
func (r *ring[T]) next() *T {
	if len(r.buf) < cap(r.buf) {
		r.buf = r.buf[:len(r.buf)+1]
	}
	slot := &r.buf[r.total%uint64(cap(r.buf))]
	r.total++
	return slot
}

// count returns how many values were ever put, overwritten ones included.
func (r *ring[T]) count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// since appends to dst the retained values numbered from on, oldest first,
// and returns it with the number of the oldest retained value and the count;
// the last value appended is numbered total-1.
func (r *ring[T]) since(dst []T, from uint64) (out []T, oldest, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest = r.total - uint64(len(r.buf))
	start := min(max(from, oldest), r.total)
	head, n := int(start%uint64(cap(r.buf))), int(r.total-start)
	wrapped := n - min(n, len(r.buf)-head)
	dst = slices.Grow(dst, n)
	dst = append(dst, r.buf[head:head+n-wrapped]...)
	return append(dst, r.buf[:wrapped]...), oldest, r.total
}
