package trace

import (
	"slices"
	"sync"
	"testing"
)

// TestRingOverwrite: the ring keeps the newest cap values, oldest first,
// counts every value, and since hands out the retained suffix from any number
// on — before the ring fills, across the overwrite boundary, and past its end.
func TestRingOverwrite(t *testing.T) {
	r := ring[int]{buf: make([]int, 0, 4)}
	since := func(from uint64) ([]int, uint64, uint64) { return r.since([]int{-1}, from) }
	put := func(v int) {
		r.mu.Lock()
		*r.next() = v
		r.mu.Unlock()
	}
	put(0)
	put(1)
	if got, oldest, total := since(1); !slices.Equal(got, []int{-1, 1}) || oldest != 0 || total != 2 {
		t.Fatalf("before filling: since(1) = %v, %d, %d", got, oldest, total)
	}
	for i := 2; i < 10; i++ {
		put(i)
	}
	if r.count() != 10 {
		t.Fatalf("count = %d, want 10", r.count())
	}
	for _, c := range []struct {
		from uint64
		want []int
	}{
		{0, []int{-1, 6, 7, 8, 9}}, // overwritten numbers clamp to the oldest retained
		{7, []int{-1, 7, 8, 9}},
		{9, []int{-1, 9}},
		{10, []int{-1}},
		{12, []int{-1}},
	} {
		if got, oldest, total := since(c.from); !slices.Equal(got, c.want) || oldest != 6 || total != 10 {
			t.Fatalf("since(%d) = %v, %d, %d; want %v, 6, 10", c.from, got, oldest, total, c.want)
		}
	}
}

// TestConcurrentEmit: spans emitted from many goroutines into a ring large
// enough for all of them are each retained exactly once, under IDs that do
// not repeat.
func TestConcurrentEmit(t *testing.T) {
	const goroutines, per = 8, 100
	sp := NewSpans("p", goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp.Emit(Span{Name: "s", Job: int64(g), Task: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if sp.ring.count() != goroutines*per {
		t.Fatalf("count = %d, want %d", sp.ring.count(), goroutines*per)
	}
	ids := map[SpanID]bool{}
	pairs := map[[2]int64]bool{}
	for _, s := range sp.Snapshot() {
		pair := [2]int64{s.Job, s.Task}
		if ids[s.ID] || pairs[pair] {
			t.Fatalf("span %+v retained twice", s)
		}
		ids[s.ID], pairs[pair] = true, true
	}
	if len(pairs) != goroutines*per {
		t.Fatalf("retained %d spans, want %d", len(pairs), goroutines*per)
	}
}

// TestConcurrentEmitWrapAround drives the span ring far past its capacity
// from many goroutines at once and checks the overwrite path: exactly
// capacity spans are retained, each writer's in the order it emitted them,
// and no span is a corrupt interleaving of two writers' fields (each writer
// stamps Job and Life with its id and Task with its iteration, and every
// (Job, Task) pair is emitted once).
func TestConcurrentEmitWrapAround(t *testing.T) {
	const capacity, goroutines, per = 64, 8, 500 // 4000 spans through 64 slots
	sp := NewSpans("p", capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp.Emit(Span{Name: "s", Job: int64(g), Life: g, Task: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if sp.ring.count() != goroutines*per {
		t.Fatalf("count = %d, want %d", sp.ring.count(), goroutines*per)
	}
	spans := sp.Snapshot()
	if len(spans) != capacity {
		t.Fatalf("Snapshot retained %d spans, want %d", len(spans), capacity)
	}
	last := map[int64]int64{}
	for _, s := range spans {
		if s.Job < 0 || s.Job >= goroutines || int64(s.Life) != s.Job || s.Task < 0 || s.Task >= per || s.Proc != "p" {
			t.Fatalf("corrupt span %+v", s)
		}
		if prev, ok := last[s.Job]; ok && s.Task <= prev {
			t.Fatalf("writer %d: iteration %d retained after %d", s.Job, s.Task, prev)
		}
		last[s.Job] = s.Task
	}
}
