package cmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// put stores v under key through Update, the map's one overwriting operation.
func put[V any](m *Map[V], key int64, v V) { m.Update(key, func(V, bool) V { return v }) }

func TestLoadAndOverwrite(t *testing.T) {
	m := New[string]()
	if _, ok := m.Load(1); ok {
		t.Fatal("Load on empty map returned ok")
	}
	put(m, 1, "a")
	put(m, -7, "b")
	if v, ok := m.Load(1); !ok || v != "a" {
		t.Fatalf("Load(1) = %q,%v", v, ok)
	}
	if v, ok := m.Load(-7); !ok || v != "b" {
		t.Fatalf("Load(-7) = %q,%v", v, ok)
	}
	put(m, 1, "c")
	if v, _ := m.Load(1); v != "c" {
		t.Fatalf("Load(1) after overwrite = %q", v)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestLoadOrStoreMkOnce(t *testing.T) {
	m := New[int]()
	calls := 0
	v, inserted := m.LoadOrStore(5, func() int { calls++; return 42 })
	if !inserted || v != 42 || calls != 1 {
		t.Fatalf("first LoadOrStore: v=%d inserted=%v calls=%d", v, inserted, calls)
	}
	v, inserted = m.LoadOrStore(5, func() int { calls++; return 99 })
	if inserted || v != 42 || calls != 1 {
		t.Fatalf("second LoadOrStore: v=%d inserted=%v calls=%d", v, inserted, calls)
	}
}

// TestLoadOrStoreConcurrentSingleWinner is INSERTTASKIFABSENT's contract:
// exactly one of many concurrent inserters for the same key wins.
func TestLoadOrStoreConcurrentSingleWinner(t *testing.T) {
	const goroutines = 16
	const keys = 200
	m := New[int]()
	var wins atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(0); k < keys; k++ {
				_, inserted := m.LoadOrStore(k, func() int { return g })
				if inserted {
					wins.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if wins.Load() != keys {
		t.Fatalf("total insert wins = %d, want %d", wins.Load(), keys)
	}
	if m.Len() != keys {
		t.Fatalf("Len = %d, want %d", m.Len(), keys)
	}
}

// TestLoadOrStoreHitPathRace drives the read-locked hit path against the
// insert: for every key one goroutine inserts while the others hit (or lose
// the insert race), mk runs exactly once per key, and every caller gets the
// value that one call made. Run under -race: a hitter reads the stripe's map
// while the inserter of a neighbouring key writes it.
func TestLoadOrStoreHitPathRace(t *testing.T) {
	const goroutines = 8
	const keys = 500
	m := New[*int64]()
	var made [keys]atomic.Int64
	var got [goroutines][keys]*int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < keys; k++ {
				got[g][k], _ = m.LoadOrStore(int64(k), func() *int64 {
					made[k].Add(1)
					return new(int64)
				})
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := made[k].Load(); n != 1 {
			t.Fatalf("key %d: mk ran %d times, want 1", k, n)
		}
		for g := 1; g < goroutines; g++ {
			if got[g][k] != got[0][k] {
				t.Fatalf("key %d: goroutine %d got a different value", k, g)
			}
		}
	}
}

func TestUpdate(t *testing.T) {
	m := New[int]()
	got := m.Update(3, func(old int, ok bool) int {
		if ok {
			t.Fatal("Update of absent key reported present")
		}
		return 10
	})
	if got != 10 {
		t.Fatalf("Update returned %d, want 10", got)
	}
	got = m.Update(3, func(old int, ok bool) int {
		if !ok || old != 10 {
			t.Fatalf("Update old=%d ok=%v", old, ok)
		}
		return old + 1
	})
	if got != 11 {
		t.Fatalf("Update returned %d, want 11", got)
	}
}

func TestUpdateConcurrentCounter(t *testing.T) {
	m := New[int]()
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Update(0, func(old int, ok bool) int { return old + 1 })
			}
		}()
	}
	wg.Wait()
	if v, _ := m.Load(0); v != goroutines*perG {
		t.Fatalf("counter = %d, want %d", v, goroutines*perG)
	}
}

func TestRange(t *testing.T) {
	m := New[int]()
	want := map[int64]int{}
	for k := int64(0); k < 100; k++ {
		put(m, k, int(k*2))
		want[k] = int(k * 2)
	}
	got := map[int64]int{}
	m.Range(func(k int64, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
	// Early termination.
	n := 0
	m.Range(func(int64, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range with early stop visited %d, want 3", n)
	}
}

// TestQuickModel compares against a plain map under random op sequences.
func TestQuickModel(t *testing.T) {
	f := func(ops []struct {
		Op  uint8
		Key int8
		Val int16
	}) bool {
		m := New[int16]()
		model := map[int64]int16{}
		for _, op := range ops {
			k := int64(op.Key)
			switch op.Op % 3 {
			case 0:
				put(m, k, op.Val)
				model[k] = op.Val
			case 1:
				got, ok := m.Load(k)
				want, wok := model[k]
				if ok != wok || got != want {
					return false
				}
			case 2:
				v, inserted := m.LoadOrStore(k, func() int16 { return op.Val })
				if want, wok := model[k]; wok {
					if inserted || v != want {
						return false
					}
				} else {
					if !inserted || v != op.Val {
						return false
					}
					model[k] = op.Val
				}
			}
		}
		return m.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLoadOrStoreHit(b *testing.B) {
	m := New[int]()
	m.LoadOrStore(1, func() int { return 1 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.LoadOrStore(1, func() int { return 1 })
	}
}
