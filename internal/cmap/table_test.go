package cmap

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

// edgeKeys are the keys where Table changes what it does: both ends of the
// dense range, both sides of page boundaries, and the far extremes.
var edgeKeys = []int64{
	0, 1, pageSize - 1, pageSize, pageSize + 1, 2*pageSize - 1, 2 * pageSize,
	TableCap - pageSize - 1, TableCap - pageSize, TableCap - 1, TableCap, TableCap + 1,
	-1, -pageSize, math.MinInt64, math.MaxInt64,
}

// modelKey maps a random draw to a key: an edge key, or one of a few hundred
// dense keys (so that operations meet on the same key).
func modelKey(sel uint16) int64 {
	if n := int(sel % 512); n < len(edgeKeys) {
		return edgeKeys[n]
	}
	return int64(sel % 300)
}

// TestTableQuickModel compares Table with a plain map under random sequences
// of Load, LoadOrStore and Update, and checks Len and Range against the model
// at the end.
func TestTableQuickModel(t *testing.T) {
	f := func(ops []struct {
		Op  uint8
		Key uint16
	}) bool {
		var tab Table[int]
		model := map[int64]*int{}
		for i, op := range ops {
			k := modelKey(op.Key)
			switch op.Op % 3 {
			case 0:
				got, ok := tab.Load(k)
				if want, wok := model[k]; ok != wok || got != want {
					t.Logf("Load(%d) = %p,%v, want %p,%v", k, got, ok, want, wok)
					return false
				}
			case 1:
				mkRan := false
				v, inserted := tab.LoadOrStore(k, func() *int { mkRan = true; return &i })
				want, present := model[k]
				if inserted == present || mkRan == present || (present && v != want) {
					t.Logf("LoadOrStore(%d): inserted=%v mkRan=%v present=%v", k, inserted, mkRan, present)
					return false
				}
				model[k] = v
			case 2:
				nv := new(int)
				want, present := model[k]
				got := tab.Update(k, func(old *int, ok bool) *int {
					if ok != present || old != want {
						t.Errorf("Update(%d) saw %p,%v, want %p,%v", k, old, ok, want, present)
					}
					return nv
				})
				if got != nv {
					return false
				}
				model[k] = nv
			}
		}
		if tab.Len() != len(model) {
			t.Logf("Len = %d, model has %d", tab.Len(), len(model))
			return false
		}
		seen, last, farStarted := 0, int64(-1), false
		okOrder := true
		tab.Range(func(k int64, v *int) bool {
			seen++
			if model[k] != v {
				okOrder = false
			}
			if dense(k) {
				if farStarted || k <= last {
					okOrder = false // dense keys come first and ascend
				}
				last = k
			} else {
				farStarted = true
			}
			return true
		})
		return okOrder && seen == len(model) && !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRangeStopsEarly(t *testing.T) {
	var tab Table[int]
	for _, k := range []int64{3, 700, TableCap + 5, -9} {
		tab.LoadOrStore(k, func() *int { return new(int) })
	}
	for stopAt := 1; stopAt <= 4; stopAt++ {
		n := 0
		tab.Range(func(int64, *int) bool { n++; return n < stopAt })
		if n != stopAt {
			t.Fatalf("Range stopped after %d entries, want %d", n, stopAt)
		}
	}
}

func TestTableRejectsNil(t *testing.T) {
	for name, f := range map[string]func(*Table[int]){
		"LoadOrStore": func(tab *Table[int]) { tab.LoadOrStore(1, func() *int { return nil }) },
		"Update":      func(tab *Table[int]) { tab.Update(1, func(*int, bool) *int { return nil }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s stored nil without panicking", name)
				}
			}()
			var tab Table[int]
			f(&tab)
		}()
	}
}

// atProcs runs f at each GOMAXPROCS setting: on a two-core host 4 and 8 are
// oversubscribed, which preempts goroutines inside the critical sections a
// matched core count runs through.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t)
		})
	}
}

// TestTableLoadOrStoreOnce is INSERTTASKIFABSENT's contract on every path:
// goroutines insert overlapping keys — dense ones that force page installs
// and directory growth, and far ones — and for every key mk ran exactly once
// and every caller got the pointer that call made.
func TestTableLoadOrStoreOnce(t *testing.T) {
	const goroutines = 8
	var keys []int64
	listed := map[int64]bool{}
	add := func(k int64) {
		if !listed[k] {
			listed[k] = true
			keys = append(keys, k)
		}
	}
	for _, k := range edgeKeys {
		add(k)
	}
	for k := int64(0); k < 3000; k += 7 {
		add(k)
	}
	for k := int64(0); k < 40; k++ {
		add(k*pageSize*3 + k) // a new page each, the directory grows under the readers
	}
	atProcs(t, func(t *testing.T) {
		var tab Table[int64]
		made := make([]atomic.Int64, len(keys))
		got := make([][]*int64, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			got[g] = make([]*int64, len(keys))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for n := range keys {
					i := (n + g*len(keys)/goroutines) % len(keys) // staggered starts, full overlap
					got[g][i], _ = tab.LoadOrStore(keys[i], func() *int64 {
						made[i].Add(1)
						return new(int64)
					})
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for i, k := range keys {
			if n := made[i].Load(); n != 1 {
				t.Fatalf("key %d: mk ran %d times, want 1", k, n)
			}
			cur, ok := tab.Load(k)
			for g := 0; g < goroutines; g++ {
				if !ok || got[g][i] != cur {
					t.Fatalf("key %d: goroutine %d got %p, table holds %p (ok=%v)", k, g, got[g][i], cur, ok)
				}
			}
		}
		if tab.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(keys))
		}
	})
}

// TestTableUpdateRacingLoad: once a key has been inserted, a reader racing
// Updates of it sees one of the values stored — never nothing — and the values
// it sees never go backwards.
func TestTableUpdateRacingLoad(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, key := range []int64{5, TableCap - 1, -5} {
			var tab Table[int64]
			tab.LoadOrStore(key, func() *int64 { return new(int64) })
			const updates = 2000
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					last := int64(0)
					for {
						v, ok := tab.Load(key)
						if !ok || v == nil {
							t.Errorf("key %d: Load found nothing after the insert", key)
							return
						}
						if *v < last {
							t.Errorf("key %d: value went back from %d to %d", key, last, *v)
							return
						}
						last = *v
						select {
						case <-done:
							return
						default:
						}
					}
				}()
			}
			for i := int64(1); i <= updates; i++ {
				tab.Update(key, func(old *int64, ok bool) *int64 {
					if !ok || *old != i-1 {
						t.Errorf("key %d: Update %d saw %v,%v", key, i, old, ok)
					}
					nv := i
					return &nv
				})
			}
			close(done)
			wg.Wait()
			if tab.Len() != 1 {
				t.Fatalf("key %d: Len = %d after updates, want 1", key, tab.Len())
			}
		}
	})
}

// TestTableReadersDuringGrowth: readers poll keys that are already in while a
// writer installs page after page and the directory is copied again and again.
// No reader ever loses a key it has seen, whichever directory it looks in.
func TestTableReadersDuringGrowth(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		var tab Table[int64]
		const pages = 600 // the directory doubles from 4 up to 1024 on the way
		key := func(i int) int64 { return int64(i)*pageSize + int64(i%pageSize) }
		var inserted atomic.Int64 // keys 0..inserted-1 are in
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; ; i += 3 {
					n := int(inserted.Load())
					if n > 0 {
						j := i % n
						if v, ok := tab.Load(key(j)); !ok || *v != int64(j) {
							t.Errorf("key of page %d lost after %d inserts (ok=%v)", j, n, ok)
							return
						}
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}(r)
		}
		for i := 0; i < pages; i++ {
			v := int64(i)
			if _, ins := tab.LoadOrStore(key(i), func() *int64 { return &v }); !ins {
				t.Fatalf("page %d: key was already present", i)
			}
			inserted.Store(int64(i + 1))
		}
		close(done)
		wg.Wait()
		if tab.Len() != pages {
			t.Fatalf("Len = %d, want %d", tab.Len(), pages)
		}
	})
}

// allocRuns is how many times allocated measures f and the empty closure.
const allocRuns = 5

// allocated returns the bytes f allocates, less what the measurement itself
// does. TotalAlloc is process-wide, so an allocation of any other goroutine
// during a measurement is charged to it, and can only inflate it — f's
// reading and the empty closure's alike, which once left f 16 bytes short.
// Each is therefore the least of allocRuns measurements; f runs that many
// times, and must allocate the same on every run.
func allocated(f func()) uint64 {
	measure := func(f func()) uint64 {
		least := ^uint64(0)
		for range allocRuns {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	empty := measure(func() {})
	return max(measure(f), empty) - empty
}

// TestTableMemoryBound pins the memory Table states. Keys one page apart are
// the worst case for the dense part: every key costs a page, so n of them cost
// n pages plus the directory copies (fewer than 2n pointers, and what the
// allocator rounds them up by), and no spread of keys can cost more pages than
// hold TableCap cells; n keys numbered from 0 cost n cells and n/pageSize
// directory pointers; an empty table costs its struct and nothing else, which
// is less than what an empty Map allocates.
func TestTableMemoryBound(t *testing.T) {
	const cellBytes = uint64(unsafe.Sizeof(atomic.Pointer[int]{}))
	const pageBytes = pageSize * cellBytes
	const slack = 4 << 10 // size-class rounding of the directory copies and their headers
	val := new(int)
	mk := func() *int { return val }

	if maxPages*pageBytes != TableCap*cellBytes {
		t.Errorf("the pages of a full table hold %d bytes, want TableCap cells = %d", maxPages*pageBytes, TableCap*cellBytes)
	}
	// What the allocator hands out for a page: the page itself where pointers
	// are 8 bytes, a size class up where they are 4 (a 256-byte object with
	// pointers carries a header there).
	var pg *page[int]
	pageAlloc := allocated(func() { pg = new(page[int]) })
	runtime.KeepAlive(pg)
	if cellBytes == 8 && pageAlloc != pageBytes {
		t.Errorf("a page of %d bytes is allocated as %d: choose a page size the allocator sizes exactly", pageBytes, pageAlloc)
	}
	for _, keys := range []struct {
		name   string
		stride int64
		n      uint64
		bound  uint64
	}{
		{"one page apart", pageSize, 256, 256*pageAlloc + 2*256*cellBytes + slack},
		{"dense", 1, 100 * pageSize, 100*pageAlloc + 2*100*cellBytes + slack},
	} {
		var tabs [allocRuns]Table[int] // a fresh table for every run of f
		run := 0
		got := allocated(func() {
			tab := &tabs[run]
			run++
			for i := int64(0); i < int64(keys.n); i++ {
				tab.LoadOrStore(i*keys.stride, mk)
			}
		})
		if tabs[0].Len() != int(keys.n) {
			t.Errorf("%s: Len = %d, want %d", keys.name, tabs[0].Len(), keys.n)
		}
		if got > keys.bound {
			t.Errorf("%d keys %s allocated %d bytes, bound %d", keys.n, keys.name, got, keys.bound)
		}
	}

	var empty *Table[int]
	tableBytes := allocated(func() { empty = new(Table[int]) })
	var m *Map[*int]
	mapBytes := allocated(func() { m = New[*int]() })
	runtime.KeepAlive(empty)
	runtime.KeepAlive(m)
	if tableBytes >= mapBytes || tableBytes > 2*uint64(unsafe.Sizeof(Table[int]{})) {
		t.Errorf("an empty Table allocates %d bytes (struct: %d), an empty Map %d: want less, and the struct alone",
			tableBytes, unsafe.Sizeof(Table[int]{}), mapBytes)
	}
}

func BenchmarkTableLoadOrStore(b *testing.B) {
	val := new(int)
	mk := func() *int { return val }
	b.Run("hit", func(b *testing.B) {
		var tab Table[int]
		tab.LoadOrStore(1, mk)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab.LoadOrStore(1, mk)
		}
	})
	// insert is a first touch per key, the cost a task pays once per table;
	// a fresh table every TableCap keys keeps every operation an insert.
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		tab := new(Table[int])
		for i := 0; i < b.N; i++ {
			k := int64(i) % TableCap
			if k == 0 {
				tab = new(Table[int])
			}
			tab.LoadOrStore(k, mk)
		}
	})
	b.Run("far-hit", func(b *testing.B) {
		var tab Table[int]
		tab.LoadOrStore(-1, mk)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab.LoadOrStore(-1, mk)
		}
	})
	b.Run("far-insert", func(b *testing.B) {
		b.ReportAllocs()
		tab := new(Table[int])
		for i := 0; i < b.N; i++ {
			if i%TableCap == 0 {
				tab = new(Table[int])
			}
			tab.LoadOrStore(-1-int64(i%TableCap), mk)
		}
	})
}
