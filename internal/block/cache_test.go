package block

import (
	"math"
	"sync"
	"testing"
)

// shared returns how many buffers of n float64s the shared list holds.
func shared(n int) int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.bySize[n])
}

// drain empties the shared list of buffers of n float64s, so a test that
// counts them starts from none whatever ran before it.
func drain(n int) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.floats -= n * len(pool.bySize[n])
	delete(pool.bySize, n)
}

// TestCacheIsLIFOAndExchangesInBatches: a cache hands back what its worker
// freed last, first; it keeps up to cacheDepth buffers of a length and then
// hands the cacheBatch freed longest ago to the shared list in one go; and a
// miss takes a batch off the shared list, keeping all but the one returned.
func TestCacheIsLIFOAndExchangesInBatches(t *testing.T) {
	const n = PoolMin + 3
	drain(n)
	var c Cache
	bufs := make([][]float64, cacheDepth+1)
	for i := range bufs {
		bufs[i] = make([]float64, n)
		c.Free(bufs[i])
		if i < cacheDepth && shared(n) != 0 {
			t.Fatalf("free %d of %d reached the shared list", i+1, cacheDepth)
		}
	}
	if got, want := shared(n), cacheBatch; got != want {
		t.Fatalf("after %d frees the shared list holds %d, want the batch of %d", cacheDepth+1, got, want)
	}
	if got, want := c.held, cacheDepth+1-cacheBatch; got != want {
		t.Fatalf("cache holds %d, want %d", got, want)
	}
	if got := c.Alloc(n); &got[0] != &bufs[cacheDepth][0] {
		t.Fatal("Alloc did not return the buffer freed last")
	}
	for c.held > 0 {
		c.Alloc(n)
	}
	// A miss refills from the shared list: the batch the overflow sent.
	got := c.Alloc(n)
	if &got[0] != &bufs[cacheBatch-1][0] {
		t.Fatal("a miss did not take the shared list's most recent buffer")
	}
	if shared(n) != 0 || c.held != cacheBatch-1 {
		t.Fatalf("after a miss: shared %d, cache %d; want 0 and %d", shared(n), c.held, cacheBatch-1)
	}
}

// TestCacheHoldsOneLength: a buffer of another length empties the cache
// into the shared list and takes its place, on a free and on a miss that
// refills, so a cache never holds more than cacheDepth buffers of one length.
func TestCacheHoldsOneLength(t *testing.T) {
	const n, m = PoolMin + 11, PoolMin + 12
	drain(n)
	drain(m)
	var c Cache
	for range 3 {
		c.Free(make([]float64, n))
	}
	c.Free(make([]float64, m))
	if c.held != 1 || c.n != m || shared(n) != 3 {
		t.Fatalf("after a free of another length: cache %d of %d, shared %d of %d; want 1 of %d and 3", c.held, c.n, shared(n), n, m)
	}
	got := c.Alloc(n)
	if c.held != 2 || c.n != n || shared(m) != 1 || shared(n) != 0 || len(got) != n {
		t.Fatalf("after a refill of another length: cache %d of %d, shared %d and %d; want 2 of %d, 1 and 0", c.held, c.n, shared(m), shared(n), n)
	}
	if buf := c.Alloc(m); shared(m) != 0 || c.held != 2 || len(buf) != m {
		t.Fatalf("a miss that takes one buffer left the cache %d of %d; want it kept: 2 of %d", c.held, c.n, n)
	}
}

// TestCacheReleaseHandsEverythingBack: Release empties the cache into the
// shared list and closes it; afterwards Free and Alloc go to the shared list
// directly, and a second Release does nothing.
func TestCacheReleaseHandsEverythingBack(t *testing.T) {
	const n = PoolMin + 5
	drain(n)
	var c Cache
	for range 5 {
		c.Free(make([]float64, n))
	}
	c.Release()
	if c.held != 0 || shared(n) != 5 {
		t.Fatalf("after Release: cache %d, shared %d; want 0 and 5", c.held, shared(n))
	}
	c.Free(make([]float64, n))
	if c.held != 0 || shared(n) != 6 {
		t.Fatalf("Free into a released cache: cache %d, shared %d; want 0 and 6", c.held, shared(n))
	}
	c.Alloc(n)
	c.Release()
	if c.held != 0 || shared(n) != 5 {
		t.Fatalf("Alloc from a released cache: cache %d, shared %d; want 0 and 5", c.held, shared(n))
	}
	var none *Cache
	none.Free(make([]float64, n))
	if shared(n) != 6 {
		t.Fatal("a nil cache did not free to the shared list")
	}
}

// TestPoisonCrossesWorkers: under PoisonFreed a buffer one worker's cache
// freed and another's took — by way of the shared list, after a Release or
// an overflow — carries the NaN pattern, not what its last owner wrote.
func TestPoisonCrossesWorkers(t *testing.T) {
	PoisonFreed(true)
	defer PoisonFreed(false)
	const n = PoolMin + 9
	drain(n)
	var a, b Cache
	for _, hand := range []func(){a.Release, func() {
		for range cacheDepth {
			a.Free(wide(n, 1))
		}
	}} {
		mine := wide(n, 7)
		a.Free(mine)
		hand()
		for {
			got := b.Alloc(n)
			for i, v := range got {
				if !math.IsNaN(v) {
					t.Fatalf("word %d of a buffer taken on another worker = %v, want the NaN pattern", i, v)
				}
			}
			if &got[0] == &mine[0] {
				break
			}
		}
		b.Release()
		drain(n)
		a = Cache{}
	}
}

// TestCachesShareNothing: two workers Alloc and Free one length as fast as
// they can, each through its own cache, with the shared list between them
// and a third party releasing one cache midway, as a run's end does beside a
// compute a cancel left running. Each writes its mark into what it takes and
// checks it is still there before freeing: a buffer held by both shows as a
// torn mark, and under -race as a race.
func TestCachesShareNothing(t *testing.T) {
	const n = PoolMin + 17
	var caches [2]Cache
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for w := range caches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &caches[w]
			mark := float64(w + 1)
			var hold [][]float64
			for i := range 4000 {
				buf := c.Alloc(n)
				for j := range buf {
					buf[j] = mark
				}
				hold = append(hold, buf)
				if i%3 == 2 {
					for _, h := range hold {
						if h[0] != mark || h[n-1] != mark {
							errs <- "a buffer changed while its worker held it"
							return
						}
						c.Free(h)
					}
					hold = hold[:0]
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		caches[1].Release()
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	caches[0].Release()
	if caches[0].held != 0 || caches[1].held != 0 {
		t.Fatalf("released caches hold %d and %d buffers", caches[0].held, caches[1].held)
	}
}

// BenchmarkAllocFree prices a take and a give-back of one tile-sized buffer
// (a 32×32 tile) through the shared list under its one lock, and through a
// Cache per goroutine, from GOMAXPROCS goroutines at once: at -cpu 1 the
// cost of the calls, at -cpu 2 that of two workers contending for the one
// lock, which the caches do not.
func BenchmarkAllocFree(b *testing.B) {
	const n = 32 * 32
	b.Run("shared", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				Free(Alloc(n))
			}
		})
	})
	b.Run("cache", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var c Cache
			defer c.Release()
			for pb.Next() {
				c.Free(c.Alloc(n))
			}
		})
	})
}
