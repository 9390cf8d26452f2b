package block

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// wide returns a payload of n words, each v.
func wide(n int, v float64) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = v
	}
	return d
}

// TestReleaseEmptiesTheStore: after Release every version reads
// ErrNotRetained, Latest finds nothing, the retained count is back to zero
// with its high-water mark kept, the buffers are on the free list — poisoned
// — and the copies read before are untouched.
func TestReleaseEmptiesTheStore(t *testing.T) {
	PoisonFreed(true)
	defer PoisonFreed(false)
	const n = 3 * segWords
	for _, tc := range []struct {
		name string
		s    *Store
	}{
		{"single-assignment", NewStore(0)},
		{"K=2/verified", NewStore(2, WithVerification())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			for b := ID(0); b < 4; b++ {
				for v := 0; v < 3; v++ {
					s.Slot(b).Write(v, int64(b), wide(n, float64(b)))
				}
			}
			s.Write(9, 0, 9, []float64{9}) // below PoolMin, emptied all the same
			before, err := s.Read(2, 2)
			if err != nil {
				t.Fatal(err)
			}
			hw := s.BytesRetained()
			if visited := s.release(); visited != 5 {
				t.Fatalf("release visited %d slots, want 5", visited)
			}
			for b := ID(0); b < 4; b++ {
				for v := 0; v < 3; v++ {
					if _, err := s.Read(b, v); !errors.Is(err, ErrNotRetained) {
						t.Fatalf("Read(%d, v%d) after Release = %v, want ErrNotRetained", b, v, err)
					}
				}
				if err := s.Slot(b).ReadAt(2, make([]float64, 1), Run{0, 1, 1}); !errors.Is(err, ErrNotRetained) {
					t.Fatalf("ReadAt(%d) after Release = %v, want ErrNotRetained", b, err)
				}
				if _, _, ok := s.Latest(b); ok {
					t.Fatalf("Latest(%d) found a version after Release", b)
				}
			}
			if _, _, ok := s.Latest(9); ok {
				t.Fatal("Latest(9) found the one-float version after Release")
			}
			if got := s.retainedF64.Load(); got != 0 {
				t.Fatalf("retained after Release = %d floats, want 0", got)
			}
			if got := s.BytesRetained(); got != hw {
				t.Fatalf("BytesRetained after Release = %d, want the high-water mark %d", got, hw)
			}
			for i, v := range before {
				if v != 2 {
					t.Fatalf("copy read before Release changed: [%d] = %v", i, v)
				}
			}
			if got := Alloc(n); !math.IsNaN(got[0]) {
				t.Fatalf("Alloc after Release = %v…, want a released buffer, poisoned", got[0])
			}
			// The store stays usable: a version written after Release is kept.
			s.Slot(1).Write(7, 1, wide(n, 7))
			if got, err := s.Read(1, 7); err != nil || got[n-1] != 7 {
				t.Fatalf("Read after a write past Release = %v, %v", got[n-1], err)
			}
		})
	}
}

// TestReleaseOfSmallPayloadsVisitsNoSlot: a store that never held a payload
// the free list takes — the fine-grain graphs' one-float stores — releases
// without visiting a single slot, however many it has. Its first pooled
// payload makes Release walk them all.
func TestReleaseOfSmallPayloadsVisitsNoSlot(t *testing.T) {
	s := NewStore(1)
	for b := ID(0); b < 10_000; b++ {
		s.Slot(b).Write(0, int64(b), []float64{float64(b)})
		s.Slot(b).Write(1, int64(b), wide(PoolMin-1, 1))
	}
	if visited := s.release(); visited != 0 {
		t.Fatalf("release of a store of small payloads visited %d slots, want 0", visited)
	}
	if _, err := s.Read(3, 1); err != nil {
		t.Fatalf("a store release leaves alone lost a version: %v", err)
	}
	s.Write(10_000, 0, 0, wide(PoolMin, 1))
	if visited := s.release(); visited != 10_001 {
		t.Fatalf("release after a pooled write visited %d slots, want 10001", visited)
	}
}

// TestReleaseRacesAccess: Release beside readers and writers of the same
// slots — a cancelled run's computes still in flight. Every read returns its
// version whole or ErrNotRetained, never a released (poisoned) buffer; run
// under -race it also checks that every ring is emptied under its lock.
func TestReleaseRacesAccess(t *testing.T) {
	PoisonFreed(true)
	defer PoisonFreed(false)
	const (
		blocks = 16
		n      = 2 * segWords
	)
	for round := 0; round < 20; round++ {
		s := NewStore(1, WithVerification())
		for b := ID(0); b < blocks; b++ {
			s.Slot(b).Write(0, int64(b), wide(n, float64(b)))
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, 4*blocks)
		for b := ID(0); b < blocks; b++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sl := s.Slot(b)
				<-start
				for i := 0; i < 50; i++ {
					if got, err := sl.Read(0, nil); err == nil {
						if got[0] != float64(b) || got[n-1] != float64(b) {
							errs <- errors.New("Read returned a released buffer")
							return
						}
						Free(got)
					} else if !errors.Is(err, ErrNotRetained) {
						errs <- err
						return
					}
					dst := make([]float64, 1)
					if err := sl.ReadAt(0, dst, Run{n - 1, 1, 1}); err == nil && dst[0] != float64(b) {
						errs <- errors.New("ReadAt returned a released word")
						return
					} else if err != nil && !errors.Is(err, ErrNotRetained) {
						errs <- err
						return
					}
				}
				sl.Write(1, int64(b), wide(n, float64(b)))
			}()
		}
		close(start)
		s.Release()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		s.Release()
	}
}
