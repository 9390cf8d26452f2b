package bitvec

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewAllSet(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len() = %d, want %d", v.Len(), n)
		}
		if v.Count() != n {
			t.Fatalf("n=%d: Count() = %d, want %d", n, v.Count(), n)
		}
		for i := 0; i < n; i++ {
			if !v.IsSet(i) {
				t.Fatalf("n=%d: bit %d not set after New", n, i)
			}
		}
	}
}

func TestTestAndClearOnce(t *testing.T) {
	v := New(130)
	for i := 0; i < 130; i++ {
		if !v.TestAndClear(i) {
			t.Fatalf("first TestAndClear(%d) = false", i)
		}
		if v.TestAndClear(i) {
			t.Fatalf("second TestAndClear(%d) = true", i)
		}
		if v.IsSet(i) {
			t.Fatalf("bit %d still set after clear", i)
		}
	}
	if v.Count() != 0 {
		t.Fatalf("Count() = %d after clearing all, want 0", v.Count())
	}
}

func TestSetAllAfterClear(t *testing.T) {
	v := New(100)
	for i := 0; i < 100; i++ {
		v.TestAndClear(i)
	}
	v.SetAll()
	if v.Count() != 100 {
		t.Fatalf("Count() = %d after SetAll, want 100", v.Count())
	}
	// SetAll must not set bits beyond Len in the last word.
	v2 := New(65)
	v2.SetAll()
	if v2.Count() != 65 {
		t.Fatalf("Count() = %d, want 65", v2.Count())
	}
}

func TestSetIndividual(t *testing.T) {
	v := New(70)
	for i := 0; i < v.Len(); i++ {
		v.Clear(i)
	}
	v.Set(0)
	v.Set(69)
	v.Set(69) // idempotent
	if v.Count() != 2 {
		t.Fatalf("Count() = %d, want 2", v.Count())
	}
	if !v.IsSet(0) || !v.IsSet(69) || v.IsSet(35) {
		t.Fatal("Set/IsSet mismatch")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, f := range []func(){
		func() { v.TestAndClear(-1) },
		func() { v.TestAndClear(8) },
		func() { v.IsSet(8) },
		func() { v.Set(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range index")
				}
			}()
			f()
		}()
	}
}

// TestConcurrentTestAndClearExactlyOnce is the property the FT scheduler's
// Guarantee 3 rests on: under arbitrary concurrency, each bit is won by
// exactly one caller per set-round.
func TestConcurrentTestAndClearExactlyOnce(t *testing.T) {
	const n = 512
	const goroutines = 8
	const rounds = 50
	v := New(n)
	for round := 0; round < rounds; round++ {
		wins := make([]int, n)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				local := make([]int, n)
				for i := 0; i < n; i++ {
					if v.TestAndClear(i) {
						local[i]++
					}
				}
				mu.Lock()
				for i, c := range local {
					wins[i] += c
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
		for i, c := range wins {
			if c != 1 {
				t.Fatalf("round %d: bit %d won %d times, want 1", round, i, c)
			}
		}
		v.SetAll()
	}
}

// TestConcurrentClearLastOnce is the property the join counter's removal
// rests on: P goroutines each clear every bit, each starting at another
// place, and exactly one clear per round reports that it left the vector
// empty — one that won its bit, after which no bit is set — on both sides of
// the one-word boundary, in the first round after Init and in every round
// after SetAll.
func TestConcurrentClearLastOnce(t *testing.T) {
	const goroutines, rounds = 4, 50
	for _, n := range []int{1, 2, 63, 64, 65, 128, 130} {
		v := New(n)
		for round := 0; round < rounds; round++ {
			var wins, lasts, bad atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(start int) {
					defer wg.Done()
					for k := 0; k < n; k++ {
						won, last := v.Clear((start + k) % n)
						if won {
							wins.Add(1)
						}
						if last {
							lasts.Add(1)
							if !won || v.Count() != 0 {
								bad.Add(1)
							}
						}
					}
				}(g*n/goroutines + round)
			}
			wg.Wait()
			if wins.Load() != int64(n) || lasts.Load() != 1 || bad.Load() != 0 {
				t.Fatalf("n=%d round %d: %d bits won, %d clears saw last (%d of them lost their bit or left bits set); want %d, 1, 0",
					n, round, wins.Load(), lasts.Load(), bad.Load(), n)
			}
			v.SetAll()
		}
	}
}

func TestQuickCountMatchesClears(t *testing.T) {
	f := func(size uint8, clears []uint16) bool {
		n := int(size)%500 + 1
		v := New(n)
		cleared := make(map[int]bool)
		for _, c := range clears {
			i := int(c) % n
			want := !cleared[i]
			if v.TestAndClear(i) != want {
				return false
			}
			cleared[i] = true
		}
		return v.Count() == n-len(cleared)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetAllRestores(t *testing.T) {
	f := func(size uint8, clears []uint16) bool {
		n := int(size)%300 + 1
		v := New(n)
		for _, c := range clears {
			v.TestAndClear(int(c) % n)
		}
		v.SetAll()
		return v.Count() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInitByValue: a Vector embedded by value behaves like one from New on
// both sides of the inline-word boundary, and allocates only past it.
func TestInitByValue(t *testing.T) {
	var owner struct {
		pad uint32 // would misalign a plain uint64 on 32-bit platforms
		v   Vector
	}
	for _, n := range []int{0, 1, 64, 65, 200} {
		allocs := testing.AllocsPerRun(10, func() { owner.v.Init(n) })
		want := 0.0
		if n > 64 {
			want = 2 // the spilled words and the spill rest points to
		}
		if allocs != want {
			t.Fatalf("Init(%d) allocated %v times, want %v", n, allocs, want)
		}
		if owner.v.Len() != n || owner.v.Count() != n {
			t.Fatalf("Init(%d): len=%d count=%d", n, owner.v.Len(), owner.v.Count())
		}
		for i := 0; i < n; i++ {
			if !owner.v.TestAndClear(i) || owner.v.TestAndClear(i) || owner.v.IsSet(i) {
				t.Fatalf("Init(%d): bit %d not cleared exactly once", n, i)
			}
		}
		if owner.v.Count() != 0 {
			t.Fatalf("Init(%d): %d bits left after clearing all", n, owner.v.Count())
		}
	}
}
