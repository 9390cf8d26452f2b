package deque

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestDequesShareNoBlock: of deques allocated one after the other, as a pool
// allocates its workers', no two words that different goroutines write — a
// deque's top, its bottom and buf, the next deque's — lie in one 128-byte
// block.
func TestDequesShareNoBlock(t *testing.T) {
	seen := map[uintptr]string{}
	for i := 0; i < 8; i++ {
		d := New[int]()
		for name, addr := range map[string]uintptr{
			"top":    uintptr(unsafe.Pointer(&d.top)),
			"bottom": uintptr(unsafe.Pointer(&d.bottom)),
			"buf":    uintptr(unsafe.Pointer(&d.buf)),
		} {
			who := fmt.Sprintf("deque %d owner", i)
			if name == "top" {
				who = fmt.Sprintf("deque %d thieves", i)
			}
			if prev, ok := seen[addr>>7]; ok && prev != who {
				t.Errorf("deque %d: %s (%#x) is in one 128-byte block with a word of %s", i, name, addr, prev)
			}
			seen[addr>>7] = who
		}
	}
}

func TestLIFOOwner(t *testing.T) {
	d := New[int]()
	vals := []int{1, 2, 3, 4, 5}
	ptrs := make([]*int, len(vals))
	for i := range vals {
		ptrs[i] = &vals[i]
		d.PushBottom(ptrs[i])
	}
	for i := len(vals) - 1; i >= 0; i-- {
		got := d.PopBottom()
		if got != ptrs[i] {
			t.Fatalf("PopBottom = %v, want %v", got, ptrs[i])
		}
	}
	if d.PopBottom() != nil {
		t.Fatal("PopBottom on empty deque should return nil")
	}
}

func TestFIFOThief(t *testing.T) {
	d := New[int]()
	vals := []int{10, 20, 30}
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	for i := range vals {
		got := d.Steal()
		if got == nil || *got != vals[i] {
			t.Fatalf("Steal #%d = %v, want %d", i, got, vals[i])
		}
	}
	if d.Steal() != nil {
		t.Fatal("Steal on empty deque should return nil")
	}
}

func TestMixedEnds(t *testing.T) {
	d := New[int]()
	a, b, c := 1, 2, 3
	d.PushBottom(&a)
	d.PushBottom(&b)
	d.PushBottom(&c)
	if got := d.Steal(); got == nil || *got != 1 {
		t.Fatalf("Steal = %v, want 1", got)
	}
	if got := d.PopBottom(); got == nil || *got != 3 {
		t.Fatalf("PopBottom = %v, want 3", got)
	}
	if got := d.PopBottom(); got == nil || *got != 2 {
		t.Fatalf("PopBottom = %v, want 2", got)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d, want 0", d.Len())
	}
}

func TestGrowth(t *testing.T) {
	d := New[int]()
	n := MinCapacity * 8
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := n - 1; i >= 0; i-- {
		got := d.PopBottom()
		if got == nil || *got != i {
			t.Fatalf("PopBottom = %v, want %d", got, i)
		}
	}
}

func TestGrowthPreservesStealOrder(t *testing.T) {
	d := New[int]()
	n := MinCapacity * 4
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	for i := 0; i < n; i++ {
		got := d.Steal()
		if got == nil || *got != i {
			t.Fatalf("Steal = %v, want %d", got, i)
		}
	}
}

// TestNoLossNoDuplication runs one owner (push/pop) against several thieves
// and checks that every pushed element is consumed exactly once.
func TestNoLossNoDuplication(t *testing.T) {
	const total = 200000
	const thieves = 4
	d := New[int64]()
	var consumed [total]atomic.Int32
	var count atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v := d.Steal(); v != nil {
					consumed[*v].Add(1)
					count.Add(1)
				}
				select {
				case <-stop:
					// Drain what's left so nothing is stranded
					// between the owner's exit and ours.
					for {
						v := d.Steal()
						if v == nil {
							return
						}
						consumed[*v].Add(1)
						count.Add(1)
					}
				default:
				}
			}
		}()
	}

	vals := make([]int64, total)
	for i := int64(0); i < total; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
		if i%3 == 0 {
			if v := d.PopBottom(); v != nil {
				consumed[*v].Add(1)
				count.Add(1)
			}
		}
	}
	for {
		v := d.PopBottom()
		if v == nil {
			break
		}
		consumed[*v].Add(1)
		count.Add(1)
	}
	close(stop)
	wg.Wait()
	// The owner saw an empty deque, but a thief may still have drained
	// concurrently; after wg.Wait all elements must be accounted for.
	if got := count.Load(); got != total {
		t.Fatalf("consumed %d elements, want %d", got, total)
	}
	for i := 0; i < total; i++ {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("element %d consumed %d times, want 1", i, c)
		}
	}
}

// TestMultiThiefStress runs GOMAXPROCS thieves against a bursty owner. The
// owner pushes in waves and pops roughly half of each wave back, so the
// deque repeatedly crosses the empty boundary and grows its ring — the two
// regimes where the Chase-Lev top/bottom CAS race lives. After the last
// wave the owner drains and the thieves race it for the tail. Every element
// must be consumed exactly once, counting owner pops and per-thief steals.
func TestMultiThiefStress(t *testing.T) {
	thieves := runtime.GOMAXPROCS(0)
	if thieves < 4 {
		thieves = 4
	}
	const waves = 200
	const perWave = 512
	const total = waves * perWave

	d := New[int64]()
	vals := make([]int64, total)
	seen := make([]atomic.Int32, total)
	stolen := make([]int64, thieves) // each entry written by one thief only
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for {
				if v := d.Steal(); v != nil {
					seen[*v].Add(1)
					stolen[th]++
					continue // keep stealing while the deque is hot
				}
				select {
				case <-stop:
					for {
						v := d.Steal()
						if v == nil {
							return
						}
						seen[*v].Add(1)
						stolen[th]++
					}
				default:
				}
			}
		}(th)
	}

	var popped int64
	next := int64(0)
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			vals[next] = next
			d.PushBottom(&vals[next])
			next++
		}
		for i := 0; i < perWave/2; i++ {
			v := d.PopBottom()
			if v == nil {
				break // thieves beat us to the whole wave
			}
			seen[*v].Add(1)
			popped++
		}
	}
	for {
		v := d.PopBottom()
		if v == nil {
			break
		}
		seen[*v].Add(1)
		popped++
	}
	close(stop)
	wg.Wait()

	var total2 int64 = popped
	for th := 0; th < thieves; th++ {
		total2 += stolen[th]
	}
	if total2 != total {
		t.Fatalf("consumed %d elements (owner %d + thieves %d), want %d",
			total2, popped, total2-popped, total)
	}
	for i := 0; i < total; i++ {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("element %d consumed %d times, want 1", i, c)
		}
	}
	t.Logf("owner popped %d; %d thieves stole %d", popped, thieves, total2-popped)
}

// TestQuickSequentialModel checks the deque against a simple slice model
// under a random single-threaded op sequence (ops: 0=push, 1=pop, 2=steal).
func TestQuickSequentialModel(t *testing.T) {
	f := func(ops []uint8) bool {
		d := New[int]()
		var model []int
		next := 0
		backing := make([]int, 0, len(ops))
		for _, op := range ops {
			switch op % 3 {
			case 0:
				backing = append(backing, next)
				d.PushBottom(&backing[len(backing)-1])
				model = append(model, next)
				next++
			case 1:
				got := d.PopBottom()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if got == nil || *got != want {
						return false
					}
				}
			case 2:
				got := d.Steal()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					want := model[0]
					model = model[1:]
					if got == nil || *got != want {
						return false
					}
				}
			}
		}
		return d.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	d := New[int]()
	v := 42
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBottom(&v)
		d.PopBottom()
	}
}

func BenchmarkStealContention(b *testing.B) {
	d := New[int]()
	v := 42
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				d.Steal()
			}
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBottom(&v)
		d.PopBottom()
	}
	close(done)
}
