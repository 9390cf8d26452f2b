package block

import (
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWriteRead(t *testing.T) {
	s := NewStore(0)
	s.Write(1, 0, 100, []float64{1, 2, 3})
	data, err := s.Read(1, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(data) != 3 || data[0] != 1 || data[2] != 3 {
		t.Fatalf("Read = %v", data)
	}
}

func TestReadMissing(t *testing.T) {
	s := NewStore(0)
	_, err := s.Read(1, 0)
	if !errors.Is(err, ErrNotRetained) {
		t.Fatalf("Read missing = %v, want ErrNotRetained", err)
	}
	var ae *AccessError
	if !errors.As(err, &ae) || ae.Ref.Block != 1 || ae.Ref.Version != 0 {
		t.Fatalf("AccessError = %+v", ae)
	}
}

func TestUnlimitedRetention(t *testing.T) {
	s := NewStore(0)
	for v := 0; v < 50; v++ {
		if _, victim, evicted := s.Write(7, v, int64(v), []float64{float64(v)}); evicted {
			t.Fatalf("unexpected eviction of %d at version %d", victim, v)
		}
	}
	for v := 0; v < 50; v++ {
		data, err := s.Read(7, v)
		if err != nil || data[0] != float64(v) {
			t.Fatalf("Read v%d = %v, %v", v, data, err)
		}
	}
}

func TestRetentionEvictsOldestWritten(t *testing.T) {
	s := NewStore(2)
	s.Write(1, 0, 100, []float64{0})
	s.Write(1, 1, 101, []float64{1})
	if _, victim, evicted := s.Write(1, 2, 102, []float64{2}); !evicted || victim != 100 {
		t.Fatalf("evicted producer = %d, %v, want 100", victim, evicted)
	}
	if _, err := s.Read(1, 0); !errors.Is(err, ErrNotRetained) {
		t.Fatalf("version 0 should be evicted, got %v", err)
	}
	for v := 1; v <= 2; v++ {
		if _, err := s.Read(1, v); err != nil {
			t.Fatalf("version %d should be retained: %v", v, err)
		}
	}
}

// TestRecoveryRewriteEvictsNewer models the recovery cascade: when a
// recovered producer rewrites an old version into a retention-1 slot, the
// newer version is physically evicted and its producer must re-execute.
func TestRecoveryRewriteEvictsNewer(t *testing.T) {
	s := NewStore(1)
	s.Write(1, 0, 100, []float64{0})
	if _, victim, evicted := s.Write(1, 1, 101, []float64{1}); !evicted || victim != 100 {
		t.Fatalf("evicted = %d, %v, want 100", victim, evicted)
	}
	// Recovery of producer 100 rewrites version 0.
	if _, victim, evicted := s.Write(1, 0, 100, []float64{0}); !evicted || victim != 101 {
		t.Fatalf("evicted = %d, %v, want 101", victim, evicted)
	}
	if _, err := s.Read(1, 1); !errors.Is(err, ErrNotRetained) {
		t.Fatalf("version 1 should be evicted after the rewrite, got %v", err)
	}
	if _, err := s.Read(1, 0); err != nil {
		t.Fatalf("rewritten version 0 unreadable: %v", err)
	}
}

func TestRewriteRetainedVersionInPlace(t *testing.T) {
	s := NewStore(2)
	s.Write(1, 0, 100, []float64{0})
	s.Write(1, 1, 101, []float64{1})
	// Rewriting a still-retained version must not evict anything.
	if _, victim, evicted := s.Write(1, 0, 100, []float64{9}); evicted {
		t.Fatalf("in-place rewrite evicted %d", victim)
	}
	data, err := s.Read(1, 0)
	if err != nil || data[0] != 9 {
		t.Fatalf("Read = %v, %v", data, err)
	}
	// The rewrite refreshed version 0's write recency, so the next write
	// evicts version 1 (oldest written), mirroring physical buffer reuse.
	if _, victim, evicted := s.Write(1, 2, 102, []float64{2}); !evicted || victim != 101 {
		t.Fatalf("evicted = %d, %v, want 101", victim, evicted)
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := NewStore(0)
	s.Write(1, 0, 100, []float64{1, 2})
	if !s.Corrupt(1, 0, 0) {
		t.Fatal("Corrupt returned false for a retained version")
	}
	if _, err := s.Read(1, 0); !errors.Is(err, ErrCorrupted) || errors.Is(err, ErrChecksum) {
		t.Fatalf("Read corrupted = %v, want ErrCorrupted and not ErrChecksum", err)
	}
	if s.Corrupt(1, 5, 0) {
		t.Fatal("Corrupt of missing version returned true")
	}
	// A rewrite (recovery recompute) repairs the version.
	s.Write(1, 0, 100, []float64{1, 2})
	if _, err := s.Read(1, 0); err != nil {
		t.Fatalf("Read after repair = %v", err)
	}
}

// scribble changes one stored word behind the store's back — no poisoned
// flag, no checksum update: the out-of-band bit flip that only checksum
// verification can see.
func scribble(s *Store, b ID, version, i int, v float64) {
	sl := s.Slot(b)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.find(version).data[i] = v
}

// TestChecksumVerification: a payload that changes inside the store is
// caught by a verifying store and passes unnoticed through a plain one (the
// paper's detection is flag-based). Changing the slice that was handed to
// Write does nothing to either: the store kept a copy.
func TestChecksumVerification(t *testing.T) {
	for _, verify := range []bool{false, true} {
		var opts []Option
		if verify {
			opts = append(opts, WithVerification())
		}
		s := NewStore(0, opts...)
		data := []float64{3, 1, 4, 1, 5}
		s.Write(1, 0, 100, data)
		data[2] = 999
		got, err := s.Read(1, 0)
		if err != nil || got[2] != 4 {
			t.Fatalf("verify=%v: Read after the writer changed its own slice = %v, %v", verify, got, err)
		}
		scribble(s, 1, 0, 2, 999)
		got, err = s.Read(1, 0)
		switch {
		case verify && !errors.Is(err, ErrCorrupted):
			t.Fatalf("Read after a silent flip in the store = %v, want ErrCorrupted", err)
		case !verify && (err != nil || got[2] != 999):
			t.Fatalf("plain store: Read after a silent flip = %v, %v, want the flipped data", got, err)
		}
	}
}

// TestSilentCorruptionPassesVerification: CorruptSilently re-derives the
// checksum, so even a verifying store serves the wrong data, and the sum it
// returns is the digest of what a reader now gets.
func TestSilentCorruptionPassesVerification(t *testing.T) {
	s := NewStore(0, WithVerification())
	clean, _, _ := s.Write(1, 0, 100, []float64{1, 2, 3})
	if clean != Checksum([]float64{1, 2, 3}) {
		t.Fatal("Write did not return Checksum(data)")
	}
	sum, ok := s.CorruptSilently(1, 0)
	if !ok || sum == clean {
		t.Fatalf("CorruptSilently = %#x, %v; clean sum %#x", sum, ok, clean)
	}
	got, err := s.Read(1, 0)
	if err != nil || got[0] == 1 || Checksum(got) != sum {
		t.Fatalf("Read after silent corruption = %v, %v", got, err)
	}
	if _, ok := s.CorruptSilently(1, 9); ok {
		t.Fatal("CorruptSilently of a missing version reported ok")
	}
}

// TestReadCopyOutlivesStoreChanges is the regression test for the aliasing
// race (ROADMAP item 1): a slice obtained from Read is the reader's own, so
// it stays what it was while the injector flips the stored bits, an SDC
// rewrites them, and the version is evicted and rewritten into a recycled
// buffer. The reader goroutine keeps summing its copy throughout, which is
// what the race detector needs to see. The payload is above PoolMin so every
// buffer involved goes through the free list.
func TestReadCopyOutlivesStoreChanges(t *testing.T) {
	const n = 4 * PoolMin
	payload := func(seed float64) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = seed + float64(i)
		}
		return d
	}
	sumOf := func(d []float64) (s float64) {
		for _, v := range d {
			s += v
		}
		return s
	}
	s := NewStore(1, WithVerification())
	s.Write(1, 0, 100, payload(1))
	got, err := s.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sumOf(payload(1))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sum := sumOf(got); sum != want {
				t.Errorf("read copy changed under the reader: sum %v, want %v", sum, want)
				return
			}
		}
	}()
	for round := 0; round < 200; round++ {
		s.Corrupt(1, 0, 0)
		s.Write(1, 0, 100, payload(1)) // recovery repairs the version
		s.CorruptSilently(1, 0)
		s.Write(1, 1, 101, payload(2)) // evicts version 0; its buffer is recycled …
		s.Write(1, 0, 100, payload(3)) // … and rewritten with other data
		if other, err := s.Read(1, 0); err == nil {
			Free(other)
		}
	}
	close(stop)
	wg.Wait()
	if sum := sumOf(got); sum != want {
		t.Fatalf("read copy = sum %v after the store moved on, want %v", sum, want)
	}
}

func TestProducerAndVersions(t *testing.T) {
	s := NewStore(0)
	s.Write(2, 0, 10, []float64{0})
	s.Write(2, 1, 11, []float64{1})
	if p, ok := s.Producer(2, 1); !ok || p != 11 {
		t.Fatalf("Producer = %d,%v", p, ok)
	}
	if _, ok := s.Producer(2, 9); ok {
		t.Fatal("Producer of missing version reported ok")
	}
	vs := s.Versions(2)
	if len(vs) != 2 || vs[0] != 0 || vs[1] != 1 {
		t.Fatalf("Versions = %v", vs)
	}
}

func TestLatestSkipsCorrupted(t *testing.T) {
	s := NewStore(0)
	s.Write(3, 0, 10, []float64{0})
	s.Write(3, 1, 11, []float64{1})
	s.Corrupt(3, 1, 0)
	v, data, ok := s.Latest(3)
	if !ok || v != 0 || data[0] != 0 {
		t.Fatalf("Latest = %d,%v,%v", v, data, ok)
	}
}

// TestStatsCounters: the store counts no accesses; each call returns what its
// caller counts into Stats — an eviction, a missing read, a corrupt read — and
// the one number only the store can know is the high-water mark.
func TestStatsCounters(t *testing.T) {
	s := NewStore(1)
	if _, _, evicted := s.Write(1, 0, 100, []float64{1, 2, 3, 4}); evicted {
		t.Fatal("first write reported an eviction")
	}
	if _, victim, evicted := s.Write(1, 1, 101, []float64{1, 2}); !evicted || victim != 100 {
		t.Fatalf("second write into a K=1 ring: victim=%d evicted=%v, want 100 true", victim, evicted)
	}
	if _, err := s.Read(1, 1); err != nil {
		t.Fatalf("read of the retained version: %v", err)
	}
	if _, err := s.Read(1, 0); !errors.Is(err, ErrNotRetained) {
		t.Fatalf("read of the evicted version: %v, want ErrNotRetained", err)
	}
	s.Corrupt(1, 1, 0)
	if _, err := s.Read(1, 1); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("read of the corrupted version: %v, want ErrCorrupted", err)
	}
	if got := s.BytesRetained(); got != 4*8 {
		t.Fatalf("BytesRetained = %d, want 32 (high-water of 4 float64s)", got)
	}
}

func TestRetainedIsALookup(t *testing.T) {
	s := NewStore(0)
	s.Write(1, 0, 5, []float64{1})
	if !s.Retained(1, 0) || s.Retained(1, 1) {
		t.Fatal("Retained mismatch")
	}
	s.Corrupt(1, 0, 0)
	if s.Retained(1, 0) {
		t.Fatal("a poisoned version reported retained")
	}
}

// TestLatestReturnsCopy: what Latest hands out survives the version's
// eviction and the reuse of its buffer.
func TestLatestReturnsCopy(t *testing.T) {
	s := NewStore(1)
	first := make([]float64, PoolMin)
	first[0] = 7
	s.Write(1, 0, 10, first)
	_, data, ok := s.Latest(1)
	if !ok {
		t.Fatal("Latest found nothing")
	}
	second := make([]float64, PoolMin)
	second[0] = 8
	s.Write(1, 1, 11, second)
	s.Write(2, 0, 12, second) // takes version 0's old buffer off the free list
	if data[0] != 7 {
		t.Fatalf("Latest's slice changed to %v after eviction", data[0])
	}
}

// TestQuickRetentionInvariant: under any write sequence, a retention-K
// store holds at most K versions per block, and exactly the K most recently
// written distinct versions.
func TestQuickRetentionInvariant(t *testing.T) {
	f := func(writes []uint8, kRaw uint8) bool {
		k := int(kRaw)%3 + 1
		s := NewStore(k)
		var recent []int // distinct versions, oldest written first (model)
		for _, wv := range writes {
			v := int(wv) % 8
			s.Write(42, v, int64(v), []float64{float64(v)})
			// model update
			for i, rv := range recent {
				if rv == v {
					recent = append(recent[:i], recent[i+1:]...)
					break
				}
			}
			recent = append(recent, v)
			if len(recent) > k {
				recent = recent[1:]
			}
		}
		got := s.Versions(42)
		if len(got) != len(recent) {
			return false
		}
		inModel := map[int]bool{}
		for _, v := range recent {
			inModel[v] = true
		}
		for _, v := range got {
			if !inModel[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickChecksumDetects is the detection property of Checksum: it is
// stable, and every one of these changes to a payload changes it — the
// injector's flipBits pattern at any index, any single bit of any word, any
// replacement of one word, a swap of two unequal words that sit in different
// lanes, and trailing zeros. The single-word cases cannot collide (the
// per-lane bijection argument in Checksum's comment); the others could only
// by a 64-bit hash collision.
func TestQuickChecksumDetects(t *testing.T) {
	f := func(data []float64, idx, jdx uint16, bit uint8, repl float64, zeros uint8) bool {
		c := Checksum(data)
		if c != Checksum(append([]float64(nil), data...)) {
			return false
		}
		if Checksum(append(append([]float64(nil), data...), make([]float64, int(zeros)%9+1)...)) == c {
			return false
		}
		if len(data) == 0 {
			return true
		}
		i, j := int(idx)%len(data), int(jdx)%len(data)
		changed := func(mutate func(d []float64)) bool {
			mut := append([]float64(nil), data...)
			mutate(mut)
			return Checksum(mut) != c
		}
		if !changed(func(d []float64) { d[i] = flipBits(d[i]) }) {
			return false
		}
		if !changed(func(d []float64) {
			d[i] = math.Float64frombits(math.Float64bits(d[i]) ^ 1<<(bit%64))
		}) {
			return false
		}
		if math.Float64bits(repl) != math.Float64bits(data[i]) && !changed(func(d []float64) { d[i] = repl }) {
			return false
		}
		if i%4 != j%4 && math.Float64bits(data[i]) != math.Float64bits(data[j]) &&
			!changed(func(d []float64) { d[i], d[j] = d[j], d[i] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumEverySingleBit walks every bit of every word of payloads whose
// lengths cover each tail case of the four-lane hash, one stripe on either
// side of the 32-lane hash's threshold, a segment and a word on either side,
// partial stripes in a partial segment, and an LCS tile of b = 64 with its
// appended column. It hashes on the widest body the CPU has, which is the
// default one but in a race build, whose Go body would take half a minute
// over the 266 240 flips of the 4 160 words; FuzzChecksumBodies holds every
// body to the same values.
func TestChecksumEverySingleBit(t *testing.T) {
	all := bodies()
	defer useBody(all[len(all)-1])()
	lengths := []int{31, 32, 33, 255, 256, 257, 543, 4160}
	for n := 1; n <= 13; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) * 0.37
		}
		c := Checksum(data)
		for i := range data {
			for bit := 0; bit < 64; bit++ {
				orig := data[i]
				data[i] = math.Float64frombits(math.Float64bits(orig) ^ 1<<bit)
				if Checksum(data) == c {
					t.Fatalf("len %d: flipping bit %d of word %d left the checksum unchanged", n, bit, i)
				}
				data[i] = orig
			}
		}
	}
	// Lengths alone: all-zero payloads of different lengths differ.
	seen := map[uint64]int{}
	for n := 0; n <= 600; n++ {
		c := Checksum(make([]float64, n))
		if m, dup := seen[c]; dup {
			t.Fatalf("all-zero payloads of length %d and %d share a checksum", m, n)
		}
		seen[c] = n
	}
}

// randomBits returns n words of random bit patterns — NaNs, infinities and
// subnormals among them — with every fourth word a NaN whose payload is
// random.
func randomBits(r *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		w := r.Uint64()
		if i%4 == 3 {
			w |= 0x7FF0_0000_0000_0001
		}
		d[i] = math.Float64frombits(w)
	}
	return d
}

// TestCopySumIsChecksum: the verified read's fused loop returns exactly
// Checksum of its source and leaves an exact copy, bit for bit (NaN payloads
// included), at every tail length and at a tile's size and one word over, on
// every body.
func TestCopySumIsChecksum(t *testing.T) {
	forEachBody(t, testCopySumIsChecksum)
}

func testCopySumIsChecksum(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	lengths := []int{4096, 4097}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for round := 0; round < 4; round++ {
			src := randomBits(r, n)
			dst := randomBits(r, n)
			if got, want := copySum(dst, src), Checksum(src); got != want {
				t.Fatalf("len %d: copySum = %#x, Checksum = %#x", n, got, want)
			}
			for i := range src {
				if math.Float64bits(dst[i]) != math.Float64bits(src[i]) {
					t.Fatalf("len %d: word %d copied as %#x, want %#x", n, i, math.Float64bits(dst[i]), math.Float64bits(src[i]))
				}
			}
		}
	}
}

// TestVerifiedReadDetectsOneFlippedBit: one stored bit flipped in place is an
// ErrCorrupted read from a verifying store, on both sides of PoolMin — copies
// out of the arena and off the free list — and wherever the word sits in the
// lanes and the tail.
func TestVerifiedReadDetectsOneFlippedBit(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var a Arena
	for _, n := range []int{1, 3, 63, 64, 65, 4096} {
		for _, i := range []int{0, n / 2, n - 1} {
			s := NewStore(0, WithVerification())
			data := randomBits(r, n)
			s.Write(1, 0, 1, data)
			bit := r.IntN(64)
			scribble(s, 1, 0, i, math.Float64frombits(math.Float64bits(data[i])^1<<bit))
			if _, err := s.Slot(1).Read(0, &a, nil); !errors.Is(err, ErrCorrupted) || !errors.Is(err, ErrChecksum) {
				t.Fatalf("len %d: bit %d of word %d flipped: Read = %v, want ErrChecksum, an ErrCorrupted", n, bit, i, err)
			}
			scribble(s, 1, 0, i, data[i])
			got, err := s.Slot(1).Read(0, &a, nil)
			if err != nil || len(got) != n {
				t.Fatalf("len %d: Read after the bit was restored = %d words, %v", n, len(got), err)
			}
			a.Reset()
		}
	}
}

// TestSlotWriteAdopts: Slot.Write keeps the very buffer it is given — the
// version is the caller's backing array — while Store.Write keeps a copy, so
// its caller may overwrite its slice and still read the old bits back.
func TestSlotWriteAdopts(t *testing.T) {
	s := NewStore(0)
	for _, n := range []int{3, PoolMin, 4 * PoolMin} {
		data := make([]float64, n)
		sl := s.Slot(1)
		sl.Write(n, 1, 0, data, nil)
		sl.mu.Lock()
		kept := sl.find(n).data
		sl.mu.Unlock()
		if !sameArray(kept, data) {
			t.Fatalf("len %d: Slot.Write stored a copy, not the caller's buffer", n)
		}

		mine := make([]float64, n)
		mine[n-1] = 5
		s.Write(2, n, 2, mine)
		mine[n-1] = 6
		if got, err := s.Read(2, n); err != nil || got[n-1] != 5 {
			t.Fatalf("len %d: Store.Write kept the caller's slice: Read = %v, %v after the caller overwrote it", n, got, err)
		}
	}
}

// TestRewriteOfTheSameSlice: a version written twice from one slice — in
// place, and into a K=1 ring whose evicted version is that slice — must not
// hand the stored buffer to the free list. Under PoisonFreed a Free would
// turn the stored data into NaNs.
func TestRewriteOfTheSameSlice(t *testing.T) {
	PoisonFreed(true)
	defer PoisonFreed(false)
	s := NewStore(1, WithVerification())
	data := make([]float64, PoolMin)
	for i := range data {
		data[i] = float64(i)
	}
	sl := s.Slot(1)
	sl.Write(0, 1, 0, data, nil)
	sl.Write(0, 1, 0, data, nil) // replaces version 0 in place
	if got, err := sl.Read(0, nil, nil); err != nil || got[1] != 1 {
		t.Fatalf("after a rewrite of one slice in place: Read = %v, %v", got, err)
	}
	if _, _, evicted := sl.Write(1, 2, 0, data, nil); !evicted {
		t.Fatal("the K=1 write did not evict version 0")
	}
	if got, err := sl.Read(1, nil, nil); err != nil || got[1] != 1 {
		t.Fatalf("after an evicting write of the evicted version's slice: Read = %v, %v", got, err)
	}
	if again := Alloc(PoolMin); sameArray(again, data) {
		t.Fatal("the stored buffer went to the free list")
	}
}

// sameArray reports whether two slices start at the same element.
func sameArray(a, b []float64) bool { return &a[0] == &b[0] }

func TestFreeListReuse(t *testing.T) {
	a := Alloc(PoolMin)
	a[3] = 5
	Free(a)
	b := Alloc(PoolMin)
	if !sameArray(a, b) {
		t.Fatal("Alloc after Free of the same length did not reuse the buffer")
	}
	// Alloc's contents are unspecified: a recycled buffer is not cleared again.
	if b[3] != 5 {
		t.Fatalf("recycled Alloc b[3] = %v, want what its last owner left, 5", b[3])
	}
	if c := Alloc(PoolMin); sameArray(b, c) {
		t.Fatal("one buffer handed out twice")
	}

	// Below the cutoff nothing is listed.
	small := Alloc(PoolMin - 1)
	Free(small)
	if again := Alloc(PoolMin - 1); sameArray(small, again) {
		t.Fatal("a payload below PoolMin went through the free list")
	}

	// Only the slice that was freed is recycled, not the capacity behind it.
	big := make([]float64, 3*PoolMin)
	Free(big[:PoolMin])
	if got := Alloc(PoolMin); !sameArray(got, big) || cap(got) != PoolMin {
		t.Fatalf("recycled prefix: same array %v, cap %d, want true, %d", sameArray(got, big), cap(got), PoolMin)
	}
}

func TestFreeListIsBounded(t *testing.T) {
	const n = poolMaxFloats/4 + 1
	bufs := make([][]float64, 5)
	for i := range bufs {
		bufs[i] = make([]float64, n)
	}
	for _, b := range bufs {
		Free(b)
	}
	pool.mu.Lock()
	listed, held := len(pool.bySize[n]), pool.floats
	pool.mu.Unlock()
	if listed != 3 || held > poolMaxFloats {
		t.Fatalf("free list holds %d buffers of %d floats (%d floats in all), want 3 within the %d cap", listed, n, held, poolMaxFloats)
	}
	for range listed {
		Alloc(n)
	}
}

func TestPoisonFreed(t *testing.T) {
	PoisonFreed(true)
	defer PoisonFreed(false)
	a := Alloc(PoolMin)
	Free(a)
	for i, v := range a {
		if !math.IsNaN(v) {
			t.Fatalf("freed buffer[%d] = %v, want the NaN pattern", i, v)
		}
	}
	// Alloc does not clear what it recycles: under poisoning a recycled
	// buffer is NaN, not zero, so a kernel that reads a word of its output
	// before writing it computes a wrong digest.
	for i, v := range Alloc(PoolMin) {
		if !math.IsNaN(v) {
			t.Fatalf("recycled Alloc[%d] = %v, want the NaN pattern", i, v)
		}
	}
	// The store overwrites what it takes: poison never reaches a reader.
	s := NewStore(1)
	data := make([]float64, PoolMin)
	data[1] = 2
	s.Write(1, 0, 1, data)
	got, err := s.Read(1, 0)
	if err != nil || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Read under poisoning = %v, %v", got[:2], err)
	}
}

// TestSlotHandle: the handle Store.Slot returns is the block — the same
// handle on every call, the same versions and errors as the store's own Read
// and Write — and a block that keeps one version at a time costs the
// slot and the stored payload, nothing else.
func TestSlotHandle(t *testing.T) {
	s := NewStore(1, WithVerification())
	sl := s.Slot(7)
	if s.Slot(7) != sl {
		t.Fatal("Slot returned a second handle for the same block")
	}
	sum, _, evicted := sl.Write(0, 70, 0, []float64{1, 2}, nil)
	if evicted || sum != Checksum([]float64{1, 2}) {
		t.Fatalf("first slot write: sum=%#x evicted=%v", sum, evicted)
	}
	if got, err := s.Read(7, 0); err != nil || got[1] != 2 {
		t.Fatalf("store read of a slot write = %v, %v", got, err)
	}
	_, victim, evicted := s.Write(7, 1, 71, []float64{3})
	if !evicted || victim != 70 {
		t.Fatalf("store write into the slot's ring: victim=%d evicted=%v, want 70 true", victim, evicted)
	}
	if got, err := sl.Read(1, nil, nil); err != nil || got[0] != 3 {
		t.Fatalf("slot read of a store write = %v, %v", got, err)
	}
	_, err := sl.Read(0, nil, nil)
	var ae *AccessError
	if !errors.As(err, &ae) || !errors.Is(err, ErrNotRetained) || ae.Ref != (Ref{7, 0}) {
		t.Fatalf("slot read of the evicted version: %v", err)
	}
	s.Corrupt(7, 1, 0)
	if _, err := sl.Read(1, nil, nil); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("slot read of a corrupted version: %v", err)
	}

	single := NewStore(0)
	block := ID(0)
	if allocs := testing.AllocsPerRun(100, func() {
		single.Slot(block).Write(0, 1, 0, []float64{1}, nil)
		block++
	}); allocs > 3 { // slot, payload copy, and the slot table's amortized growth
		t.Fatalf("a new single-version block cost %v allocations, want <= 3", allocs)
	}
}

// TestArena: read copies below PoolMin come out of the arena without an
// allocation apiece, survive what happens to the store, die at Reset, and
// larger copies bypass the arena.
func TestArena(t *testing.T) {
	s := NewStore(0)
	small, large := s.Slot(1), s.Slot(2)
	small.Write(0, 1, 0, []float64{1, 2, 3}, nil)
	large.Write(0, 2, 0, make([]float64, PoolMin), nil)

	var a Arena
	first, err := small.Read(0, &a, nil)
	if err != nil || len(first) != 3 || cap(first) != 3 || first[2] != 3 {
		t.Fatalf("arena read = %v (cap %d), %v", first, cap(first), err)
	}
	second, _ := small.Read(0, &a, nil)
	if &first[0] == &second[0] {
		t.Fatal("two arena reads share memory")
	}
	s.Corrupt(1, 0, 0)
	if first[0] != 1 || second[0] != 1 {
		t.Fatal("arena copy changed when the stored version was corrupted")
	}
	small.Write(0, 1, 0, []float64{1, 2, 3}, nil)
	if big, _ := large.Read(0, &a, nil); a.used != 6 {
		t.Fatalf("a %d-float read took arena space (used %d)", len(big), a.used)
	}

	a.Reset()
	reused, _ := small.Read(0, &a, nil)
	if &reused[0] != &first[0] {
		t.Fatal("Reset did not make the chunk available again")
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			if _, err := small.Read(0, &a, nil); err != nil {
				t.Fatal(err)
			}
		}
		a.Reset()
	}); allocs != 0 {
		t.Fatalf("8 small reads and a Reset allocated %v times, want 0", allocs)
	}
	// More than a chunk between Resets: earlier copies stay intact.
	var held [][]float64
	for i := 0; i < 2*arenaChunk; i++ {
		c, _ := small.Read(0, &a, nil)
		held = append(held, c)
	}
	for i, c := range held {
		if c[0] != 1 || c[1] != 2 || c[2] != 3 {
			t.Fatalf("copy %d of %d damaged by a later one: %v", i, len(held), c)
		}
	}

	PoisonFreed(true)
	defer PoisonFreed(false)
	a.Reset()
	stale, _ := small.Read(0, &a, nil)
	a.Reset()
	if !math.IsNaN(stale[0]) {
		t.Fatalf("copy used after Reset reads %v under PoisonFreed, want the NaN pattern", stale[0])
	}
}

// benchSink keeps the compiler from dropping a benchmarked call.
var benchSink uint64

// payloadSizes are the benchmarked payloads: the fine-grain graphs' one
// float, one below PoolMin, and the apps' 1 KiB boundary rows up to 32 KiB
// tiles.
var payloadSizes = []struct {
	name   string
	floats int
}{{"8B", 1}, {"64B", 8}, {"1KiB", 128}, {"8KiB", 1024}, {"32KiB", 4096}}

// BenchmarkChecksum is the integrity function's throughput at the payload
// sizes: on the body this CPU runs (rows named by size alone), then on each
// other body it has (rows named by body, then size).
func BenchmarkChecksum(b *testing.B) {
	for _, bd := range bodies() {
		prefix := bodyNames[bd] + "/"
		if bd == body {
			prefix = ""
		}
		for _, size := range payloadSizes {
			b.Run(prefix+size.name, func(b *testing.B) { benchChecksum(b, bd, size.floats) })
		}
	}
}

// benchChecksum is one row of BenchmarkChecksum: n words on body bd.
func benchChecksum(b *testing.B, bd, n int) {
	restore := useBody(bd)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += Checksum(data)
	}
	b.StopTimer()
	restore()
}

// BenchmarkSlotRead is an executor's read path: a copy out of the store into
// the arena or off the free list, hashed in the same pass when verified, and
// the reader's release. It reports ns/KiB beside ns/op.
func BenchmarkSlotRead(b *testing.B) {
	for _, verify := range []bool{true, false} {
		var opts []Option
		name := "plain"
		if verify {
			opts, name = []Option{WithVerification()}, "verified"
		}
		for _, size := range payloadSizes {
			b.Run(name+"/"+size.name, func(b *testing.B) {
				s := NewStore(0, opts...)
				s.Write(0, 0, 0, randomBits(rand.New(rand.NewPCG(5, 6)), size.floats))
				sl := s.Slot(0)
				var a Arena
				b.SetBytes(int64(size.floats * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d, err := sl.Read(0, &a, nil)
					if err != nil {
						b.Fatal(err)
					}
					if len(d) >= PoolMin {
						Free(d)
					} else {
						a.Reset()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(size.floats*8)/1024), "ns/KiB")
			})
		}
	}
}

// BenchmarkStoreWriteReadRelease is one version's life in a memory-reuse
// store: copy-in write that evicts its predecessor, verified copy-out read,
// and the reader's release. In steady state every buffer comes off the free
// list: 0 allocs/op.
func BenchmarkStoreWriteReadRelease(b *testing.B) {
	s := NewStore(1, WithVerification())
	data := make([]float64, 1024)
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(1, i, 1, data)
		got, err := s.Read(1, i)
		if err != nil {
			b.Fatal(err)
		}
		Free(got)
	}
}

// TestConcurrentAccess hammers one store from many goroutines: writers
// advancing versions on shared blocks (direct-indexed, negative and huge IDs
// alike), readers of recent versions, and corrupters. Reads return a version,
// ErrNotRetained or ErrCorrupted and nothing else, writes evict, the high-water
// mark is every block's ring full, and the retention invariant holds. The race
// detector checks the rest.
func TestConcurrentAccess(t *testing.T) {
	s := NewStore(2, WithVerification())
	const (
		goroutines = 8
		iters      = 2000
	)
	ids := []ID{0, 1, 77, -3, 1 << 40}
	var evictions atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b, v := ids[i%len(ids)], i/len(ids)
				switch g % 3 {
				case 0:
					if _, _, evicted := s.Write(b, v, int64(g), []float64{float64(i)}); evicted {
						evictions.Add(1)
					}
				case 1:
					switch got, err := s.Read(b, v); {
					case err == nil && len(got) != 1:
						t.Errorf("read of block %d v%d returned %v", b, v, got)
					case err == nil:
					case !errors.Is(err, ErrNotRetained) && !errors.Is(err, ErrCorrupted):
						t.Errorf("read of block %d v%d: %v", b, v, err)
					}
				case 2:
					if i%97 == 0 {
						s.Corrupt(b, v, 0)
					} else {
						s.Latest(b)
					}
				}
			}
		}()
	}
	wg.Wait()
	if evictions.Load() == 0 {
		t.Fatal("no write evicted: the rings never filled")
	}
	if got, want := s.BytesRetained(), int64(len(ids)*2*8); got != want {
		t.Fatalf("BytesRetained = %d, want %d: two one-float versions of each of %d blocks", got, want, len(ids))
	}
	// Retention invariant survives concurrency.
	for _, b := range ids {
		if vs := s.Versions(b); len(vs) > 2 {
			t.Fatalf("block %d retains %d versions, cap 2", b, len(vs))
		}
	}
}
