package block

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// named returns the words the runs name in data, and the segments holding
// them, by enumerating every word: the specification ReadAt is held to.
func named(data []float64, runs []Run) ([]float64, map[int]bool) {
	var words []float64
	segs := map[int]bool{}
	for _, r := range runs {
		for i := 0; i < r.N; i++ {
			w := r.Off + i*r.Stride
			words = append(words, data[w])
			segs[w/segWords] = true
		}
	}
	return words, segs
}

// sameBits reports whether a and b hold the same bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestChecksumSnapsIsChecksum: the hash a verifying write records its
// segment digests with is Checksum, at every length from one word to three
// segments and three words, on every body; it records one digest per segment
// when there are two or more and none otherwise, and each is the digest of
// its segment's words alone, hashed from the seeds — all a ReadAt of the
// segment needs.
func TestChecksumSnapsIsChecksum(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		r := rand.New(rand.NewPCG(7, 8))
		var d [1]uint64
		for n := 1; n <= 3*segWords+3; n++ {
			data := randomBits(r, n)
			snaps := make([]uint64, snapCount(n))
			if got, want := checksumSnaps(data, snaps), Checksum(data); got != want {
				t.Fatalf("len %d: checksumSnaps = %#x, Checksum = %#x", n, got, want)
			}
			if want := (n + segWords - 1) / segWords; n > segWords && len(snaps) != want || n <= segWords && len(snaps) != 0 {
				t.Fatalf("len %d: %d digests, want one per segment of a payload of two or more (%d)", n, len(snaps), want)
			}
			for k, h := range snaps {
				seg := slices.Clone(data[k*segWords : min(k*segWords+segWords, n)])
				if got := digests(nil, seg, d[:])[0]; got != h {
					t.Fatalf("len %d: digest %d is %#x, its segment's words alone hash to %#x", n, k, h, got)
				}
			}
		}
	})
}

// readAtPatterns are the runs the segment tests read a payload of n words
// by: a tile's last row, column and corner, one word of a middle segment,
// two runs in different segments, a stride that skips a whole segment, and
// only the first or only the last word of each segment — those of them that
// fit.
func readAtPatterns(n int) map[string][]Run {
	p := map[string][]Run{
		"row":            {{Off: n - 16, Stride: 1, N: 16}},
		"column":         {{Off: 5, Stride: 37, N: (n - 6) / 37}},
		"corner":         {{Off: n - 1, Stride: 1, N: 1}},
		"middle":         {{Off: segWords + 7, Stride: 1, N: 1}},
		"two runs":       {{Off: 0, Stride: 1, N: 3}, {Off: 2 * segWords, Stride: 1, N: 2}},
		"skip":           {{Off: 10, Stride: 2 * segWords, N: 2}},
		"row + max":      {{Off: n - 17, Stride: 1, N: 16}, {Off: n - 1, Stride: 1, N: 1}},
		"segment starts": {{Off: segWords, Stride: segWords, N: (n - 1) / segWords}},
		"segment ends":   {{Off: segWords - 1, Stride: segWords, N: n / segWords}},
	}
	for name, runs := range p {
		if !fits(runs, n, Words(runs...)) {
			delete(p, name)
		}
	}
	return p
}

// TestReadAtChecksTheSegmentsItReads: for every word of payloads of one
// segment, of three whole ones and of two and a partial third, a flipped bit
// fails a verified ReadAt exactly when one of the read's runs names a word
// of that word's segment; otherwise the read returns the words named, bit for
// bit. A read whose runs miss the flipped word's segment must not see it —
// the point of reading by segment — and one that names any word of it must.
func TestReadAtChecksTheSegmentsItReads(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	for _, n := range []int{segWords, 2*segWords + 3, 3 * segWords} {
		s := NewStore(1, WithVerification())
		data := randomBits(r, n)
		s.Write(1, 0, 1, data)
		sl := s.Slot(1)
		for name, runs := range readAtPatterns(n) {
			want, segs := named(data, runs)
			dst := make([]float64, len(want))
			for w := 0; w < n; w++ {
				bit := r.IntN(64)
				scribble(s, 1, 0, w, math.Float64frombits(math.Float64bits(data[w])^1<<bit))
				err := sl.ReadAt(0, dst, runs...)
				scribble(s, 1, 0, w, data[w])
				switch {
				case segs[w/segWords] && (!errors.Is(err, ErrCorrupted) || !errors.Is(err, ErrChecksum)):
					t.Fatalf("len %d, %s: bit %d of word %d (segment %d, read) flipped: ReadAt = %v, want ErrChecksum, an ErrCorrupted", n, name, bit, w, w/segWords, err)
				case !segs[w/segWords] && err != nil:
					t.Fatalf("len %d, %s: bit %d of word %d (segment %d, not read) flipped: ReadAt = %v, want the words", n, name, bit, w, w/segWords, err)
				case err == nil && !sameBits(dst, want):
					t.Fatalf("len %d, %s: ReadAt returned %v, want %v", n, name, dst, want)
				}
			}
		}
	}
}

// TestReadAtChecksTheFlagFirst: a Corrupted version fails a ReadAt whose runs
// miss word 0 — the only word Corrupt scrambles — so the flag, not the hash,
// is what failed it, and the read copies nothing: dst keeps what it held.
// The same holds on a store that does not verify.
func TestReadAtChecksTheFlagFirst(t *testing.T) {
	for _, verify := range []bool{true, false} {
		var opts []Option
		if verify {
			opts = append(opts, WithVerification())
		}
		s := NewStore(0, opts...)
		n := 3 * segWords
		s.Write(1, 0, 1, randomBits(rand.New(rand.NewPCG(11, 12)), n))
		s.Corrupt(1, 0, 0)
		dst := []float64{-1, -2}
		err := s.Slot(1).ReadAt(0, dst, Run{Off: n - 2, Stride: 1, N: 2})
		if !errors.Is(err, ErrCorrupted) || errors.Is(err, ErrChecksum) {
			t.Fatalf("verify=%v: ReadAt of the last segment of a Corrupted version = %v, want ErrCorrupted and not ErrChecksum", verify, err)
		}
		if dst[0] != -1 || dst[1] != -2 {
			t.Fatalf("verify=%v: a ReadAt of a Corrupted version copied %v into dst", verify, dst)
		}
	}
}

// TestReadAtEvicted: a ReadAt of an evicted or never-written version is
// ErrNotRetained, with the Ref, like Read.
func TestReadAtEvicted(t *testing.T) {
	s := NewStore(1, WithVerification())
	sl := s.Slot(4)
	sl.Write(0, 40, 0, make([]float64, 2*segWords), nil)
	sl.Write(1, 41, 0, make([]float64, 2*segWords), nil)
	dst := make([]float64, 1)
	for _, v := range []int{0, 2} {
		err := sl.ReadAt(v, dst, Run{Off: 0, Stride: 1, N: 1})
		var ae *AccessError
		if !errors.As(err, &ae) || !errors.Is(err, ErrNotRetained) || ae.Ref != (Ref{4, v}) {
			t.Fatalf("ReadAt of version %d: %v, want ErrNotRetained for block 4 v%d", v, err, v)
		}
	}
	if err := sl.ReadAt(1, dst, Run{Off: 0, Stride: 1, N: 1}); err != nil {
		t.Fatalf("ReadAt of the retained version: %v", err)
	}
}

// TestReadAtGathers: on stores with and without verification, at lengths on
// both sides of a segment and with payloads rewritten in place and evicted
// (the digest arrays are reused), ReadAt returns what Gather takes from a
// whole-payload Read, and that is the words the runs name.
func TestReadAtGathers(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	for _, verify := range []bool{true, false} {
		for _, k := range []int{0, 1, 2} {
			var opts []Option
			if verify {
				opts = append(opts, WithVerification())
			}
			s := NewStore(k, opts...)
			sl := s.Slot(1)
			for v, n := range []int{1, 5, segWords, segWords + 1, 4096, 4097, 4096, 17*segWords + 9, 3 * segWords} {
				data := randomBits(r, n)
				sl.Write(v, 1, 0, slices.Clone(data), nil)
				sl.Write(v, 1, 0, slices.Clone(data), nil) // in place
				whole, err := sl.Read(v, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				patterns := readAtPatterns(n)
				if n < 3*segWords {
					patterns = map[string][]Run{"first": {{Off: 0, Stride: 1, N: 1}}, "last": {{Off: n - 1, Stride: 1, N: 1}}, "every third": {{Off: 0, Stride: 3, N: (n + 2) / 3}}}
				}
				for name, runs := range patterns {
					want, _ := named(data, runs)
					dst, gathered := make([]float64, len(want)), make([]float64, len(want))
					if err := sl.ReadAt(v, dst, runs...); err != nil {
						t.Fatalf("verify=%v K=%d len %d %s: %v", verify, k, n, name, err)
					}
					Gather(gathered, whole, runs...)
					if !sameBits(dst, want) || !sameBits(gathered, want) || Words(runs...) != len(want) {
						t.Fatalf("verify=%v K=%d len %d %s: ReadAt %v, Gather %v, want %v", verify, k, n, name, dst, gathered, want)
					}
				}
			}
		}
	}
}

// TestReadAtAfterSilentCorruption: CorruptSilently re-derives the segment
// digests with the checksum, so a boundary read of any segment passes and
// returns the flipped word — the failure mode only replicas catch.
func TestReadAtAfterSilentCorruption(t *testing.T) {
	s := NewStore(1, WithVerification())
	data := make([]float64, 2*segWords+1)
	s.Write(1, 0, 1, slices.Clone(data))
	s.CorruptSilently(1, 0)
	dst := make([]float64, 3)
	if err := s.Slot(1).ReadAt(0, dst, Run{Off: 0, Stride: segWords, N: 3}); err != nil {
		t.Fatalf("ReadAt after a silent corruption: %v", err)
	}
	if dst[0] == 0 {
		t.Fatal("ReadAt after a silent corruption returned the original word")
	}
}

// TestReadAtRejectsRunsOutside: a run past the payload, a zero stride over
// several words or a dst too short panics — after the slot lock is dropped,
// so the block stays usable.
func TestReadAtRejectsRunsOutside(t *testing.T) {
	s := NewStore(0, WithVerification())
	sl := s.Slot(1)
	sl.Write(0, 1, 0, make([]float64, 10), nil)
	for _, c := range []struct {
		dst  int
		runs []Run
	}{
		{1, []Run{{Off: 10, Stride: 1, N: 1}}},
		{2, []Run{{Off: 9, Stride: 1, N: 2}}},
		{2, []Run{{Off: 0, Stride: 0, N: 2}}},
		{1, []Run{{Off: -1, Stride: 1, N: 1}}},
		{1, []Run{{Off: 0, Stride: 1, N: 2}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ReadAt(%d-word dst, %v) of a 10-word payload did not panic", c.dst, c.runs)
				}
			}()
			sl.ReadAt(0, make([]float64, c.dst), c.runs...)
		}()
	}
	if err := sl.ReadAt(0, make([]float64, 1), Run{Off: 9, Stride: 1, N: 1}); err != nil {
		t.Fatalf("ReadAt after the panics: %v", err)
	}
}

// TestSlotSize: a Slot stays in the 112-byte size class. Every block of every
// run has one — 102 401 on the fine-grain benchmark graph — and each field
// added to an entry is added to the Slot through its first entry, so the
// segment digests sit behind one pointer.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(Slot{}); got > 112 {
		t.Fatalf("Slot is %d bytes, want at most 112", got)
	}
}

// TestSnapshotsReused: in a store that retains K versions the segment digests
// of a version move into the array of the entry it displaces, so the
// steady-state write of a verifying store allocates nothing; a store that
// does not verify keeps no snapshots at all.
func TestSnapshotsReused(t *testing.T) {
	for _, k := range []int{1, 2} {
		s := NewStore(k, WithVerification())
		sl := s.Slot(1)
		v := 0
		write := func() {
			sl.Write(v, 1, 0, Alloc(4097), nil)
			v++
		}
		for range 2 * k {
			write()
		}
		if allocs := testing.AllocsPerRun(50, write); allocs != 0 {
			t.Fatalf("K=%d: a verifying write in steady state allocated %v times, want 0", k, allocs)
		}
	}
	s := NewStore(0)
	s.Write(1, 0, 1, make([]float64, 4*segWords))
	if sl := s.Slot(1); sl.entries[0].snaps != nil {
		t.Fatal("a store that does not verify kept segment digests")
	}
}

// FuzzSlotReadAt: for any payload length, any two runs that fit it and any
// flipped word (or none), a verified ReadAt fails exactly when the flipped
// word's segment holds a word the runs name, and otherwise returns those
// words.
func FuzzSlotReadAt(f *testing.F) {
	f.Add(uint16(4096), uint16(4032), uint16(1), uint16(64), uint16(63), uint16(64), uint16(64), uint16(100))
	f.Add(uint16(4097), uint16(4095), uint16(1), uint16(2), uint16(0), uint16(1), uint16(0), uint16(4096))
	f.Add(uint16(600), uint16(10), uint16(512), uint16(2), uint16(300), uint16(1), uint16(1), uint16(300))
	f.Fuzz(func(t *testing.T, n, off1, stride1, n1, off2, stride2, n2, flip uint16) {
		size := 1 + int(n)%(6*segWords)
		run := func(off, stride, cnt uint16) Run {
			r := Run{Off: int(off) % size, Stride: 1 + int(stride)%size}
			r.N = int(cnt) % (2 + (size-1-r.Off)/r.Stride)
			return r
		}
		runs := []Run{run(off1, stride1, n1), run(off2, stride2, n2)}
		s := NewStore(0, WithVerification())
		data := randomBits(rand.New(rand.NewPCG(uint64(n), uint64(flip))), size)
		s.Write(1, 0, 1, slices.Clone(data))
		w := int(flip) % (size + 1) // size: no word flipped
		if w < size {
			scribble(s, 1, 0, w, math.Float64frombits(math.Float64bits(data[w])^1<<(flip%64)))
		}
		want, segs := named(data, runs)
		dst := make([]float64, len(want))
		err := s.Slot(1).ReadAt(0, dst, runs...)
		hit := w < size && segs[w/segWords]
		switch {
		case hit && !errors.Is(err, ErrCorrupted):
			t.Fatalf("len %d, runs %v, word %d flipped: ReadAt = %v, want ErrCorrupted", size, runs, w, err)
		case !hit && err != nil:
			t.Fatalf("len %d, runs %v, word %d flipped: ReadAt = %v, want the words", size, runs, w, err)
		case err == nil && !sameBits(dst, want):
			t.Fatalf("len %d, runs %v: ReadAt returned %v, want %v", size, runs, dst, want)
		}
	})
}

// BenchmarkSlotReadAt is a boundary read of a 32 KiB tile of b = 64: its last
// row, its last column and its last cell, gathered out of the store and,
// when verified, checked segment by segment. The column is read twice: in
// place, b words b apart in every segment of the tile, and exported, as LCS
// and SW store it — a copy of the column after the b·b cells, read as one run
// out of the segment at the tail. The ns/KiB column is per KiB of the payload
// read from, beside BenchmarkSlotRead's copy of the whole tile.
func BenchmarkSlotReadAt(b *testing.B) {
	const tile = 64
	for _, verify := range []bool{true, false} {
		var opts []Option
		name := "plain"
		if verify {
			opts, name = []Option{WithVerification()}, "verified"
		}
		for _, c := range []struct {
			name    string
			payload int
			run     Run
		}{
			{"row", tile * tile, Run{Off: (tile - 1) * tile, Stride: 1, N: tile}},
			{"column", tile * tile, Run{Off: tile - 1, Stride: tile, N: tile}},
			{"exported-column", tile*tile + tile, Run{Off: tile * tile, Stride: 1, N: tile}},
			{"corner", tile * tile, Run{Off: tile*tile - 1, Stride: 1, N: 1}},
		} {
			b.Run(fmt.Sprintf("%s/%s", name, c.name), func(b *testing.B) {
				s := NewStore(0, opts...)
				s.Write(0, 0, 0, randomBits(rand.New(rand.NewPCG(5, 6)), c.payload))
				sl := s.Slot(0)
				runs := []Run{c.run}
				dst := make([]float64, c.run.N)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sl.ReadAt(0, dst, runs...); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.payload*8)*1024, "ns/KiB")
			})
		}
	}
}
