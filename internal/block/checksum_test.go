package block

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"

	"ftdag/internal/cpuid"
)

// bodyNames names the bodies of digests.
var bodyNames = map[int]string{bodyGo: "go", bodyAVX2: "avx2", bodyAVX512: "avx512"}

// bodies returns the bodies of digests this CPU runs, the Go one first and
// the widest last. A race build runs the assembly ones only in tests, which
// ask for them by name.
func bodies() []int {
	b := []int{bodyGo}
	if cpuid.AVX2 {
		b = append(b, bodyAVX2)
	}
	if cpuid.AVX512 {
		b = append(b, bodyAVX512)
	}
	return b
}

// useBody makes digests run the given body until the returned func is
// called.
func useBody(b int) (restore func()) {
	saved := body
	body = b
	return func() { body = saved }
}

// forEachBody runs f as one subtest per body of digests.
func forEachBody(t *testing.T, f func(t *testing.T)) {
	for _, b := range bodies() {
		restore := useBody(b)
		t.Run(bodyNames[b], f)
		restore()
	}
}

// TestBodyPerBuild: the race detector's builds hash with the Go body, and
// every other build with the widest assembly body the CPU has.
func TestBodyPerBuild(t *testing.T) {
	want := bodyGo
	switch {
	case raceEnabled || !cpuid.AVX2:
	case cpuid.AVX512:
		want = bodyAVX512
	default:
		want = bodyAVX2
	}
	if body != want {
		t.Fatalf("body = %s, want %s (race build: %v, AVX2: %v, AVX-512: %v)", bodyNames[body], bodyNames[want], raceEnabled, cpuid.AVX2, cpuid.AVX512)
	}
	t.Logf("AVX2: %v; AVX-512 F+DQ: %v; race build: %v; body: %s", cpuid.AVX2, cpuid.AVX512, raceEnabled, bodyNames[body])
}

// checksumTextbook is Checksum as its doc defines it, written out plainly:
// the oracle of every body.
func checksumTextbook(data []float64) uint64 {
	stepW := func(h uint64, w float64) uint64 {
		return (bits.RotateLeft64(h, 29) ^ math.Float64bits(w)) * sumMul
	}
	combine := func(h, x uint64) uint64 { return (bits.RotateLeft64(h, 31) ^ x) * sumMul }
	n := len(data)
	h := uint64(n) * sumMul2
	if n < 32 {
		l := [4]uint64{seed0, seed1, seed2, seed3}
		for i, w := range data {
			l[i%4] = stepW(l[i%4], w)
		}
		for _, x := range l {
			h = combine(h, x)
		}
	} else {
		for from := 0; from < n; from += 256 {
			var l [32]uint64
			for j := range l {
				x := uint64(seed0) + uint64(j)*sumMul
				x ^= x >> 32
				x *= sumMul2
				l[j] = x ^ x>>29
			}
			for i, w := range data[from:min(from+256, n)] {
				l[i%32] = stepW(l[i%32], w)
			}
			for half := 16; half >= 1; half /= 2 {
				for j := 0; j < half; j++ {
					l[j] ^= bits.RotateLeft64(l[j+half], 29)
				}
			}
			h = combine(h, l[0])
		}
	}
	h ^= h >> 32
	h *= sumMul2
	return h ^ h>>29
}

// specialBits returns n random words with NaNs of random payload, ±0, ±∞ and
// subnormals sprinkled in.
func specialBits(r *rand.Rand, n int) []float64 {
	specials := []uint64{0, 1 << 63, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000, 0x7FF8_0000_0000_0000, 1, 0x000F_FFFF_FFFF_FFFF}
	d := randomBits(r, n)
	for i := range d {
		switch r.IntN(8) {
		case 0:
			d[i] = math.Float64frombits(specials[r.IntN(len(specials))])
		case 1:
			d[i] = math.Float64frombits(0x7FF0_0000_0000_0001 | r.Uint64())
		}
	}
	return d
}

// checkBodies fails t unless every body gives the textbook checksum of data,
// through Checksum, copySum (leaving an exact copy) and checksumSnaps (the
// digests the Go body records).
func checkBodies(t *testing.T, data []float64) {
	t.Helper()
	want := checksumTextbook(data)
	var goSnaps []uint64
	for _, b := range bodies() {
		func() {
			defer useBody(b)()
			name := bodyNames[b]
			if got := Checksum(data); got != want {
				t.Fatalf("%s, len %d: Checksum = %#x, want %#x", name, len(data), got, want)
			}
			dst := make([]float64, len(data))
			if got := copySum(dst, data); got != want || !sameBits(dst, data) {
				t.Fatalf("%s, len %d: copySum = %#x (copy exact: %v), want %#x", name, len(data), got, sameBits(dst, data), want)
			}
			snaps := make([]uint64, snapCount(len(data)))
			if got := checksumSnaps(data, snaps); got != want {
				t.Fatalf("%s, len %d: checksumSnaps = %#x, want %#x", name, len(data), got, want)
			}
			if goSnaps == nil {
				goSnaps = snaps
			}
			for k := range snaps {
				if snaps[k] != goSnaps[k] {
					t.Fatalf("%s, len %d: digest of segment %d = %#x, the Go body's %#x", name, len(data), k, snaps[k], goSnaps[k])
				}
			}
		}()
	}
}

// FuzzChecksumBodies: the Go, AVX2 and AVX-512 bodies — those the CPU has —
// give the textbook checksum at every length from 0 to 5 000 words, with NaN,
// ±0, ±∞ and subnormal words, through every caller of digests. Its seeds,
// which every test run checks, are each length to three segments and a
// stripe, and lengths past stackSegs segments, where a checksum hashes in two
// runs.
func FuzzChecksumBodies(f *testing.F) {
	for n := 0; n <= 3*segWords+stripe; n++ {
		f.Add(uint16(n), uint64(n))
	}
	for _, n := range []uint16{4096, 4160, 4161, stackSegs * segWords, stackSegs*segWords + 1, 5000} {
		f.Add(n, uint64(n))
	}
	f.Fuzz(func(t *testing.T, n uint16, seed uint64) {
		checkBodies(t, specialBits(rand.New(rand.NewPCG(seed, uint64(n))), int(n)%5001))
	})
}
