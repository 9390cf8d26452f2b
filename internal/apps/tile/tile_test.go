package tile

import (
	"fmt"
	"math"
	"testing"
)

// mulSubTextbook is MulSub's oracle: one dot product per element, a single
// chain of rounded products subtracted in ascending p.
func mulSubTextbook(c, a, b []float64, n int) {
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			s := c[r*n+q]
			for p := 0; p < n; p++ {
				s -= a[r*n+p] * b[p*n+q]
			}
			c[r*n+q] = s
		}
	}
}

// minPlusTextbook is MinPlus's oracle: one running minimum per element over
// ascending p.
func minPlusTextbook(c, a, b []float64, n int) {
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			s := c[r*n+q]
			for p := 0; p < n; p++ {
				if v := a[r*n+p] + b[p*n+q]; v < s {
					s = v
				}
			}
			c[r*n+q] = s
		}
	}
}

// columnTextbook and rowTextbook are Floyd-Warshall's phase-2 loops for the
// pivot column (c ⊗ pv) and row (pv ⊗ c): p outermost, and c's own column
// (row) p, updated by earlier iterations, read in place.
func columnTextbook(c, pv []float64, n int) {
	for p := 0; p < n; p++ {
		for r := 0; r < n; r++ {
			crp := c[r*n+p]
			for q := 0; q < n; q++ {
				if v := crp + pv[p*n+q]; v < c[r*n+q] {
					c[r*n+q] = v
				}
			}
		}
	}
}

func rowTextbook(c, pv []float64, n int) {
	for p := 0; p < n; p++ {
		for r := 0; r < n; r++ {
			prp := pv[r*n+p]
			for q := 0; q < n; q++ {
				if v := prp + c[p*n+q]; v < c[r*n+q] {
					c[r*n+q] = v
				}
			}
		}
	}
}

// kernelSizes cover the AVX2 block (multiples of 8), the Go 2×4 block
// (multiples of 4) and the plain loop.
var kernelSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 31, 32, 40, 64}

const seeds = 4

// rng is a xorshift stream, the generator the apps build their inputs with.
type rng uint64

func (g *rng) next() uint64 {
	x := uint64(*g)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*g = rng(x)
	return x * 0x2545F4914F6CDD1D
}

// uniform returns an n×n tile of values in [-1, 1).
func uniform(n int, seed uint64) []float64 {
	g := rng(seed*2685821657736338717 + 31)
	t := make([]float64, n*n)
	for i := range t {
		t[i] = float64(g.next()>>11)/float64(1<<53)*2 - 1
	}
	return t
}

// dist returns an n×n tile of integer distances in [1, hi].
func dist(n int, hi, seed uint64) []float64 {
	g := rng(seed*2685821657736338717 + 19)
	t := make([]float64, n*n)
	for i := range t {
		t[i] = float64(g.next()%hi + 1)
	}
	return t
}

// sprinkle overwrites about a quarter of t's words with values drawn from
// specials.
func sprinkle(t []float64, specials []float64, seed uint64) {
	g := rng(seed*0x9E3779B97F4A7C15 + 7)
	for i := range t {
		if x := g.next(); x%4 == 0 {
			t[i] = specials[(x>>8)%uint64(len(specials))]
		}
	}
}

// One NaN payload: with two, which one an operation on both returns depends
// on operand order, which the Go compiler is free to pick for a product.
var (
	nan       = math.NaN()
	subnormal = math.Float64frombits(1)
	// mulSubSpecials makes products and differences overflow, cancel to ±0,
	// turn invalid (0·∞, ∞ − ∞) and go subnormal.
	mulSubSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), nan,
		subnormal, -subnormal, math.SmallestNonzeroFloat64 * 3, 0x1p-1060, 0x1p1000, -0x1p1000}
	// minPlusSpecials are the unreachable distance and zero, plus what tests
	// VMINPD's operand order: ties between +0 and −0, and NaN.
	minPlusSpecials = []float64{math.Inf(1), 0, math.Copysign(0, -1), nan}
)

// forEachBody runs f once on the AVX2 bodies, where this build takes them,
// and once with them switched off.
func forEachBody(t *testing.T, f func(t *testing.T)) {
	saved := simd
	defer func() { simd = saved }()
	for _, on := range []bool{true, false} {
		if on && !saved {
			continue
		}
		simd = on
		name := "go"
		if on {
			name = "avx2"
		}
		t.Run(name, f)
	}
}

// sameBits fails t at the first word of got that differs from want.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: word %d = %v (%#x), textbook loop %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// check runs kernel and oracle on copies of one input and compares them.
func check(t *testing.T, what string, kernel, oracle func(c, a, b []float64, n int), c, a, b []float64, n int) {
	t.Helper()
	want := append([]float64(nil), c...)
	oracle(want, a, b, n)
	kernel(c, a, b, n)
	sameBits(t, what, c, want)
}

// TestBodyPerBuild: the race detector's builds run the Go bodies, and every
// other build the AVX2 ones exactly where the CPU has them.
func TestBodyPerBuild(t *testing.T) {
	if raceEnabled && simd {
		t.Fatal("a race build takes the AVX2 bodies, whose memory accesses the detector does not see")
	}
	if !raceEnabled && simd != hasAVX2 {
		t.Fatalf("simd = %v, CPU AVX2 = %v", simd, hasAVX2)
	}
	t.Logf("AVX2 on this CPU: %v; race build: %v; AVX2 bodies: %v", hasAVX2, raceEnabled, simd)
}

// TestMulSubMatchesTextbook: MulSub reproduces the textbook loop bit for bit
// on random tiles of every size, and on tiles sprinkled with ±0, ±∞, NaN,
// subnormals and overflowing magnitudes.
func TestMulSubMatchesTextbook(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for _, n := range kernelSizes {
			for seed := uint64(1); seed <= seeds; seed++ {
				c, a, b := uniform(n, 3*seed), uniform(n, 3*seed+1), uniform(n, 3*seed+2)
				check(t, fmt.Sprintf("n=%d seed=%d", n, seed), MulSub, mulSubTextbook, c, a, b, n)
				for i, x := range [][]float64{c, a, b} {
					sprinkle(x, mulSubSpecials, 3*seed+uint64(i))
				}
				check(t, fmt.Sprintf("specials n=%d seed=%d", n, seed), MulSub, mulSubTextbook, c, a, b, n)
			}
		}
	})
}

// TestMinPlusMatchesTextbook: MinPlus reproduces the textbook loop bit for
// bit on random distance tiles of every size, and on tiles sprinkled with
// +∞, ±0 and NaN.
func TestMinPlusMatchesTextbook(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for _, n := range kernelSizes {
			for seed := uint64(1); seed <= seeds; seed++ {
				c, a, b := dist(n, 48, 3*seed), dist(n, 16, 3*seed+1), dist(n, 16, 3*seed+2)
				check(t, fmt.Sprintf("n=%d seed=%d", n, seed), MinPlus, minPlusTextbook, c, a, b, n)
				for i, x := range [][]float64{c, a, b} {
					sprinkle(x, minPlusSpecials, 3*seed+uint64(i))
				}
				check(t, fmt.Sprintf("specials n=%d seed=%d", n, seed), MinPlus, minPlusTextbook, c, a, b, n)
			}
		}
	})
}

// pivot returns an n×n pivot tile as Floyd-Warshall's phase 1 leaves it:
// integer distances with a zero diagonal, closed under min-plus, some
// unreachable (+∞).
func pivot(n int, seed uint64) []float64 {
	pv := dist(n, 16, seed)
	sprinkle(pv, []float64{math.Inf(1)}, seed)
	for r := 0; r < n; r++ {
		pv[r*n+r] = 0
	}
	for p := 0; p < n; p++ {
		for r := 0; r < n; r++ {
			for q := 0; q < n; q++ {
				if v := pv[r*n+p] + pv[p*n+q]; v < pv[r*n+q] {
					pv[r*n+q] = v
				}
			}
		}
	}
	return pv
}

// TestMinPlusPivotRowAndColumn: with c passed as A (the pivot column,
// c ⊗ pv) or as B (the pivot row, pv ⊗ c), MinPlus reads words of c it has
// already updated, and still reproduces Floyd-Warshall's in-place phase-2
// loops bit for bit.
func TestMinPlusPivotRowAndColumn(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for _, n := range kernelSizes {
			for seed := uint64(1); seed <= seeds; seed++ {
				pv := pivot(n, 3*seed)
				for _, u := range []struct {
					name   string
					kernel func(c []float64)
					oracle func(c, pv []float64, n int)
				}{
					{"column", func(c []float64) { MinPlus(c, c, pv, n) }, columnTextbook},
					{"row", func(c []float64) { MinPlus(c, pv, c, n) }, rowTextbook},
				} {
					c := dist(n, 48, 3*seed+1)
					sprinkle(c, []float64{math.Inf(1)}, 3*seed+2)
					want := append([]float64(nil), c...)
					u.oracle(want, pv, n)
					u.kernel(c)
					sameBits(t, fmt.Sprintf("%s n=%d seed=%d", u.name, n, seed), c, want)
				}
			}
		}
	})
}

// BenchmarkKernels prices one tile of each kernel at the QuickSizes and
// BenchSizes tile sides (16, 32) through the AVX2 body, the Go body and the
// textbook loop, rotating over 16 seeded inputs as the apps feed it many.
func BenchmarkKernels(b *testing.B) {
	const inputs = 16
	for _, n := range []int{16, 32} {
		type input struct{ c, a, b []float64 }
		mul, mp := make([]input, inputs), make([]input, inputs)
		for i := range mul {
			s := 3 * uint64(i+1)
			mul[i] = input{uniform(n, s), uniform(n, s+1), uniform(n, s+2)}
			mp[i] = input{dist(n, 48, s), dist(n, 16, s+1), dist(n, 16, s+2)}
		}
		c := make([]float64, n*n)
		for _, k := range []struct {
			name string
			in   []input
			f    func(c, a, b []float64, n int)
			simd bool
		}{
			{"MulSub/avx2", mul, MulSub, true},
			{"MulSub/go", mul, MulSub, false},
			{"MulSub/textbook", mul, mulSubTextbook, false},
			{"MinPlus/avx2", mp, MinPlus, true},
			{"MinPlus/go", mp, MinPlus, false},
			{"MinPlus/textbook", mp, minPlusTextbook, false},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				saved := simd
				defer func() { simd = saved }()
				if k.simd && !saved {
					b.Skip("no AVX2 bodies in this build")
				}
				simd = k.simd
				for i := 0; i < b.N; i++ {
					x := &k.in[i%inputs]
					copy(c, x.c)
					k.f(c, x.a, x.b, n)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
			})
		}
	}
}
