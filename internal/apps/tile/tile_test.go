package tile

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ftdag/internal/cpuid"
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

// solveLowerTextbook is SolveLower's oracle, forward substitution a column
// at a time, as LU's left panel solve was written: one chain per element, its
// rounded products subtracted in ascending p, then the division.
func solveLowerTextbook(c, l []float64, n int, unit bool) {
	for q := 0; q < n; q++ {
		for r := 0; r < n; r++ {
			s := c[r*n+q]
			for p := 0; p < r; p++ {
				s -= l[r*n+p] * c[p*n+q]
			}
			if !unit {
				s /= l[r*n+r]
			}
			c[r*n+q] = s
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
// SolveLower multiplies rows it has computed, which may hold the NaN an
// invalid operation (0·∞, ∞ − ∞, 0/0) returns, so its specials hold that one.
var (
	nan       = math.NaN()
	zero      = 0.0
	madeNaN   = zero / zero
	subnormal = math.Float64frombits(1)
	// mulSubSpecials makes products and differences overflow, cancel to ±0,
	// turn invalid (0·∞, ∞ − ∞) and go subnormal.
	mulSubSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), nan,
		subnormal, -subnormal, math.SmallestNonzeroFloat64 * 3, 0x1p-1060, 0x1p1000, -0x1p1000}
	// minPlusSpecials are the unreachable distance and zero, plus what tests
	// VMINPD's operand order: ties between +0 and −0, and NaN.
	minPlusSpecials = []float64{math.Inf(1), 0, math.Copysign(0, -1), nan}
	// solveSpecials are mulSubSpecials with the NaN invalid operations make;
	// on a diagonal, ±0 and the subnormals make divisions overflow to ±∞ and
	// turn invalid (0/0, ∞/∞).
	solveSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), madeNaN,
		subnormal, -subnormal, math.SmallestNonzeroFloat64 * 3, 0x1p-1060, 0x1p1000, -0x1p1000}
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
	if !raceEnabled && simd != cpuid.AVX2 {
		t.Fatalf("simd = %v, CPU AVX2 = %v", simd, cpuid.AVX2)
	}
	for _, n := range kernelSizes {
		if got, want := dense(n), simd && n%8 == 0; got != want {
			t.Fatalf("MulSub, MinPlus, SolveLower and Transpose take the AVX2 body at n = %d: %v, want %v", n, got, want)
		}
	}
	if got := swTakes(swBoundary(8, 1, 0)); got != simd {
		t.Fatalf("SmithWaterman takes the AVX2 body at n = 8: %v, AVX2 bodies: %v", got, simd)
	}
	t.Logf("AVX2 on this CPU: %v; race build: %v; AVX2 bodies: %v", cpuid.AVX2, raceEnabled, simd)
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

// triangle returns an n×n tile for SolveLower's l: uniform, its diagonal
// raised by n so a solve's rows stay of the order of its input's.
func triangle(n int, seed uint64) []float64 {
	l := uniform(n, seed)
	for r := 0; r < n; r++ {
		l[r*n+r] += float64(n)
	}
	return l
}

// TestSolveLowerMatchesTextbook: SolveLower reproduces forward substitution
// bit for bit, with L's diagonal read and taken as ones, on random tiles of
// every size, on tiles sprinkled with ±0, ±∞, NaN, subnormals and
// overflowing magnitudes, and with such words forced onto the diagonal.
func TestSolveLowerMatchesTextbook(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for _, n := range kernelSizes {
			for seed := uint64(1); seed <= seeds; seed++ {
				for _, unit := range []bool{false, true} {
					c, l := uniform(n, 2*seed), triangle(n, 2*seed+1)
					solve := func(c, l, _ []float64, n int) { SolveLower(c, l, n, unit) }
					oracle := func(c, l, _ []float64, n int) { solveLowerTextbook(c, l, n, unit) }
					what := fmt.Sprintf("unit=%v n=%d seed=%d", unit, n, seed)
					check(t, what, solve, oracle, c, l, nil, n)
					sprinkle(c, solveSpecials, 2*seed)
					sprinkle(l, solveSpecials, 2*seed+1)
					check(t, "specials "+what, solve, oracle, c, l, nil, n)
					for r := 0; r < n; r++ {
						l[r*n+r] = solveSpecials[(r+int(seed))%len(solveSpecials)]
					}
					check(t, "special diagonal "+what, solve, oracle, c, l, nil, n)
				}
			}
		}
	})
}

// TestTranspose: Transpose moves every word of a tile, bits and all, to its
// mirror position, into another tile and in place.
func TestTranspose(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for _, n := range kernelSizes {
			src := uniform(n, uint64(n))
			sprinkle(src, solveSpecials, uint64(n))
			dst, inPlace := make([]float64, n*n), append([]float64(nil), src...)
			Transpose(dst, src, n)
			Transpose(inPlace, inPlace, n)
			for r := 0; r < n; r++ {
				for q := 0; q < n; q++ {
					want := math.Float64bits(src[r*n+q])
					if math.Float64bits(dst[q*n+r]) != want || math.Float64bits(inPlace[q*n+r]) != want {
						t.Fatalf("n=%d: dst[%d][%d] = %v, in place %v, src[%d][%d] = %v", n, q, r, dst[q*n+r], inPlace[q*n+r], r, q, src[r*n+q])
					}
				}
			}
		}
	})
}

// TestAssemblyHasNoFMA: no instruction of tile_amd64.s fuses a multiply and
// an add. A fused multiply-subtract rounds once where the textbook loops, as
// Go compiles them on amd64, round twice, so it would change the bits every
// dense kernel and the pinned digests promise.
func TestAssemblyHasNoFMA(t *testing.T) {
	src, err := os.ReadFile("tile_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	fma := regexp.MustCompile(`(?i)\bVF(N)?M(ADD|SUB)`)
	for i, line := range strings.Split(string(src), "\n") {
		code, _, _ := strings.Cut(line, "//")
		if fma.MatchString(code) {
			t.Errorf("tile_amd64.s:%d: %s: fused multiply-add", i+1, strings.TrimSpace(code))
		}
	}
}

// TestAssemblyIsVEXOnly: no instruction of any *_amd64.s in the module is a
// legacy-SSE one that names an X register. After a VEX or EVEX instruction
// has written the upper half of a YMM or ZMM register, a legacy-SSE write of
// an X register waits for that state to be saved or merged: on an AVX-512
// Xeon, one MOVQ AX, X15 after a checksum body's YMM work made a 16-word hash
// take ≈ 200 ns instead of 8. Every body must use the V forms (VMOVQ, VPXOR,
// …).
func TestAssemblyIsVEXOnly(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	xreg := regexp.MustCompile(`\bX([0-9]|1[0-5])\b`)
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, the benchmark's build cache
		case d.IsDir() || !strings.HasSuffix(path, "_amd64.s"):
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			for _, stmt := range strings.Split(strings.TrimSuffix(strings.TrimSpace(code), "\\"), ";") {
				fields := strings.Fields(stmt)
				if len(fields) < 2 || strings.HasPrefix(fields[0], "#") || strings.HasPrefix(fields[0], "V") {
					continue
				}
				if xreg.MatchString(strings.Join(fields[1:], " ")) {
					rel, _ := filepath.Rel(root, path)
					t.Errorf("%s:%d: %s: legacy-SSE instruction on an X register", rel, i+1, strings.TrimSpace(stmt))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no *_amd64.s file found")
	}
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

// The Smith-Waterman app's scores.
const swMatch, swMismatch, swGap = 2, -1, 1

// swTextbook is SmithWaterman's oracle: the per-cell loop in float64, every
// cell picking its up, left and diagonal neighbours through a switch on
// whether it sits in the tile's first row or column.
func swTextbook(h, top, left []float64, corner, runMax float64, xs, ys []byte) float64 {
	n := len(ys)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			var up, lf, dg float64
			if r == 0 {
				up = top[c]
			} else {
				up = h[(r-1)*n+c]
			}
			if c == 0 {
				lf = left[r]
			} else {
				lf = h[r*n+c-1]
			}
			switch {
			case r == 0 && c == 0:
				dg = corner
			case r == 0:
				dg = top[c-1]
			case c == 0:
				dg = left[r-1]
			default:
				dg = h[(r-1)*n+c-1]
			}
			s := float64(swMismatch)
			if xs[r] == ys[c] {
				s = swMatch
			}
			v := max(dg+s, up-swGap, lf-swGap, 0)
			h[r*n+c] = v
			runMax = max(runMax, v)
		}
	}
	return runMax
}

// swTakes reports whether SmithWaterman runs the AVX2 body to the end on in.
func swTakes(in swInput) bool {
	n := len(in.ys)
	if !swSIMD(n, swMatch, swMismatch, swGap) || !swWord(in.corner) {
		return false
	}
	h := make([]float64, n*n)
	_, ok := swAVX2(&h[0], &in.top[0], &in.left[0], &in.xs[0], &in.ys[0], n, int(in.corner), swMatch, swMismatch, swGap)
	return ok
}

// swKernel is SmithWaterman at the app's scores.
func swKernel(h, top, left []float64, corner, runMax float64, xs, ys []byte) float64 {
	return SmithWaterman(h, top, left, corner, runMax, xs, ys, swMatch, swMismatch, swGap)
}

// swGo is SmithWaterman's Go body at the app's scores.
func swGo(h, top, left []float64, corner, runMax float64, xs, ys []byte) float64 {
	return smithWatermanGo(h, top, left, corner, runMax, xs, ys, swMatch, swMismatch, swGap)
}

// swTableMax is the largest score a BenchSizes Smith-Waterman table reaches:
// match·N.
const swTableMax = swMatch * 2048

// swInput is one Smith-Waterman tile's boundary and symbols (alphabet 4).
type swInput struct {
	top, left   []float64
	corner, max float64
	xs, ys      []byte
}

// swBoundary returns a random boundary whose words are base or base+1: at
// base 0 a mismatch below and beside zeros takes the floor.
func swBoundary(n int, seed uint64, base float64) swInput {
	g := rng(seed*0x9E3779B97F4A7C15 + 5)
	in := swInput{top: make([]float64, n), left: make([]float64, n), xs: make([]byte, n), ys: make([]byte, n)}
	for i := range n {
		in.top[i], in.left[i] = base+float64(g.next()%2), base+float64(g.next()%2)
		in.xs[i], in.ys[i] = byte(g.next()%4), byte(g.next()%4)
	}
	in.corner, in.max = base+float64(g.next()%2), base+float64(seed)
	return in
}

// swCheck runs kernel and oracle on one input and compares cells and running
// maximum, also with the row above read from the tile's own last row, as the
// app reads it.
func swCheck(t *testing.T, what string, kernel, oracle func(h, top, left []float64, corner, runMax float64, xs, ys []byte) float64, in swInput) {
	t.Helper()
	n := len(in.ys)
	got, want, inPlace := make([]float64, n*n+1), make([]float64, n*n+1), make([]float64, n*n+1)
	want[n*n] = oracle(want[:n*n], in.top, in.left, in.corner, in.max, in.xs, in.ys)
	got[n*n] = kernel(got[:n*n], in.top, in.left, in.corner, in.max, in.xs, in.ys)
	sameBits(t, what, got, want)
	last := inPlace[(n-1)*n : n*n]
	copy(last, in.top)
	inPlace[n*n] = kernel(inPlace[:n*n], last, in.left, in.corner, in.max, in.xs, in.ys)
	sameBits(t, what+" top in the last row", inPlace, want)
}

// TestSmithWatermanMatchesTextbook: SmithWaterman reproduces the per-cell loop
// bit for bit, cells and running maximum, on random integer boundaries and
// sequences of every size, near zero and near the largest score of a
// BenchSizes table.
func TestSmithWatermanMatchesTextbook(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for _, n := range kernelSizes {
			for seed := uint64(1); seed <= 2*seeds; seed++ {
				base := 0.0
				if seed%2 == 0 {
					base = swTableMax - 1 - swMatch*float64(n)
				}
				swCheck(t, fmt.Sprintf("n=%d seed=%d", n, seed), swKernel, swTextbook, swBoundary(n, seed, base))
			}
		}
	})
}

// TestSmithWatermanSpecials: a boundary word that is NaN, infinite,
// fractional, outside the AVX2 body's int32 range or off by one flipped bit,
// and a running maximum that is not an integer, give the Go body's bits; and
// the AVX2 body declines every such word but a flipped one that is still an
// integer in its range.
func TestSmithWatermanSpecials(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for _, n := range kernelSizes {
			for seed := uint64(1); seed <= seeds; seed++ {
				in := swBoundary(n, seed, 3)
				g := rng(seed*31 + uint64(n))
				for _, special := range []float64{nan, math.Inf(1), math.Inf(-1), 3.5, swBound + 1, -swBound - 1, 1 << 40, 0} {
					// The boundary's 2n+1 words: the corner, then top, then left.
					w := int(g.next() % uint64(2*n+1))
					word := &in.corner
					switch {
					case w > n:
						word = &in.left[w-n-1]
					case w > 0:
						word = &in.top[w-1]
					}
					saved := *word
					if special == 0 {
						special = math.Float64frombits(math.Float64bits(saved) ^ 1<<(g.next()%64))
					}
					*word = special
					integral := special >= -swBound && special <= swBound && special == math.Trunc(special)
					if swTakes(in) && !integral {
						t.Fatalf("n=%d seed=%d: the AVX2 body took word %d = %v", n, seed, w, special)
					}
					swCheck(t, fmt.Sprintf("n=%d seed=%d word %d = %v", n, seed, w, special), swKernel, swGo, in)
					*word = saved
				}
				in.max = 2.5
				swCheck(t, fmt.Sprintf("n=%d seed=%d running maximum 2.5", n, seed), swKernel, swGo, in)
			}
		}
	})
}

// BenchmarkKernels prices one tile of each kernel at the QuickSizes and
// BenchSizes tile sides (16, 32; 16, 64 for SmithWaterman) through the AVX2
// body, the Go body and the textbook loop, rotating over 16 seeded inputs as
// the apps feed it many. SolveLower's rows solve against a diagonal that is
// read; the call shapes LU and Cholesky make of it, transposes included, are
// priced beside their textbook loops in those packages. Transpose only
// moves words and has no textbook row.
func BenchmarkKernels(b *testing.B) {
	const inputs = 16
	// run times f over the inputs on the body named by on.
	run := func(b *testing.B, on bool, f func(i int)) {
		saved := simd
		defer func() { simd = saved }()
		if on && !saved {
			b.Skip("no AVX2 bodies in this build")
		}
		simd = on
		for i := 0; i < b.N; i++ {
			f(i % inputs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
	}
	for _, n := range []int{16, 32} {
		type input struct{ c, a, b []float64 }
		mul, mp, tri := make([]input, inputs), make([]input, inputs), make([]input, inputs)
		for i := range mul {
			s := 3 * uint64(i+1)
			mul[i] = input{uniform(n, s), uniform(n, s+1), uniform(n, s+2)}
			mp[i] = input{dist(n, 48, s), dist(n, 16, s+1), dist(n, 16, s+2)}
			tri[i] = input{uniform(n, s), triangle(n, s+1), nil}
		}
		transpose := func(c, a, _ []float64, n int) { Transpose(c, a, n) }
		solve := func(c, l, _ []float64, n int) { SolveLower(c, l, n, false) }
		solveTextbook := func(c, l, _ []float64, n int) { solveLowerTextbook(c, l, n, false) }
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
			{"SolveLower/avx2", tri, solve, true},
			{"SolveLower/go", tri, solve, false},
			{"SolveLower/textbook", tri, solveTextbook, false},
			{"Transpose/avx2", mul, transpose, true},
			{"Transpose/go", mul, transpose, false},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				run(b, k.simd, func(i int) {
					x := &k.in[i]
					copy(c, x.c)
					k.f(c, x.a, x.b, n)
				})
			})
		}
	}
	for _, n := range []int{16, 64} {
		in := make([]swInput, inputs)
		for i := range in {
			in[i] = swBoundary(n, uint64(3*i+1), 0)
		}
		h := make([]float64, n*n)
		for _, k := range []struct {
			name string
			f    func(h, top, left []float64, corner, runMax float64, xs, ys []byte) float64
			simd bool
		}{
			{"SmithWaterman/avx2", swKernel, true},
			{"SmithWaterman/go", swKernel, false},
			{"SmithWaterman/textbook", swTextbook, false},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				run(b, k.simd, func(i int) {
					x := &in[i]
					k.f(h, x.top, x.left, x.corner, 0, x.xs, x.ys)
				})
			})
		}
	}
}
