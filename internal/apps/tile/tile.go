// Package tile holds the three dense kernels under LU, Cholesky and
// Floyd-Warshall, on n×n row-major tiles: MulSub (C −= A·B), MinPlus
// (C = min(C, A ⊗ B)) and SolveLower (L·X = C, the panel solves), with the
// Transpose that LU's and Cholesky's other shapes take them through; and
// Smith-Waterman's tile fill, SmithWaterman.
//
// Each kernel has two bodies. Where the CPU has AVX2 with the YMM state
// enabled by the OS (internal/cpuid, checked once, at init) and n is a multiple of 8, an
// assembly body runs a 4×8 register block: eight ymm accumulators hold a
// 4-row, 8-column block of C across the p loop, and each p loads two ymm of
// B's row p and broadcasts one element of A per row (SolveLower: of L, with
// B the rows of C above the block, then the block's own triangle). Elsewhere
// — other CPUs, other architectures, other sizes, and every race-detector
// build, whose detector does not see memory accesses made in assembly — the
// Go body runs: a 2×4 register block, or the plain loop when n is not a
// multiple of 4.
//
// SmithWaterman's AVX2 body works on the same CPUs, builds and multiples of 8,
// in int32 lanes, a row at a time (its doc says how); its Go body is the
// scalar int64 fill. Both compute integers, exactly.
//
// Every dense body computes each element with the textbook loop's operations
// in its order: the element starts from c and takes its p terms in ascending
// p, one IEEE operation per step, no FMA (MulSub: a product, then a
// difference; MinPlus: a sum, then `if v < s { s = v }`; SolveLower: MulSub's,
// then one division). Outputs are bit-identical across bodies and hosts, ±0,
// infinities and NaN included.
package tile

import "ftdag/internal/cpuid"

// simd selects the AVX2 bodies for sizes they take. It is fixed at init;
// tests clear it to run the Go bodies on the same inputs.
var simd = cpuid.AVX2 && !raceEnabled

// dense reports whether the dense kernels take their AVX2 bodies for n×n
// tiles.
func dense(n int) bool { return simd && n > 0 && n%8 == 0 }

// MulSub computes C −= A·B: c[r][q] −= a[r][p]·b[p][q] for p = 0, 1, …, n−1
// in turn, each product rounded before it is subtracted.
func MulSub(c, a, b []float64, n int) {
	if dense(n) {
		_, _, _ = c[n*n-1], a[n*n-1], b[n*n-1] // the assembly checks no bounds
		mulSubAVX2(&c[0], &a[0], &b[0], n)
		return
	}
	mulSubGo(c, a, b, n)
}

// MinPlus computes C = min(C, A ⊗ B): for p = 0, 1, …, n−1 in turn,
// v = a[r][p] + b[p][q] replaces c[r][q] when v < c[r][q].
//
// c may also be passed as a or as b, and then the kernel reads words of c
// it may already have updated, in an order that depends on the body. The
// Floyd-Warshall pivot row and column do that (internal/apps/fw says why the
// result is still the textbook loop's); with other inputs it is not.
func MinPlus(c, a, b []float64, n int) {
	if dense(n) {
		_, _, _ = c[n*n-1], a[n*n-1], b[n*n-1] // the assembly checks no bounds
		minPlusAVX2(&c[0], &a[0], &b[0], n)
		return
	}
	minPlusGo(c, a, b, n)
}

// SolveLower solves L·X = C in place, L being the lower triangle of l: row r
// of X is c[r] − Σ l[r][p]·x[p] over p < r, each product rounded before it
// is subtracted, in ascending p, then divided by l[r][r] — or not, when unit
// is set and L's diagonal is taken as ones (l's own is not read). c and l
// must not overlap.
//
// Every element thus takes the textbook forward substitution's operations in
// its order, which is what makes the rows an AXPY: row r subtracts
// l[r][p]·c[p] for each finished row p above it, then divides. A right-hand
// solve X·U = C is this one on the transposes, Uᵀ·Xᵀ = Cᵀ.
func SolveLower(c, l []float64, n int, unit bool) {
	if dense(n) {
		_, _ = c[n*n-1], l[n*n-1] // the assembly checks no bounds
		solveLowerAVX2(&c[0], &l[0], n, unit)
		return
	}
	solveLowerGo(c, l, n, unit)
}

// solveLowerGo is SolveLower's Go body: mulSubGo's 2×4 register block over
// the rows above each pair of rows, then the pair's own 2×2 triangle in
// registers. An n that is not a multiple of 4 takes the plain AXPY loop, a
// row at a time.
func solveLowerGo(c, l []float64, n int, unit bool) {
	if n%4 != 0 {
		for r := 0; r < n; r++ {
			row := c[r*n : r*n+n]
			for p, lrp := range l[r*n : r*n+r] {
				x := c[p*n : p*n+n]
				x = x[:len(row)] // equal lengths: no bounds check on x[q]
				for q := range row {
					row[q] -= lrp * x[q]
				}
			}
			if !unit {
				d := l[r*n+r]
				for q := range row {
					row[q] /= d
				}
			}
		}
		return
	}
	for r := 0; r < n; r += 2 {
		l0s := l[r*n : r*n+r]
		l1s := l[r*n+n : r*n+n+r]
		l1s = l1s[:len(l0s)] // equal lengths: no bounds check on l1s[p]
		l10, d0, d1 := l[r*n+n+r], l[r*n+r], l[r*n+n+r+1]
		c0 := c[r*n : r*n+n]
		c1 := c[r*n+n : r*n+2*n]
		for q := 0; q < n; q += 4 {
			x0, x1 := c0[q:q+4:q+4], c1[q:q+4:q+4]
			s00, s01, s02, s03 := x0[0], x0[1], x0[2], x0[3]
			s10, s11, s12, s13 := x1[0], x1[1], x1[2], x1[3]
			for p, a0 := range l0s {
				a1 := l1s[p]
				y := c[p*n+q : p*n+q+4 : p*n+q+4]
				s00 -= a0 * y[0]
				s01 -= a0 * y[1]
				s02 -= a0 * y[2]
				s03 -= a0 * y[3]
				s10 -= a1 * y[0]
				s11 -= a1 * y[1]
				s12 -= a1 * y[2]
				s13 -= a1 * y[3]
			}
			if !unit {
				s00, s01, s02, s03 = s00/d0, s01/d0, s02/d0, s03/d0
			}
			s10 -= l10 * s00
			s11 -= l10 * s01
			s12 -= l10 * s02
			s13 -= l10 * s03
			if !unit {
				s10, s11, s12, s13 = s10/d1, s11/d1, s12/d1, s13/d1
			}
			x0[0], x0[1], x0[2], x0[3] = s00, s01, s02, s03
			x1[0], x1[1], x1[2], x1[3] = s10, s11, s12, s13
		}
	}
}

// Transpose writes the transpose of the n×n tile src into dst. dst may be
// src, which is then transposed in place; otherwise the two must not
// overlap. Both bodies swap the words (AVX2: the 4×4 blocks) of src in pairs
// across the diagonal, each pair read before it is written.
func Transpose(dst, src []float64, n int) {
	if dense(n) {
		_, _ = dst[n*n-1], src[n*n-1] // the assembly checks no bounds
		transposeAVX2(&dst[0], &src[0], n)
		return
	}
	for r := 0; r < n; r++ {
		for q := r; q < n; q++ {
			a, b := src[r*n+q], src[q*n+r]
			dst[q*n+r], dst[r*n+q] = a, b
		}
	}
}

// mulSubGo is MulSub's Go body. The bulk runs a 2×4 register block: eight
// accumulators stay in registers across the p loop, and each p loads two
// elements of a and four of b for eight multiply-subtracts. An n that is not
// a multiple of 4 takes the plain loop.
func mulSubGo(c, a, b []float64, n int) {
	if n%4 != 0 {
		for r := 0; r < n; r++ {
			for p := 0; p < n; p++ {
				arp := a[r*n+p]
				for q := 0; q < n; q++ {
					c[r*n+q] -= arp * b[p*n+q]
				}
			}
		}
		return
	}
	for r := 0; r < n; r += 2 {
		a0s := a[r*n : r*n+n]
		a1s := a[r*n+n : r*n+2*n]
		a1s = a1s[:len(a0s)] // equal lengths: no bounds check on a1s[p]
		c0 := c[r*n : r*n+n]
		c1 := c[r*n+n : r*n+2*n]
		for q := 0; q < n; q += 4 {
			x0, x1 := c0[q:q+4:q+4], c1[q:q+4:q+4]
			s00, s01, s02, s03 := x0[0], x0[1], x0[2], x0[3]
			s10, s11, s12, s13 := x1[0], x1[1], x1[2], x1[3]
			for p, a0 := range a0s {
				a1 := a1s[p]
				y := b[p*n+q : p*n+q+4 : p*n+q+4]
				s00 -= a0 * y[0]
				s01 -= a0 * y[1]
				s02 -= a0 * y[2]
				s03 -= a0 * y[3]
				s10 -= a1 * y[0]
				s11 -= a1 * y[1]
				s12 -= a1 * y[2]
				s13 -= a1 * y[3]
			}
			x0[0], x0[1], x0[2], x0[3] = s00, s01, s02, s03
			x1[0], x1[1], x1[2], x1[3] = s10, s11, s12, s13
		}
	}
}

// minPlusGo is MinPlus's Go body: the same 2×4 register block as mulSubGo,
// with eight running minima, and the plain loop when n is not a multiple
// of 4.
func minPlusGo(c, a, b []float64, n int) {
	if n%4 != 0 {
		for p := 0; p < n; p++ {
			for r := 0; r < n; r++ {
				arp := a[r*n+p]
				for q := 0; q < n; q++ {
					if v := arp + b[p*n+q]; v < c[r*n+q] {
						c[r*n+q] = v
					}
				}
			}
		}
		return
	}
	for r := 0; r < n; r += 2 {
		a0s := a[r*n : r*n+n]
		a1s := a[r*n+n : r*n+2*n]
		a1s = a1s[:len(a0s)] // equal lengths: no bounds check on a1s[p]
		c0 := c[r*n : r*n+n]
		c1 := c[r*n+n : r*n+2*n]
		for q := 0; q < n; q += 4 {
			x0, x1 := c0[q:q+4:q+4], c1[q:q+4:q+4]
			s00, s01, s02, s03 := x0[0], x0[1], x0[2], x0[3]
			s10, s11, s12, s13 := x1[0], x1[1], x1[2], x1[3]
			for p, a0 := range a0s {
				a1 := a1s[p]
				y := b[p*n+q : p*n+q+4 : p*n+q+4]
				if v := a0 + y[0]; v < s00 {
					s00 = v
				}
				if v := a0 + y[1]; v < s01 {
					s01 = v
				}
				if v := a0 + y[2]; v < s02 {
					s02 = v
				}
				if v := a0 + y[3]; v < s03 {
					s03 = v
				}
				if v := a1 + y[0]; v < s10 {
					s10 = v
				}
				if v := a1 + y[1]; v < s11 {
					s11 = v
				}
				if v := a1 + y[2]; v < s12 {
					s12 = v
				}
				if v := a1 + y[3]; v < s13 {
					s13 = v
				}
			}
			x0[0], x0[1], x0[2], x0[3] = s00, s01, s02, s03
			x1[0], x1[1], x1[2], x1[3] = s10, s11, s12, s13
		}
	}
}

// swBound bounds the boundary words SmithWaterman's AVX2 body takes: integers
// within ±swBound, with scores and gap within ±swScore and n ≤ swSide, keep
// every int32 lane of the body, a score plus gap·c, within ±2³⁰.
const (
	swBound = 1 << 29
	swScore = 1 << 8
	swSide  = 1 << 12
)

// SmithWaterman fills an n×n tile h (n = len(ys)) of local-alignment scores,
// h[r][c] = max(dg + s, up − gap, left − gap, 0), s being match where xs[r] ==
// ys[c] and mismatch elsewhere, from its boundary: top is the row above the
// tile, left the column to its left, corner the cell above-left of both. It
// returns runMax raised by every cell. Scores, boundary words and cells are
// computed as int64 (the words truncated), which the app's integer scores
// below 2⁵³ keep exact; top may be h's own last row, which is read only for
// the first row.
//
// The AVX2 body runs where the dense kernels' does, when n is a multiple of
// 8, gap ≥ 0 and every boundary word is an integer within its int32 range
// (swBound); the Go body, with the same bits, everywhere else.
func SmithWaterman(h, top, left []float64, corner, runMax float64, xs, ys []byte, match, mismatch, gap int) float64 {
	n := len(ys)
	if swSIMD(n, match, mismatch, gap) && swWord(corner) {
		_, _, _, _ = h[n*n-1], top[n-1], left[n-1], xs[n-1] // the assembly checks no bounds
		if best, ok := swAVX2(&h[0], &top[0], &left[0], &xs[0], &ys[0], n, int(corner), match, mismatch, gap); ok {
			return float64(max(int64(runMax), int64(best)))
		}
	}
	return smithWatermanGo(h, top, left, corner, runMax, xs, ys, int64(match), int64(mismatch), int64(gap))
}

// swSIMD reports whether SmithWaterman tries the AVX2 body for a tile of side
// n and these scores; the body then checks the boundary words itself.
func swSIMD(n, match, mismatch, gap int) bool {
	return simd && n > 0 && n%8 == 0 && n <= swSide &&
		gap >= 0 && gap <= swScore && min(match, mismatch) >= -swScore && max(match, mismatch) <= swScore
}

// swWord reports whether w is an integer within ±swBound. Adding and taking
// away 1.5·2⁵² rounds w to an integer in float64 (the sum has unit spacing),
// so only an integer survives both; NaN fails every comparison.
func swWord(w float64) bool {
	const round = 0x1.8p52
	return w >= -swBound && w <= swBound && w+round-round == w
}

// smithWatermanGo is SmithWaterman's Go body. Along a row the cell to the
// left and the diagonal one are the values just computed and just read, so
// they are carried in locals; the row above is top for the first row and the
// tile's previous row after it, and when the first row is the last (n = 1)
// each cell of top is read before it is written. max and the score select
// compile to conditional moves: no cell's control flow depends on its data,
// so an unpredictable sequence costs no mispredicted branches.
func smithWatermanGo(h, top, left []float64, corner, runMax float64, xs, ys []byte, match, mismatch, gap int64) float64 {
	n := len(ys)
	up, dg0, best := top, int64(corner), int64(runMax)
	for r, x := range xs {
		row := h[r*n : r*n+n]
		row, up = row[:len(ys)], up[:len(ys)] // no bounds checks in the c loop
		dg, lf := dg0, int64(left[r])
		for c, y := range ys {
			u := int64(up[c])
			s := mismatch
			if x == y {
				s = match
			}
			v := max(dg+s, u-gap, lf-gap, 0)
			row[c] = float64(v)
			best = max(best, v)
			dg, lf = u, v
		}
		up, dg0 = row, int64(left[r])
	}
	return float64(best)
}
