// Package tile holds the two dense kernels under LU, Cholesky and
// Floyd-Warshall, on n×n row-major tiles: MulSub (C −= A·B) and MinPlus
// (C = min(C, A ⊗ B)).
//
// Each kernel has two bodies. Where the CPU has AVX2 with the YMM state
// enabled by the OS (checked once, at init) and n is a multiple of 8, an
// assembly body runs a 4×8 register block: eight ymm accumulators hold a
// 4-row, 8-column block of C across the p loop, and each p loads two ymm of
// B's row p and broadcasts one element of A per row. Elsewhere — other CPUs,
// other architectures, other sizes, and every race-detector build, whose
// detector does not see memory accesses made in assembly — the Go body runs:
// a 2×4 register block, or the plain loop when n is not a multiple of 4.
//
// Every body computes each element with the textbook loop's operations in
// its order: the element starts from c and takes its p terms in ascending p,
// one IEEE operation per step, no FMA (MulSub: a product, then a difference;
// MinPlus: a sum, then `if v < s { s = v }`). Outputs are bit-identical
// across bodies and hosts, ±0, infinities and NaN included.
//
//lint:deterministic kernel outputs: every body on every host must give the same bits, or the apps' pinned digests and the executors' match with the sequential reference stop holding
package tile

// simd selects the AVX2 bodies for sizes they take. It is fixed at init;
// tests clear it to run the Go bodies on the same inputs.
var simd = hasAVX2 && !raceEnabled

// MulSub computes C −= A·B: c[r][q] −= a[r][p]·b[p][q] for p = 0, 1, …, n−1
// in turn, each product rounded before it is subtracted.
func MulSub(c, a, b []float64, n int) {
	if simd && n > 0 && n%8 == 0 {
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
	if simd && n > 0 && n%8 == 0 {
		_, _, _ = c[n*n-1], a[n*n-1], b[n*n-1] // the assembly checks no bounds
		minPlusAVX2(&c[0], &a[0], &b[0], n)
		return
	}
	minPlusGo(c, a, b, n)
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
