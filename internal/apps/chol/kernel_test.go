package chol

import (
	"fmt"
	"math"
	"testing"
)

// gemmSubTNaive is the textbook loop gemmSubT replaced, kept as its oracle:
// one dot product per element, a single chain of subtractions in ascending p.
func gemmSubTNaive(c, l, r []float64, b int) {
	for row := 0; row < b; row++ {
		for col := 0; col < b; col++ {
			s := c[row*b+col]
			for p := 0; p < b; p++ {
				s -= l[row*b+p] * r[col*b+p]
			}
			c[row*b+col] = s
		}
	}
}

// trsmRightTTextbook is the loop trsmRightT replaced, kept as its oracle:
// one chain per element, its rounded products subtracted in ascending p, then
// the division.
func trsmRightTTextbook(c, d []float64, b int) {
	for r := 0; r < b; r++ {
		for q := 0; q < b; q++ {
			s := c[r*b+q]
			for p := 0; p < q; p++ {
				s -= c[r*b+p] * d[q*b+p]
			}
			c[r*b+q] = s / d[q*b+q]
		}
	}
}

// kernelSizes cover tile.MulSub's AVX-512 block (multiples of 16), its AVX2
// block (the other multiples of 8), its Go 2×4 block (multiples of 4) and its
// plain loop, and tile.SolveLower's AVX2 and Go bodies.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 32}

// TestTrsmRightTMatchesTextbook: the transposed solve reproduces the textbook
// loop bit for bit on random tiles of every size, against a factor and
// against one with a zero on its diagonal, whose divisions give ±∞ and NaN.
func TestTrsmRightTMatchesTextbook(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := uint64(1); seed <= 8; seed++ {
			d := spdTile(b, 2*seed)
			potrf(d, b)
			if seed%2 == 0 {
				d[(b/2)*(b+1)] = 0
			}
			got := randTile(b, 2*seed+1)
			want := append([]float64(nil), got...)
			trsmRightTTextbook(want, d, b)
			trsmRightT(got, d, b)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d seed=%d: trsmRightT[%d] = %v, textbook loop %v", b, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmSubT: the transpose and tile.MulSub reproduce the textbook loop
// bit for bit on random tiles of every size, for two panels and for the
// diagonal update's one panel passed twice.
func TestGemmSubT(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := uint64(1); seed <= 8; seed++ {
			c, l, r := randTile(b, 3*seed), randTile(b, 3*seed+1), randTile(b, 3*seed+2)
			if seed%2 == 0 {
				r = l
			}
			want := append([]float64(nil), c...)
			gemmSubTNaive(want, l, r, b)
			gemmSubT(c, l, r, make([]float64, b*b), b)
			for i := range want {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d seed=%d: gemmSubT[%d] = %v, textbook loop %v", b, seed, i, c[i], want[i])
				}
			}
		}
	}
}

// BenchmarkKernels prices one tile of the panel solve beside its textbook
// loop, and potrf, which has no other, at the QuickSizes and BenchSizes tile
// sides, rotating over 16 inputs as the app feeds it many.
func BenchmarkKernels(b *testing.B) {
	const inputs = 16
	for _, n := range []int{16, 32} {
		cs, ds, spd := make([][]float64, inputs), make([][]float64, inputs), make([][]float64, inputs)
		for i := range cs {
			cs[i], spd[i] = randTile(n, uint64(2*i+1)), spdTile(n, uint64(2*i+2))
			ds[i] = append([]float64(nil), spd[i]...)
			potrf(ds[i], n)
		}
		c := make([]float64, n*n)
		for _, k := range []struct {
			name string
			f    func(i int)
		}{
			{"potrf/textbook", func(i int) { copy(c, spd[i]); potrf(c, n) }},
			{"trsmRightT/kernel", func(i int) { copy(c, cs[i]); trsmRightT(c, ds[i], n) }},
			{"trsmRightT/textbook", func(i int) { copy(c, cs[i]); trsmRightTTextbook(c, ds[i], n) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.f(i % inputs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
			})
		}
	}
}
