package chol

import (
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

// kernelSizes cover the register-blocked bulk (even sizes) and the plain loop
// odd ones take.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 32}

// TestGemmSubT: the blocked kernel reproduces the textbook loop bit for bit
// on random tiles of every size, for two panels and for the diagonal
// update's one panel passed twice.
func TestGemmSubT(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := uint64(1); seed <= 8; seed++ {
			c, l, r := randTile(b, 3*seed), randTile(b, 3*seed+1), randTile(b, 3*seed+2)
			if seed%2 == 0 {
				r = l
			}
			want := append([]float64(nil), c...)
			gemmSubTNaive(want, l, r, b)
			gemmSubT(c, l, r, b)
			for i := range want {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d seed=%d: gemmSubT[%d] = %v, textbook loop %v", b, seed, i, c[i], want[i])
				}
			}
		}
	}
}

// BenchmarkKernels prices one 32×32 trailing update, the BenchSizes tile,
// blocked and with the textbook loop it replaced. It rotates over 16 seeded
// inputs, as the apps feed it many.
func BenchmarkKernels(b *testing.B) {
	const n, inputs = 32, 16
	type input struct{ c, l, r []float64 }
	in := make([]input, inputs)
	for i := range in {
		s := 3 * uint64(i+1)
		in[i] = input{randTile(n, s), randTile(n, s+1), randTile(n, s+2)}
	}
	c := make([]float64, n*n)
	for _, k := range []struct {
		name string
		f    func(c, l, r []float64, b int)
	}{{"gemmSubT/blocked", gemmSubT}, {"gemmSubT/naive", gemmSubTNaive}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := &in[i%inputs]
				copy(c, x.c)
				k.f(c, x.l, x.r, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
		})
	}
}
