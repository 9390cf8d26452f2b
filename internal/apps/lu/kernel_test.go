package lu

import (
	"math"
	"testing"
)

// gemmSubNaive is the textbook loop gemmSub replaced, kept as its oracle: row
// by row, multipliers that are exactly zero skipped, the q loop innermost.
func gemmSubNaive(c, l, u []float64, b int) {
	for r := 0; r < b; r++ {
		for p := 0; p < b; p++ {
			lrp := l[r*b+p]
			if lrp == 0 {
				continue
			}
			for q := 0; q < b; q++ {
				c[r*b+q] -= lrp * u[p*b+q]
			}
		}
	}
}

// kernelSizes cover the register-blocked bulk (multiples of 4) and the plain
// loop every other tile size takes.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 32}

// TestGemmSub: the blocked kernel reproduces the textbook loop bit for bit on
// random tiles of every size, including multipliers that are exactly zero,
// which the textbook loop skips and the blocked kernel does not (c − 0·u is c
// for every c that is not −0).
func TestGemmSub(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := uint64(1); seed <= 8; seed++ {
			c, l, u := randTile(b, 3*seed), randTile(b, 3*seed+1), randTile(b, 3*seed+2)
			for i := int(seed) % 5; i < len(l); i += 5 {
				l[i] = 0
			}
			want := append([]float64(nil), c...)
			gemmSubNaive(want, l, u, b)
			gemmSub(c, l, u, b)
			for i := range want {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d seed=%d: gemmSub[%d] = %v, textbook loop %v", b, seed, i, c[i], want[i])
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
	type input struct{ c, l, u []float64 }
	in := make([]input, inputs)
	for i := range in {
		s := 3 * uint64(i+1)
		in[i] = input{randTile(n, s), randTile(n, s+1), randTile(n, s+2)}
	}
	c := make([]float64, n*n)
	for _, k := range []struct {
		name string
		f    func(c, l, u []float64, b int)
	}{{"gemmSub/blocked", gemmSub}, {"gemmSub/naive", gemmSubNaive}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := &in[i%inputs]
				copy(c, x.c)
				k.f(c, x.l, x.u, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
		})
	}
}
