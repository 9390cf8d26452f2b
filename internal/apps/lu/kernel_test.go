package lu

import (
	"fmt"
	"math"
	"testing"

	"ftdag/internal/block"
)

// trsmRightTextbook and trsmLeftTextbook are the loops trsmRight and trsmLeft
// replaced, kept as their oracles: one chain per element, its rounded
// products subtracted in ascending p, then (right) the division.
func trsmRightTextbook(c, d []float64, b int) {
	for r := 0; r < b; r++ {
		for q := 0; q < b; q++ {
			s := c[r*b+q]
			for p := 0; p < q; p++ {
				s -= c[r*b+p] * d[p*b+q]
			}
			c[r*b+q] = s / d[q*b+q]
		}
	}
}

func trsmLeftTextbook(c, d []float64, b int) {
	for q := 0; q < b; q++ {
		for r := 0; r < b; r++ {
			s := c[r*b+q]
			for p := 0; p < r; p++ {
				s -= d[r*b+p] * c[p*b+q]
			}
			c[r*b+q] = s
		}
	}
}

// kernelSizes cover tile.SolveLower's AVX2 body (multiples of 8) and its Go
// body.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 32}

// TestTrsmMatchesTextbook: both panel solves reproduce their textbook loops
// bit for bit on random tiles of every size, against a factorised diagonal
// tile and against one with a zero on its diagonal, whose divisions give ±∞
// and NaN.
func TestTrsmMatchesTextbook(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := uint64(1); seed <= 8; seed++ {
			d := randTile(b, 2*seed)
			getrf(d, b)
			if seed%2 == 0 {
				d[(b/2)*(b+1)] = 0
			}
			for _, k := range []struct {
				name           string
				kernel, oracle func(c, d []float64, b int)
			}{
				{"trsmRight", func(c, d []float64, b int) { trsmRight(c, d, make([]float64, b*b), b) }, trsmRightTextbook},
				{"trsmLeft", trsmLeft, trsmLeftTextbook},
			} {
				got := randTile(b, 2*seed+1)
				want := append([]float64(nil), got...)
				k.oracle(want, d, b)
				k.kernel(got, d, b)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s b=%d seed=%d: word %d = %v, textbook loop %v", k.name, b, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkKernels prices one tile of each panel solve beside its textbook
// loop, and getrf, which has no other, at the QuickSizes and BenchSizes tile
// sides, rotating over 16 inputs as the app feeds it many.
func BenchmarkKernels(b *testing.B) {
	const inputs = 16
	for _, n := range []int{16, 32} {
		cs, ds := make([][]float64, inputs), make([][]float64, inputs)
		for i := range cs {
			cs[i], ds[i] = randTile(n, uint64(2*i+1)), randTile(n, uint64(2*i+2))
			getrf(ds[i], n)
		}
		c := make([]float64, n*n)
		for _, k := range []struct {
			name string
			f    func(i int)
		}{
			{"getrf/textbook", func(i int) { copy(c, cs[i]); getrf(c, n) }},
			{"trsmRight/kernel", func(i int) {
				copy(c, cs[i])
				ut := block.Alloc(n * n)
				trsmRight(c, ds[i], ut, n)
				block.Free(ut)
			}},
			{"trsmRight/textbook", func(i int) { copy(c, cs[i]); trsmRightTextbook(c, ds[i], n) }},
			{"trsmLeft/kernel", func(i int) { copy(c, cs[i]); trsmLeft(c, ds[i], n) }},
			{"trsmLeft/textbook", func(i int) { copy(c, cs[i]); trsmLeftTextbook(c, ds[i], n) }},
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
