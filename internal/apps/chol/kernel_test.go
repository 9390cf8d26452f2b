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

// kernelSizes cover tile.MulSub's AVX2 block (multiples of 8), its Go 2×4
// block (multiples of 4) and its plain loop.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 32}

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
			gemmSubT(c, l, r, b)
			for i := range want {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d seed=%d: gemmSubT[%d] = %v, textbook loop %v", b, seed, i, c[i], want[i])
				}
			}
		}
	}
}
