package sw

import (
	"math"
	"testing"

	"ftdag/internal/apps"
)

// fillNaive is the textbook per-cell loop fill replaced, kept as its oracle:
// every cell picks its up, left and diagonal neighbours through a switch on
// whether it sits in the tile's first row or column.
func fillNaive(tile, top, left []float64, corner, runMax float64, xs, ys []byte) float64 {
	b := len(ys)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			var up, lf, dg float64
			if r == 0 {
				up = top[c]
			} else {
				up = tile[(r-1)*b+c]
			}
			if c == 0 {
				lf = left[r]
			} else {
				lf = tile[r*b+c-1]
			}
			switch {
			case r == 0 && c == 0:
				dg = corner
			case r == 0:
				dg = top[c-1]
			case c == 0:
				dg = left[r-1]
			default:
				dg = tile[(r-1)*b+c-1]
			}
			s := float64(mismatch)
			if xs[r] == ys[c] {
				s = match
			}
			v := dg + s
			if up-gap > v {
				v = up - gap
			}
			if lf-gap > v {
				v = lf - gap
			}
			if v < 0 {
				v = 0
			}
			tile[r*b+c] = v
			if v > runMax {
				runMax = v
			}
		}
	}
	return runMax
}

// kernelSizes are the tile sizes the oracle test covers: small ones, odd ones,
// and the BenchSizes tile.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 32, 64}

// tableMax is the largest score a BenchSizes table reaches: match·N.
const tableMax = match * 2048

// boundary returns a tile's random boundary: a row above, a column to the
// left and a corner, each base or base+1, and the symbols of its rows and
// columns. At base 0 a mismatch below and beside zeros takes the floor.
func boundary(b int, seed int64, base float64) (top, left []float64, corner float64, xs, ys []byte) {
	xs, ys = apps.NewRand(seed, 1).Seq(b, alphabet), apps.NewRand(seed+1, 1).Seq(b, alphabet)
	s := apps.NewRand(seed+2, 1).Seq(2*b+1, alphabet)
	top, left = make([]float64, b), make([]float64, b)
	for i := range top {
		top[i], left[i] = base+float64(s[i]%2), base+float64(s[b+i]%2)
	}
	return top, left, base + float64(s[2*b]%2), xs, ys
}

// TestFillMatchesOracle: the row-carried kernel reproduces the per-cell loop
// bit for bit, cells and running maximum, on random boundaries and sequences
// of every size, near zero and near the largest score of a BenchSizes table —
// also with the row above read into the tile's own last row, as Compute reads
// it.
func TestFillMatchesOracle(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := int64(1); seed <= 8; seed++ {
			base := 0.0
			if seed%2 == 0 {
				base = tableMax - 1 - match*float64(b)
			}
			top, left, corner, xs, ys := boundary(b, 3*seed, base)
			runMax := base + float64(seed)
			got, want, inPlace := make([]float64, b*b+1), make([]float64, b*b+1), make([]float64, b*b+1)
			got[b*b] = fill(got[:b*b], top, left, corner, runMax, xs, ys)
			want[b*b] = fillNaive(want[:b*b], top, left, corner, runMax, xs, ys)
			last := inPlace[(b-1)*b : b*b]
			copy(last, top)
			inPlace[b*b] = fill(inPlace[:b*b], last, left, corner, runMax, xs, ys)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d seed=%d: fill[%d] = %v (top in the last row: %v), per-cell loop %v", b, seed, i, got[i], inPlace[i], want[i])
				}
			}
		}
	}
}
