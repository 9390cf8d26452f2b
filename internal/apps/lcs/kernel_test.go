package lcs

import (
	"math"
	"testing"

	"ftdag/internal/apps"
)

// fillNaive is the textbook per-cell loop fill replaced, kept as its oracle:
// every cell picks its up, left and diagonal neighbours through a switch on
// whether it sits in the tile's first row or column.
func fillNaive(tile, top, left []float64, corner float64, xs, ys []byte) {
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
			if xs[r] == ys[c] {
				tile[r*b+c] = dg + 1
			} else if up > lf {
				tile[r*b+c] = up
			} else {
				tile[r*b+c] = lf
			}
		}
	}
}

// kernelSizes are the tile sizes the oracle test covers: small ones, odd ones,
// and the BenchSizes tile.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 32, 64}

// tableMax is the largest cell a BenchSizes table reaches: its N.
const tableMax = 2048

// boundary returns a tile's random boundary: a row above, a column to the
// left, a corner, all at least base, and the symbols of its rows and columns.
func boundary(b int, seed int64, base float64) (top, left []float64, corner float64, xs, ys []byte) {
	xs, ys = apps.NewRand(seed, 1).Seq(b, alphabet), apps.NewRand(seed+1, 1).Seq(b, alphabet)
	s := apps.NewRand(seed+2, 1).Seq(2*b+1, alphabet)
	top, left = make([]float64, b), make([]float64, b)
	for i := range top {
		top[i], left[i] = base+float64(s[i])+float64(i), base+float64(s[b+i])+float64(i)
	}
	return top, left, base + float64(s[2*b]), xs, ys
}

// TestFillMatchesOracle: the row-carried kernel reproduces the per-cell loop
// bit for bit on random boundaries and sequences of every size, near zero and
// near the largest cell of a BenchSizes table — also with the row above read
// into the tile's own last row, as Compute reads it.
func TestFillMatchesOracle(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := int64(1); seed <= 8; seed++ {
			base := 0.0
			if seed%2 == 0 {
				base = float64(tableMax - b - alphabet)
			}
			top, left, corner, xs, ys := boundary(b, 3*seed, base)
			got, want, inPlace := make([]float64, b*b), make([]float64, b*b), make([]float64, b*b)
			fill(got, top, left, corner, xs, ys)
			fillNaive(want, top, left, corner, xs, ys)
			last := inPlace[(b-1)*b:]
			copy(last, top)
			fill(inPlace, last, left, corner, xs, ys)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d seed=%d: fill[%d] = %v (top in the last row: %v), per-cell loop %v", b, seed, i, got[i], inPlace[i], want[i])
				}
			}
		}
	}
}

// BenchmarkKernels prices one 64×64 tile, the BenchSizes tile, row-carried
// and with the per-cell loop it replaced. It rotates over 16 seeded inputs,
// so the branch predictor cannot learn one.
func BenchmarkKernels(b *testing.B) {
	const n, inputs = 64, 16
	type input struct {
		top, left []float64
		corner    float64
		xs, ys    []byte
	}
	in := make([]input, inputs)
	for i := range in {
		x := &in[i]
		x.top, x.left, x.corner, x.xs, x.ys = boundary(n, int64(3*i+1), float64(i*n))
	}
	tile := make([]float64, n*n)
	for _, k := range []struct {
		name string
		f    func(tile, top, left []float64, corner float64, xs, ys []byte)
	}{{"fill/blocked", fill}, {"fill/naive", fillNaive}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := &in[i%inputs]
				k.f(tile, x.top, x.left, x.corner, x.xs, x.ys)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
		})
	}
}
