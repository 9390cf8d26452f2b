package lcs

import (
	"fmt"
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

// kernelSizes are the tile sizes the oracle tests cover: small ones, odd ones,
// the word's edges, the BenchSizes tile, and one the bit-parallel body leaves
// to the scalar one.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 31, 32, 63, 64, 65}

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

// TestFillMatchesOracle: fill reproduces the per-cell loop bit for bit on
// random boundaries and sequences of every size, near zero and near the
// largest cell of a BenchSizes table — also with the row above read into the
// tile's own last row, as Compute reads it. Their steps run from −2 to 4, so
// these boundaries take the scalar body.
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

// cut returns the boundary of a b×b tile cut from a textbook LCS table of two
// random sequences of 3b symbols, at a seeded offset that includes the
// table's first row and column: the boundaries Compute reads.
func cut(b int, seed int64) (top, left []float64, corner float64, xs, ys []byte) {
	n := 3 * b
	x, y := apps.NewRand(seed, 1).Seq(n, alphabet), apps.NewRand(seed+1, 1).Seq(n, alphabet)
	d := make([][]float64, n+1)
	for i := range d {
		d[i] = make([]float64, n+1)
		for j := 1; i > 0 && j <= n; j++ {
			if x[i-1] == y[j-1] {
				d[i][j] = d[i-1][j-1] + 1
			} else {
				d[i][j] = max(d[i-1][j], d[i][j-1])
			}
		}
	}
	i0, j0 := 1+int(seed*7)%(2*b), 1+int(seed*5)%(2*b)
	top, left = make([]float64, b), make([]float64, b)
	for k := range b {
		top[k], left[k] = d[i0-1][j0+k], d[i0+k][j0-1]
	}
	return top, left, d[i0-1][j0-1], x[i0-1 : i0-1+b], y[j0-1 : j0-1+b]
}

// sameBits fails t at the first word of got that differs from want.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFillBitsOnTextbookTables: on boundaries cut from textbook tables the
// bit-parallel body runs at every b ≤ 64 and gives the per-cell loop's and the
// scalar body's bits, also with the row above read into the tile's own last
// row; at b > 64 it declines and fill gives the scalar body's.
func TestFillBitsOnTextbookTables(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := int64(1); seed <= 8; seed++ {
			top, left, corner, xs, ys := cut(b, seed)
			what := fmt.Sprintf("b=%d seed=%d", b, seed)
			want, scalar := make([]float64, b*b), make([]float64, b*b)
			fillNaive(want, top, left, corner, xs, ys)
			fillScalar(scalar, top, left, corner, xs, ys)
			sameBits(t, what+" scalar", scalar, want)
			got, inPlace := make([]float64, b*b), make([]float64, b*b)
			ran := fillBits(got, top, left, corner, xs, ys)
			if ran != (b <= 64) {
				t.Fatalf("%s: bit-parallel body ran: %v", what, ran)
			}
			if !ran {
				fill(got, top, left, corner, xs, ys)
			}
			sameBits(t, what, got, want)
			last := inPlace[(b-1)*b:]
			copy(last, top)
			fill(inPlace, last, left, corner, xs, ys)
			sameBits(t, what+" top in the last row", inPlace, want)
		}
	}
}

// TestFillBitsFallsBack: a boundary word that is NaN, infinite, fractional,
// or off by one flipped bit gives the scalar body's bits. The bit-parallel
// body declines every word but a flipped one, which may still be an integer a
// step of 0 or 1 from its neighbours — a table it computes exactly.
func TestFillBitsFallsBack(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := int64(1); seed <= 8; seed++ {
			top, left, corner, xs, ys := cut(b, seed)
			g := apps.NewRand(seed, 9)
			for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5, 0} {
				// The boundary's 2b+1 words: the corner, then top, then left.
				w := int(g.Next() % uint64(2*b+1))
				word := &corner
				switch {
				case w > b:
					word = &left[w-b-1]
				case w > 0:
					word = &top[w-1]
				}
				saved := *word
				flipped := special == 0
				if flipped {
					special = math.Float64frombits(math.Float64bits(saved) ^ 1<<(g.Next()%64))
				} else if special == 0.5 {
					special += saved
				}
				*word = special
				what := fmt.Sprintf("b=%d seed=%d word %d = %v", b, seed, w, special)
				got, want := make([]float64, b*b), make([]float64, b*b)
				if fillBits(got, top, left, corner, xs, ys) && !flipped {
					t.Fatalf("%s: the bit-parallel body took it", what)
				}
				fill(got, top, left, corner, xs, ys)
				fillScalar(want, top, left, corner, xs, ys)
				sameBits(t, what, got, want)
				*word = saved
			}
		}
	}
}

// BenchmarkKernels prices one tile at the QuickSizes and BenchSizes sides (16,
// 64) through the bit-parallel body, the scalar body and the per-cell loop
// they replaced, rotating over 16 boundaries cut from textbook tables, so
// the branch predictor cannot learn one.
func BenchmarkKernels(b *testing.B) {
	const inputs = 16
	for _, n := range []int{16, 64} {
		type input struct {
			top, left []float64
			corner    float64
			xs, ys    []byte
		}
		in := make([]input, inputs)
		for i := range in {
			x := &in[i]
			x.top, x.left, x.corner, x.xs, x.ys = cut(n, int64(3*i+1))
		}
		tile := make([]float64, n*n)
		for _, k := range []struct {
			name string
			f    func(tile, top, left []float64, corner float64, xs, ys []byte)
		}{{"fill/bits", fill}, {"fill/scalar", fillScalar}, {"fill/textbook", fillNaive}} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					x := &in[i%inputs]
					k.f(tile, x.top, x.left, x.corner, x.xs, x.ys)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
			})
		}
	}
}
