package fw

import (
	"math"
	"testing"
)

// minPlusNaive is the textbook interior-phase loop minPlus replaced, kept as
// its oracle: p outermost, then rows, then columns.
func minPlusNaive(c, av, bv []float64, b int) {
	for p := 0; p < b; p++ {
		for r := 0; r < b; r++ {
			arp := av[r*b+p]
			for cc := 0; cc < b; cc++ {
				if v := arp + bv[p*b+cc]; v < c[r*b+cc] {
					c[r*b+cc] = v
				}
			}
		}
	}
}

// kernelSizes cover the register-blocked bulk (multiples of 4) and the plain
// loop every other tile size takes.
var kernelSizes = []int{1, 2, 3, 4, 5, 8, 16, 17, 32}

// distTile returns a b×b tile of distances: integers in [1, hi], like the
// app's edge weights and the sums of them it builds.
func distTile(b int, hi, seed uint64) []float64 {
	t := make([]float64, b*b)
	rng := seed*2685821657736338717 + 19
	for i := range t {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		t[i] = float64((rng*0x2545F4914F6CDD1D)%hi + 1)
	}
	return t
}

// TestMinPlusMatchesOracle: the blocked kernel reproduces the textbook loop
// bit for bit on random tiles of every size.
func TestMinPlusMatchesOracle(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := uint64(1); seed <= 8; seed++ {
			c := distTile(b, 3*maxEdge, 3*seed)
			av, bv := distTile(b, maxEdge, 3*seed+1), distTile(b, maxEdge, 3*seed+2)
			want := append([]float64(nil), c...)
			minPlusNaive(want, av, bv, b)
			minPlus(c, av, bv, b)
			for i := range want {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d seed=%d: minPlus[%d] = %v, textbook loop %v", b, seed, i, c[i], want[i])
				}
			}
		}
	}
}

// BenchmarkKernels prices one 32×32 interior-phase update, blocked and with
// the textbook loop it replaced.
func BenchmarkKernels(b *testing.B) {
	const n = 32
	c0 := distTile(n, 3*maxEdge, 1)
	av, bv := distTile(n, maxEdge, 2), distTile(n, maxEdge, 3)
	c := make([]float64, n*n)
	for _, k := range []struct {
		name string
		f    func(c, av, bv []float64, b int)
	}{{"minPlus/blocked", minPlus}, {"minPlus/naive", minPlusNaive}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(c, c0)
				k.f(c, av, bv, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
		})
	}
}
