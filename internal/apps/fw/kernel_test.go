package fw

import (
	"math"
	"testing"

	"ftdag/internal/graph"
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

// columnNaive and rowNaive are the textbook phase-2 loops the pivot column
// and row tiles ran before minPlus, kept as its oracles: p outermost, and c's
// own column (row) p, updated by earlier iterations, read in place.
func columnNaive(c, pv []float64, b int) {
	for p := 0; p < b; p++ {
		for r := 0; r < b; r++ {
			crp := c[r*b+p]
			for cc := 0; cc < b; cc++ {
				if v := crp + pv[p*b+cc]; v < c[r*b+cc] {
					c[r*b+cc] = v
				}
			}
		}
	}
}

func rowNaive(c, pv []float64, b int) {
	for p := 0; p < b; p++ {
		for r := 0; r < b; r++ {
			prp := pv[r*b+p]
			for cc := 0; cc < b; cc++ {
				if v := prp + c[p*b+cc]; v < c[r*b+cc] {
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

// pivotTile returns a b×b pivot tile as phase 1 leaves it: random distances
// with a zero diagonal, closed by closure.
func pivotTile(b int, seed uint64) []float64 {
	pv := distTile(b, maxEdge, seed)
	for r := 0; r < b; r++ {
		pv[r*b+r] = 0
	}
	closure(pv, b)
	return pv
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

// TestPivotRowAndColumnMatchOracle: with the pivot tile closed by phase 1,
// the column update minPlus(c, c, pv) and the row update minPlus(c, pv, c),
// which read words of c they have already updated, reproduce the textbook
// phase-2 loops bit for bit on random tiles of every size.
func TestPivotRowAndColumnMatchOracle(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := uint64(1); seed <= 8; seed++ {
			pv := pivotTile(b, 3*seed)
			for _, u := range []struct {
				name   string
				kernel func(c []float64)
				oracle func(c, pv []float64, b int)
			}{
				{"column", func(c []float64) { minPlus(c, c, pv, b) }, columnNaive},
				{"row", func(c []float64) { minPlus(c, pv, c, b) }, rowNaive},
			} {
				c := distTile(b, 3*maxEdge, 3*seed+1)
				want := append([]float64(nil), c...)
				u.oracle(want, pv, b)
				u.kernel(c)
				for i := range want {
					if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s b=%d seed=%d: minPlus[%d] = %v, textbook loop %v", u.name, b, seed, i, c[i], want[i])
					}
				}
			}
		}
	}
}

// stageInput is one interior update: its tile c and the column and row tiles
// av and bv it reads, and the column tile col of its row with the pivot pv.
type stageInput struct{ c, av, bv, col, pv []float64 }

// stageInputs runs a 5×5-tile instance by hand and returns 16 of its
// interior updates at stages 1–4, spread over them: the tiles each one reads,
// as the app feeds minPlus (distances settle as the stages go on, and the
// kernels' branches follow them), and the pivot column update of its row.
func stageInputs(tb testing.TB, b int) []stageInput {
	a := newFW(tb, 5*b, b)
	outs := map[graph.Key][]float64{}
	order, err := graph.TopoOrder(a)
	if err != nil {
		tb.Fatal(err)
	}
	for _, k := range order {
		ctx := &fakeCtx{outs: outs}
		if err := a.Compute(ctx, k); err != nil {
			tb.Fatal(err)
		}
		outs[k] = ctx.out
	}
	var all []stageInput
	for k := 1; k < a.nb; k++ {
		for i := 0; i < a.nb; i++ {
			for j := 0; j < a.nb; j++ {
				if i != k && j != k {
					all = append(all, stageInput{
						c: outs[a.task(k-1, i, j)], av: outs[a.task(k, i, k)], bv: outs[a.task(k, k, j)],
						col: outs[a.task(k-1, i, k)], pv: outs[a.task(k, k, k)],
					})
				}
			}
		}
	}
	in := make([]stageInput, 16)
	for i := range in {
		in[i] = all[i*len(all)/len(in)]
	}
	return in
}

// BenchmarkKernels prices one 32×32 tile, the BenchSizes tile, through the
// interior and the pivot-column update, blocked and with the textbook loop
// each replaced, rotating over 16 updates of a real run (stageInputs).
func BenchmarkKernels(b *testing.B) {
	const n = 32
	in := stageInputs(b, n)
	c := make([]float64, n*n)
	for _, k := range []struct {
		name string
		f    func(c []float64, x *stageInput)
	}{
		{"minPlus/blocked", func(c []float64, x *stageInput) { copy(c, x.c); minPlus(c, x.av, x.bv, n) }},
		{"minPlus/naive", func(c []float64, x *stageInput) { copy(c, x.c); minPlusNaive(c, x.av, x.bv, n) }},
		{"column/blocked", func(c []float64, x *stageInput) { copy(c, x.col); minPlus(c, c, x.pv, n) }},
		{"column/naive", func(c []float64, x *stageInput) { copy(c, x.col); columnNaive(c, x.pv, n) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.f(c, &in[i%len(in)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
		})
	}
}
