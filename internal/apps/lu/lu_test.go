package lu

import (
	"errors"
	"math"
	"testing"

	"ftdag/internal/apps"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

func newLU(t *testing.T, n, b int) *LU {
	t.Helper()
	a, err := New(apps.Config{N: n, B: b, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return a.(*LU)
}

func TestKeyCoordsRoundTrip(t *testing.T) {
	a := newLU(t, 64, 8)
	for k := 0; k < a.nb; k++ {
		for i := k; i < a.nb; i++ {
			for j := k; j < a.nb; j++ {
				kk, ii, jj := a.coords(a.task(k, i, j))
				if kk != k || ii != i || jj != j {
					t.Fatalf("round trip (%d,%d,%d) → (%d,%d,%d)", k, i, j, kk, ii, jj)
				}
			}
		}
	}
}

func TestGetrfSmall(t *testing.T) {
	// A = [[4,3],[6,3]] → L21 = 1.5, U = [[4,3],[0,-1.5]].
	c := []float64{4, 3, 6, 3}
	getrf(c, 2)
	want := []float64{4, 3, 1.5, -1.5}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-12 {
			t.Fatalf("getrf = %v, want %v", c, want)
		}
	}
}

// TestGetrfReconstruct factorises a random diagonally dominant tile and
// checks L·U == A.
func TestGetrfReconstruct(t *testing.T) {
	const b = 8
	a := randTile(b, 1)
	c := append([]float64(nil), a...)
	getrf(c, b)
	for r := 0; r < b; r++ {
		for q := 0; q < b; q++ {
			// (L·U)[r][q] = Σ_p L[r][p]·U[p][q], L unit lower.
			s := 0.0
			for p := 0; p <= min(r, q); p++ {
				l := c[r*b+p]
				if p == r {
					l = 1
				}
				if p <= q {
					s += l * c[p*b+q]
				}
			}
			if math.Abs(s-a[r*b+q]) > 1e-9 {
				t.Fatalf("L·U[%d][%d] = %v, want %v", r, q, s, a[r*b+q])
			}
		}
	}
}

// residualSizes take tile.SolveLower's Go body (6) and its AVX2 body where
// the build has one (8, and the BenchSizes tile, 32).
var residualSizes = []int{6, 8, 32}

// TestTrsmRight: X·U = A must hold after solving.
func TestTrsmRight(t *testing.T) {
	for _, b := range residualSizes {
		d := randTile(b, 2)
		getrf(d, b) // packed L\U; trsmRight uses the upper part
		a := randTile(b, 3)
		x := append([]float64(nil), a...)
		trsmRight(x, d, make([]float64, b*b), b)
		for r := 0; r < b; r++ {
			for q := 0; q < b; q++ {
				s := 0.0
				for p := 0; p <= q; p++ {
					s += x[r*b+p] * d[p*b+q]
				}
				if math.Abs(s-a[r*b+q]) > 1e-8 {
					t.Fatalf("b=%d: X·U[%d][%d] = %v, want %v", b, r, q, s, a[r*b+q])
				}
			}
		}
	}
}

// TestTrsmLeft: L·X = A with unit lower L.
func TestTrsmLeft(t *testing.T) {
	for _, b := range residualSizes {
		d := randTile(b, 4)
		getrf(d, b)
		a := randTile(b, 5)
		x := append([]float64(nil), a...)
		trsmLeft(x, d, b)
		for r := 0; r < b; r++ {
			for q := 0; q < b; q++ {
				s := x[r*b+q] // L[r][r] = 1
				for p := 0; p < r; p++ {
					s += d[r*b+p] * x[p*b+q]
				}
				if math.Abs(s-a[r*b+q]) > 1e-8 {
					t.Fatalf("b=%d: L·X[%d][%d] = %v, want %v", b, r, q, s, a[r*b+q])
				}
			}
		}
	}
}

// TestBlockedMatchesUnblocked runs the task graph sequentially by hand (in
// topological order through the spec) and compares every final tile to the
// unblocked factorisation.
func TestBlockedMatchesUnblocked(t *testing.T) {
	for _, size := range []struct{ n, b int }{{16, 4}, {32, 8}, {48, 8}} {
		a := newLU(t, size.n, size.b)
		outs := map[graph.Key][]float64{}
		order, err := graph.TopoOrder(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range order {
			ctx := &fakeCtx{outs: outs}
			if err := a.Compute(ctx, k); err != nil {
				t.Fatal(err)
			}
			outs[k] = ctx.out
		}
		ref := a.reference()
		nb, b, n := a.nb, a.b, a.n
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				k := min(i, j) // final stage for tile (i,j)
				tile := outs[a.task(k, i, j)]
				for r := 0; r < b; r++ {
					for q := 0; q < b; q++ {
						want := ref[(i*b+r)*n+j*b+q]
						got := tile[r*b+q]
						if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
							t.Fatalf("n=%d tile(%d,%d)[%d,%d] = %v, want %v",
								size.n, i, j, r, q, got, want)
						}
					}
				}
			}
		}
	}
}

func TestInputDeterminism(t *testing.T) {
	a1 := newLU(t, 32, 8)
	a2 := newLU(t, 32, 8)
	for i := range a1.a {
		if a1.a[i] != a2.a[i] {
			t.Fatal("same seed produced different inputs")
		}
	}
	a3, _ := New(apps.Config{N: 32, B: 8, Seed: 99})
	diff := false
	for i := range a1.a {
		if a1.a[i] != a3.(*LU).a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestDiagonalDominance(t *testing.T) {
	a := newLU(t, 32, 8)
	for i := 0; i < a.n; i++ {
		if a.a[i*a.n+i] < float64(a.n)-1 {
			t.Fatalf("diagonal entry %d = %v not dominant", i, a.a[i*a.n+i])
		}
	}
}

func TestOutputVersions(t *testing.T) {
	a := newLU(t, 32, 8)
	// T(k,i,j) writes version k+1 of tile (i,j); final version of a tile
	// is min(i,j)+1.
	ref := a.Output(a.task(2, 3, 2))
	if int(ref.Block) != 3*a.nb+2 || ref.Version != 3 {
		t.Fatalf("Output = %+v", ref)
	}
}

// TestComputeFreesItsTileOnReadError: a compute whose read fails hands the
// tile it took back to the free list, where the next Alloc finds it still
// holding the input the compute copied in before the read. (A failed shadow
// replica used to drop its tile to the collector.)
func TestComputeFreesItsTileOnReadError(t *testing.T) {
	a := newLU(t, 40, 20) // a tile size no other test here frees
	ctx := &fakeCtx{err: errors.New("read failed")}
	if err := a.Compute(ctx, a.task(0, 1, 0)); err == nil || ctx.out != nil {
		t.Fatalf("the panel solve of a failed read: err %v, wrote %v", err, ctx.out != nil)
	}
	want := make([]float64, a.b*a.b)
	a.inputTile(want, 1, 0)
	got := block.Alloc(a.b * a.b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("the next Alloc's word %d is %v, the failed compute's input %v", i, got[i], want[i])
		}
	}
}

// fakeCtx implements graph.Context over a plain map; every read fails with
// err when it is set.
type fakeCtx struct {
	outs map[graph.Key][]float64
	out  []float64
	err  error
}

func (c *fakeCtx) ReadPred(p graph.Key) ([]float64, error) { return c.outs[p], c.err }
func (c *fakeCtx) Write(d []float64)                       { c.out = d }

func randTile(b int, seed uint64) []float64 {
	t := make([]float64, b*b)
	rng := seed*2685821657736338717 + 11
	for i := range t {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		t[i] = float64(rng*0x2545F4914F6CDD1D>>11)/float64(1<<53)*2 - 1
		if i%(b+1) == 0 {
			t[i] += float64(2 * b) // keep tiles well conditioned
		}
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
