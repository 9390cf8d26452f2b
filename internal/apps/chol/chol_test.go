package chol

import (
	"errors"
	"math"
	"testing"

	"ftdag/internal/apps"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

func newChol(t *testing.T, n, b int) *Chol {
	t.Helper()
	a, err := New(apps.Config{N: n, B: b, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return a.(*Chol)
}

func TestInputSymmetricSPD(t *testing.T) {
	a := newChol(t, 32, 8)
	for i := 0; i < a.n; i++ {
		for j := 0; j < a.n; j++ {
			if a.a[i*a.n+j] != a.a[j*a.n+i] {
				t.Fatalf("input not symmetric at (%d,%d)", i, j)
			}
		}
		if a.a[i*a.n+i] < float64(a.n) {
			t.Fatalf("diagonal %d = %v not dominant", i, a.a[i*a.n+i])
		}
	}
}

// TestPotrfReconstruct: L·Lᵀ must reproduce the SPD tile.
func TestPotrfReconstruct(t *testing.T) {
	const b = 8
	a := spdTile(b, 1)
	c := append([]float64(nil), a...)
	potrf(c, b)
	// Upper triangle zeroed.
	for r := 0; r < b; r++ {
		for q := r + 1; q < b; q++ {
			if c[r*b+q] != 0 {
				t.Fatalf("upper triangle not zeroed at (%d,%d)", r, q)
			}
		}
	}
	for r := 0; r < b; r++ {
		for q := 0; q <= r; q++ {
			s := 0.0
			for p := 0; p <= q; p++ {
				s += c[r*b+p] * c[q*b+p]
			}
			if math.Abs(s-a[r*b+q]) > 1e-8 {
				t.Fatalf("L·Lᵀ[%d][%d] = %v, want %v", r, q, s, a[r*b+q])
			}
		}
	}
}

// TestTrsmRightT: X·Lᵀ = A must hold after solving, on tile.SolveLower's Go
// body (b = 6) and its AVX2 body where the build has one (8, and the
// BenchSizes tile, 32).
func TestTrsmRightT(t *testing.T) {
	for _, b := range []int{6, 8, 32} {
		d := spdTile(b, 2)
		potrf(d, b)
		a := randTile(b, 3)
		x := append([]float64(nil), a...)
		trsmRightT(x, d, b)
		for r := 0; r < b; r++ {
			for q := 0; q < b; q++ {
				s := 0.0
				for p := 0; p <= q; p++ {
					s += x[r*b+p] * d[q*b+p] // (Lᵀ)[p][q] = L[q][p]
				}
				if math.Abs(s-a[r*b+q]) > 1e-8 {
					t.Fatalf("b=%d: X·Lᵀ[%d][%d] = %v, want %v", b, r, q, s, a[r*b+q])
				}
			}
		}
	}
}

// TestBlockedMatchesUnblocked compares every final lower tile against the
// unblocked factor.
func TestBlockedMatchesUnblocked(t *testing.T) {
	for _, size := range []struct{ n, b int }{{16, 4}, {32, 8}, {40, 8}} {
		a := newChol(t, size.n, size.b)
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
			for j := 0; j <= i; j++ {
				tile := outs[a.task(j, i, j)] // final stage of lower tile (i,j) is j
				for r := 0; r < b; r++ {
					for q := 0; q < b; q++ {
						gi, gj := i*b+r, j*b+q
						if gj > gi {
							continue // strictly upper part of the global factor
						}
						want := ref[gi*n+gj]
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

func TestTaskPopulation(t *testing.T) {
	a := newChol(t, 32, 4) // nb = 8
	keys := graph.Enumerate(a)
	// T = Σ_{k} [1 + (nb-1-k) + T_{nb-1-k}] with triangular numbers.
	want := 0
	for k := 0; k < a.nb; k++ {
		m := a.nb - 1 - k
		want += 1 + m + m*(m+1)/2
	}
	if len(keys) != want {
		t.Fatalf("tasks = %d, want %d", len(keys), want)
	}
	// All tasks satisfy k ≤ j ≤ i.
	for _, key := range keys {
		k, i, j := a.coords(key)
		if !(k <= j && j <= i) {
			t.Fatalf("task (%d,%d,%d) outside lower-triangular structure", k, i, j)
		}
	}
}

func TestDiagonalUpdateSinglePanelPred(t *testing.T) {
	a := newChol(t, 32, 8)
	// Update of a diagonal tile uses one panel: preds of T(k,i,i) must
	// not duplicate T(k,i,k).
	ps := a.Predecessors(a.task(0, 2, 2))
	if len(ps) != 1 {
		t.Fatalf("T(0,2,2) preds = %v, want exactly the stage-0 panel", ps)
	}
	seen := map[graph.Key]bool{}
	for _, p := range ps {
		if seen[p] {
			t.Fatalf("duplicate pred %d", p)
		}
		seen[p] = true
	}
}

// TestComputeFreesItsTileOnReadError: a compute whose read fails hands the
// tile it took back to the free list, where the next Alloc finds it still
// holding the input the compute copied in before the read. (A failed shadow
// replica used to drop its tile to the collector.)
func TestComputeFreesItsTileOnReadError(t *testing.T) {
	a := newChol(t, 40, 20) // a tile size no other test here frees
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
	rng := seed*2685821657736338717 + 29
	for i := range t {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		t[i] = float64(rng*0x2545F4914F6CDD1D>>11)/float64(1<<53)*2 - 1
	}
	return t
}

func spdTile(b int, seed uint64) []float64 {
	t := randTile(b, seed)
	// Symmetrise and dominate the diagonal.
	for r := 0; r < b; r++ {
		for q := 0; q < r; q++ {
			t[q*b+r] = t[r*b+q]
		}
		t[r*b+r] = math.Abs(t[r*b+r]) + float64(2*b)
	}
	return t
}
