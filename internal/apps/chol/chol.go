// Package chol implements the blocked Cholesky factorisation benchmark
// (lower triangular, A = L·Lᵀ) with memory reuse.
//
// Only the lower triangle is tiled: stage k factorises the diagonal tile
// (k,k) (potrf), triangular-solves the panel tiles (i,k) below it (trsm),
// and updates the trailing lower triangle (syrk/gemm): task T(k,i,j) with
// k ≤ j ≤ i writes version k+1 of tile (i,j). As in LU, every version of a
// trailing tile is read only by the tile's own next-stage task, so the
// single-buffer memory-reuse configuration (retention 1) is safe without
// extra ordering edges. Stage-0 tasks read the input from application
// memory.
//
// The input is a deterministic symmetric diagonally dominant (hence
// positive-definite) matrix.
package chol

import (
	"fmt"
	"math"
	"sync"

	"ftdag/internal/apps"
	"ftdag/internal/apps/tile"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

// Chol is one benchmark instance.
type Chol struct {
	n, b, nb int
	a        []float64

	refOnce sync.Once
	ref     []float64
}

var _ apps.App = (*Chol)(nil)

// New builds a Cholesky instance over a deterministic SPD matrix.
func New(cfg apps.Config) (apps.App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Chol{n: cfg.N, b: cfg.B, nb: cfg.Tiles()}
	a.a = make([]float64, cfg.N*cfg.N)
	rng := apps.NewRand(cfg.Seed, 43)
	for i := 0; i < cfg.N; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float()
			if i == j {
				v = math.Abs(v) + float64(cfg.N)
			}
			a.a[i*cfg.N+j] = v
			a.a[j*cfg.N+i] = v
		}
	}
	return a, nil
}

func (a *Chol) Name() string     { return "Cholesky" }
func (a *Chol) Spec() graph.Spec { return a }

// Retention is 1: the memory-reuse configuration.
func (a *Chol) Retention() int { return 1 }

func (a *Chol) task(k, i, j int) graph.Key { return graph.Key((k*a.nb+i)*a.nb + j) }

func (a *Chol) coords(key graph.Key) (k, i, j int) {
	v := int(key)
	j = v % a.nb
	v /= a.nb
	i = v % a.nb
	k = v / a.nb
	return k, i, j
}

// Sink is the final diagonal potrf.
func (a *Chol) Sink() graph.Key { return a.task(a.nb-1, a.nb-1, a.nb-1) }

// Predecessors of T(k,i,j), k ≤ j ≤ i.
func (a *Chol) Predecessors(key graph.Key) []graph.Key {
	k, i, j := a.coords(key)
	var ps []graph.Key
	if k > 0 {
		ps = append(ps, a.task(k-1, i, j))
	}
	switch {
	case i == k && j == k:
		// potrf: own previous version only
	case j == k:
		// trsm against the stage's potrf output
		ps = append(ps, a.task(k, k, k))
	case i == j:
		// symmetric rank-b update: A(i,i) -= L(i,k)·L(i,k)ᵀ
		ps = append(ps, a.task(k, i, k))
	default:
		// A(i,j) -= L(i,k)·L(j,k)ᵀ
		ps = append(ps, a.task(k, i, k), a.task(k, j, k))
	}
	return ps
}

// Successors is the exact inverse of Predecessors.
func (a *Chol) Successors(key graph.Key) []graph.Key {
	nb := a.nb
	k, i, j := a.coords(key)
	var ss []graph.Key
	switch {
	case i == k && j == k: // potrf feeds the stage's panel solves
		for t := k + 1; t < nb; t++ {
			ss = append(ss, a.task(k, t, k))
		}
	case j == k:
		// Panel L(i,k) is read by the stage-k updates of row i
		// (T(k,i,b) for k < b ≤ i) and of column i (T(k,a,i) for
		// a > i); T(k,i,i) appears once.
		for b := k + 1; b <= i; b++ {
			ss = append(ss, a.task(k, i, b))
		}
		for r := i + 1; r < nb; r++ {
			ss = append(ss, a.task(k, r, i))
		}
	default: // update feeds the tile's next stage (k+1 ≤ j holds)
		ss = append(ss, a.task(k+1, i, j))
	}
	return ss
}

// Output: T(k,i,j) writes version k+1 of lower tile (i,j).
func (a *Chol) Output(key graph.Key) block.Ref {
	k, i, j := a.coords(key)
	return block.Ref{Block: block.ID(i*a.nb + j), Version: k + 1}
}

// inputTile copies tile (i,j) of the input matrix into t.
func (a *Chol) inputTile(t []float64, i, j int) {
	b := a.b
	for r := 0; r < b; r++ {
		copy(t[r*b:(r+1)*b], a.a[(i*b+r)*a.n+j*b:])
	}
}

// Compute performs the stage-k kernel on tile (i,j). A compute whose read
// fails hands its tile back to the free list: the task runs again (a
// recovery, or a shadow replica's re-run from the primary's inputs), and
// that run takes a tile of its own.
func (a *Chol) Compute(ctx graph.Context, key graph.Key) error {
	c := graph.Alloc(ctx, a.b*a.b)
	if err := a.kernel(ctx, key, c); err != nil {
		graph.Free(ctx, c)
		return err
	}
	ctx.Write(c)
	return nil
}

// kernel writes into c the version T(k,i,j) produces: the tile's previous
// version, or its input at stage 0, through the stage's kernel.
func (a *Chol) kernel(ctx graph.Context, key graph.Key, c []float64) error {
	b := a.b
	k, i, j := a.coords(key)
	if k == 0 {
		a.inputTile(c, i, j)
	} else {
		prev, err := ctx.ReadPred(a.task(k-1, i, j))
		if err != nil {
			return err
		}
		copy(c, prev)
	}

	switch {
	case i == k && j == k:
		potrf(c, b)
	case j == k:
		// L(i,k) = A(i,k) · L(k,k)⁻ᵀ — solve X·Lᵀ = A.
		d, err := ctx.ReadPred(a.task(k, k, k))
		if err != nil {
			return err
		}
		trsmRightT(c, d, b)
	default:
		// A(i,j) -= L(i,k)·L(j,k)ᵀ (i == j uses the same panel twice).
		l, err := ctx.ReadPred(a.task(k, i, k))
		if err != nil {
			return err
		}
		r := l
		if i != j {
			r2, err := ctx.ReadPred(a.task(k, j, k))
			if err != nil {
				return err
			}
			r = r2
		}
		rt := graph.Alloc(ctx, b*b)
		gemmSubT(c, l, r, rt, b)
		graph.Free(ctx, rt)
	}
	return nil
}

// potrf factorises the SPD tile in place into its lower Cholesky factor;
// the strictly upper triangle is zeroed.
func potrf(c []float64, b int) {
	for p := 0; p < b; p++ {
		c[p*b+p] = math.Sqrt(c[p*b+p])
		for r := p + 1; r < b; r++ {
			c[r*b+p] /= c[p*b+p]
		}
		for r := p + 1; r < b; r++ {
			lrp := c[r*b+p]
			for q := p + 1; q <= r; q++ {
				c[r*b+q] -= lrp * c[q*b+p]
			}
		}
	}
	for r := 0; r < b; r++ {
		for q := r + 1; q < b; q++ {
			c[r*b+q] = 0
		}
	}
}

// trsmRightT solves X·Lᵀ = A in place against the lower factor d as
// L·Xᵀ = Aᵀ: tile.SolveLower on c transposed in place. Each element of X
// takes the textbook loop's products in ascending p, then its division, so
// the result is bit-identical to it (kernel_test.go).
func trsmRightT(c, d []float64, b int) {
	tile.Transpose(c, c, b)
	tile.SolveLower(c, d, b, false)
	tile.Transpose(c, c, b)
}

// gemmSubT computes C -= L·Rᵀ through tile.MulSub: Rᵀ is written into the
// scratch tile rt, so each element subtracts l[row][p]·r[col][p] in
// ascending p, as the textbook dot-product loop does, and the result is
// bit-identical to it.
func gemmSubT(c, l, r, rt []float64, b int) {
	tile.Transpose(rt, r, b)
	tile.MulSub(c, l, rt, b)
}

// reference computes the unblocked lower Cholesky factor of the input.
func (a *Chol) reference() []float64 {
	a.refOnce.Do(func() {
		n := a.n
		m := make([]float64, len(a.a))
		copy(m, a.a)
		for p := 0; p < n; p++ {
			m[p*n+p] = math.Sqrt(m[p*n+p])
			for r := p + 1; r < n; r++ {
				m[r*n+p] /= m[p*n+p]
			}
			for r := p + 1; r < n; r++ {
				lrp := m[r*n+p]
				for q := p + 1; q <= r; q++ {
					m[r*n+q] -= lrp * m[q*n+p]
				}
			}
		}
		a.ref = m
	})
	return a.ref
}

// VerifySink compares the final diagonal tile against the unblocked
// reference factor with a small relative tolerance.
func (a *Chol) VerifySink(sink []float64) error {
	if len(sink) != a.b*a.b {
		return fmt.Errorf("chol: sink tile has %d elements, want %d", len(sink), a.b*a.b)
	}
	ref := a.reference()
	off := (a.nb - 1) * a.b
	for r := 0; r < a.b; r++ {
		for q := 0; q <= r; q++ {
			want := ref[(off+r)*a.n+off+q]
			got := sink[r*a.b+q]
			tol := 1e-6 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				return fmt.Errorf("chol: sink tile [%d,%d] = %v, want %v (±%v)", r, q, got, want, tol)
			}
		}
	}
	return nil
}
