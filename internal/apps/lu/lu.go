// Package lu implements the blocked right-looking LU decomposition (without
// pivoting) benchmark with memory reuse.
//
// Stage k factorises the diagonal tile (k,k), triangular-solves the panel
// tiles of column k and row k against it, and rank-b-updates the trailing
// submatrix: task T(k,i,j) writes version k+1 of tile (i,j). Each version of
// an interior tile is read only by the tile's own next-stage task, so the
// single-buffer reuse configuration (retention 1, the paper's
// memory-reuse implementation for LU) needs no extra anti-dependence
// edges. Stage-0 tasks read the input matrix from application memory
// (assumed resilient; Table I's task counts include no init tasks:
// T = Σ_{m=1..nb} m² = nb(nb+1)(2nb+1)/6).
//
// The input is made strongly diagonally dominant so factorisation without
// pivoting is numerically stable.
package lu

import (
	"fmt"
	"math"
	"sync"

	"ftdag/internal/apps"
	"ftdag/internal/apps/tile"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

// LU is one benchmark instance.
type LU struct {
	n, b, nb int
	a        []float64 // n×n input matrix (resilient app state)

	refOnce sync.Once
	ref     []float64 // cached unblocked reference factorisation
}

var _ apps.App = (*LU)(nil)

// New builds an LU instance over a deterministic diagonally dominant matrix.
func New(cfg apps.Config) (apps.App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &LU{n: cfg.N, b: cfg.B, nb: cfg.Tiles()}
	a.a = make([]float64, cfg.N*cfg.N)
	rng := apps.NewRand(cfg.Seed, 31)
	for i := 0; i < cfg.N; i++ {
		for j := 0; j < cfg.N; j++ {
			v := rng.Float()
			if i == j {
				v += float64(cfg.N)
			}
			a.a[i*cfg.N+j] = v
		}
	}
	return a, nil
}

func (a *LU) Name() string     { return "LU" }
func (a *LU) Spec() graph.Spec { return a }

// Retention is 1: the memory-reuse configuration.
func (a *LU) Retention() int { return 1 }

func (a *LU) task(k, i, j int) graph.Key { return graph.Key((k*a.nb+i)*a.nb + j) }

func (a *LU) coords(key graph.Key) (k, i, j int) {
	v := int(key)
	j = v % a.nb
	v /= a.nb
	i = v % a.nb
	k = v / a.nb
	return k, i, j
}

// Sink is the final diagonal factorisation.
func (a *LU) Sink() graph.Key { return a.task(a.nb-1, a.nb-1, a.nb-1) }

// Predecessors of T(k,i,j): the tile's previous version plus the stage's
// diagonal/panel inputs.
func (a *LU) Predecessors(key graph.Key) []graph.Key {
	k, i, j := a.coords(key)
	var ps []graph.Key
	if k > 0 {
		ps = append(ps, a.task(k-1, i, j))
	}
	switch {
	case i == k && j == k:
		// diagonal getrf: own previous version only
	case j == k || i == k:
		ps = append(ps, a.task(k, k, k))
	default:
		ps = append(ps, a.task(k, i, k), a.task(k, k, j))
	}
	return ps
}

// Successors is the exact inverse of Predecessors.
func (a *LU) Successors(key graph.Key) []graph.Key {
	nb := a.nb
	k, i, j := a.coords(key)
	var ss []graph.Key
	switch {
	case i == k && j == k:
		for t := k + 1; t < nb; t++ {
			ss = append(ss, a.task(k, t, k), a.task(k, k, t))
		}
	case j == k: // column panel L(i,k): read by the stage's updates on row i
		for t := k + 1; t < nb; t++ {
			ss = append(ss, a.task(k, i, t))
		}
	case i == k: // row panel U(k,j)
		for t := k + 1; t < nb; t++ {
			ss = append(ss, a.task(k, t, j))
		}
	default: // trailing update: feeds the tile's next stage
		ss = append(ss, a.task(k+1, i, j))
	}
	return ss
}

// Output: T(k,i,j) writes version k+1 of tile (i,j).
func (a *LU) Output(key graph.Key) block.Ref {
	k, i, j := a.coords(key)
	return block.Ref{Block: block.ID(i*a.nb + j), Version: k + 1}
}

// inputTile copies tile (i,j) of the input matrix into t.
func (a *LU) inputTile(t []float64, i, j int) {
	b := a.b
	for r := 0; r < b; r++ {
		copy(t[r*b:(r+1)*b], a.a[(i*b+r)*a.n+j*b:])
	}
}

// Compute performs the stage-k kernel on tile (i,j). A compute whose read
// fails hands its tile back to the free list: the task runs again (a
// recovery, or a shadow replica's re-run from the primary's inputs), and
// that run takes a tile of its own.
func (a *LU) Compute(ctx graph.Context, key graph.Key) error {
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
func (a *LU) kernel(ctx graph.Context, key graph.Key, c []float64) error {
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
		getrf(c, b)
	case j == k:
		// L(i,k) = A(i,k) · U(k,k)⁻¹ — solve X·U = A.
		d, err := ctx.ReadPred(a.task(k, k, k))
		if err != nil {
			return err
		}
		ut := graph.Alloc(ctx, b*b)
		trsmRight(c, d, ut, b)
		graph.Free(ctx, ut)
	case i == k:
		// U(k,j) = L(k,k)⁻¹ · A(k,j) — solve L·X = A, L unit lower.
		d, err := ctx.ReadPred(a.task(k, k, k))
		if err != nil {
			return err
		}
		trsmLeft(c, d, b)
	default:
		// A(i,j) -= L(i,k) · U(k,j).
		l, err := ctx.ReadPred(a.task(k, i, k))
		if err != nil {
			return err
		}
		u, err := ctx.ReadPred(a.task(k, k, j))
		if err != nil {
			return err
		}
		tile.MulSub(c, l, u, b)
	}
	return nil
}

// getrf factorises c in place into packed L\U (L unit lower).
func getrf(c []float64, b int) {
	for p := 0; p < b; p++ {
		piv := c[p*b+p]
		for r := p + 1; r < b; r++ {
			c[r*b+p] /= piv
			lrp := c[r*b+p]
			for q := p + 1; q < b; q++ {
				c[r*b+q] -= lrp * c[p*b+q]
			}
		}
	}
}

// trsmRight solves X·U = A in place (U = upper triangle of the packed
// diagonal tile d) as Uᵀ·Xᵀ = Aᵀ: tile.SolveLower on c transposed in place,
// against Uᵀ written into the scratch tile ut. Each element of X takes the
// textbook loop's products in ascending p, then its division, so the result
// is bit-identical to it (kernel_test.go).
func trsmRight(c, d, ut []float64, b int) {
	tile.Transpose(ut, d, b)
	tile.Transpose(c, c, b)
	tile.SolveLower(c, ut, b, false)
	tile.Transpose(c, c, b)
}

// trsmLeft solves L·X = A in place (L = unit lower triangle of d).
func trsmLeft(c, d []float64, b int) {
	tile.SolveLower(c, d, b, true)
}

// reference computes the unblocked in-place LU factorisation of the input.
func (a *LU) reference() []float64 {
	a.refOnce.Do(func() {
		n := a.n
		m := make([]float64, len(a.a))
		copy(m, a.a)
		for p := 0; p < n; p++ {
			piv := m[p*n+p]
			for r := p + 1; r < n; r++ {
				m[r*n+p] /= piv
				lrp := m[r*n+p]
				for q := p + 1; q < n; q++ {
					m[r*n+q] -= lrp * m[p*n+q]
				}
			}
		}
		a.ref = m
	})
	return a.ref
}

// VerifySink compares the final diagonal tile against the unblocked
// reference factorisation with a small relative tolerance (blocked and
// unblocked factorisations associate the floating-point sums differently).
func (a *LU) VerifySink(sink []float64) error {
	if len(sink) != a.b*a.b {
		return fmt.Errorf("lu: sink tile has %d elements, want %d", len(sink), a.b*a.b)
	}
	ref := a.reference()
	off := (a.nb - 1) * a.b
	for r := 0; r < a.b; r++ {
		for q := 0; q < a.b; q++ {
			want := ref[(off+r)*a.n+off+q]
			got := sink[r*a.b+q]
			tol := 1e-6 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				return fmt.Errorf("lu: sink tile [%d,%d] = %v, want %v (±%v)", r, q, got, want, tol)
			}
		}
	}
	return nil
}
