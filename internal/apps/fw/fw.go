// Package fw implements the blocked Floyd-Warshall all-pairs-shortest-path
// benchmark with the paper's two-versions-per-block memory management.
//
// The task grid is nb×nb×nb: task T(k,i,j) performs the stage-k update of
// tile (i,j), writing version k+1 of that tile's block. Within a stage the
// classic three phases apply: the pivot tile (k,k) first, then the pivot row
// and column tiles, then the interior tiles, each reading the stage's
// updated pivot row/column. Keeping only two versions per block (paper §VI:
// "we adapted the implementation to retain two versions per data block")
// requires write-after-read ordering before a third version overwrites the
// oldest: the spec therefore includes explicit anti-dependence edges from
// the readers of version k-1 of a tile to the stage-k task that writes
// version k+1. This matches the paper's dependence model (§II: all uses of
// a version causally precede the next definition) and is what makes FW
// recoveries cascade — a corrupted tile version may force the chain of tasks
// producing earlier versions to re-execute.
//
// Because the paper's task counts (Table I: T = nb³ for FW) include no
// initialisation tasks, stage-0 tasks read the input adjacency matrix
// directly from application memory, which the paper assumes resilient.
//
// The final result is digested through per-row reduction tasks and a sink
// that sums all shortest-path distances. Edge weights are small integers, so
// every distance and every sum is an integer below 2⁵³ and exact in float64:
// min-plus updates may be reordered without changing a bit, which lets the
// pivot row and column tiles run through the interior's kernel, tile.MinPlus.
package fw

import (
	"fmt"

	"ftdag/internal/apps"
	"ftdag/internal/apps/tile"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

const maxEdge = 16 // integer edge weights in [1, maxEdge]

// FW is one benchmark instance.
type FW struct {
	n, b, nb int
	dist     []float64 // n×n input adjacency matrix (resilient app state)
}

var _ apps.App = (*FW)(nil)

// New builds a Floyd-Warshall instance over a deterministic random complete
// digraph with integer weights.
func New(cfg apps.Config) (apps.App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &FW{n: cfg.N, b: cfg.B, nb: cfg.Tiles()}
	a.dist = make([]float64, cfg.N*cfg.N)
	rng := apps.NewRand(cfg.Seed, 19)
	for i := 0; i < cfg.N; i++ {
		for j := 0; j < cfg.N; j++ {
			w := float64(rng.Next()%maxEdge + 1)
			if i == j {
				w = 0
			}
			a.dist[i*cfg.N+j] = w
		}
	}
	return a, nil
}

func (a *FW) Name() string     { return "FW" }
func (a *FW) Spec() graph.Spec { return a }

// Retention is 2: the paper's two-versions-per-block configuration for FW.
func (a *FW) Retention() int { return 2 }

// Key layout: stage tasks occupy [0, nb³); reduction task for row i is
// nb³+i; the sink is nb³+nb.
func (a *FW) task(k, i, j int) graph.Key {
	return graph.Key((k*a.nb+i)*a.nb + j)
}

func (a *FW) reduction(i int) graph.Key { return graph.Key(a.nb*a.nb*a.nb + i) }

func (a *FW) Sink() graph.Key { return graph.Key(a.nb*a.nb*a.nb + a.nb) }

func (a *FW) coords(key graph.Key) (k, i, j int) {
	v := int(key)
	j = v % a.nb
	v /= a.nb
	i = v % a.nb
	k = v / a.nb
	return k, i, j
}

func (a *FW) isStageTask(key graph.Key) bool { return int(key) < a.nb*a.nb*a.nb }

// Predecessors of T(k,i,j): the previous version of the tile (k>0), the
// stage's updated pivot / pivot-row / pivot-column tiles, and — for tiles
// whose version k-1 had readers beyond the tile's own stage-(k-1) task —
// the anti-dependence edges guarding the two-version store.
func (a *FW) Predecessors(key graph.Key) []graph.Key {
	nb := a.nb
	if !a.isStageTask(key) {
		if key == a.Sink() {
			ps := make([]graph.Key, nb)
			for i := 0; i < nb; i++ {
				ps[i] = a.reduction(i)
			}
			return ps
		}
		i := int(key) - nb*nb*nb
		ps := make([]graph.Key, nb)
		for j := 0; j < nb; j++ {
			ps[j] = a.task(nb-1, i, j)
		}
		return ps
	}
	k, i, j := a.coords(key)
	var ps []graph.Key
	if k > 0 {
		ps = append(ps, a.task(k-1, i, j))
	}
	switch {
	case i == k && j == k:
		// pivot: only its own previous version
	case j == k || i == k:
		ps = append(ps, a.task(k, k, k))
	default:
		ps = append(ps, a.task(k, i, k), a.task(k, k, j))
	}
	// Anti-dependences: writing version k+1 evicts version k-1 from the
	// two-version block. Version k-1 was written at stage k-2; if the
	// tile was then the pivot or on the pivot row/column, that version
	// was also read by the stage-(k-2) phase that consumed it.
	if k >= 2 {
		p := k - 2
		switch {
		case i == p && j == p:
			for t := 0; t < nb; t++ {
				if t != p {
					ps = append(ps, a.task(p, t, p), a.task(p, p, t))
				}
			}
		case j == p:
			for t := 0; t < nb; t++ {
				if t != p {
					ps = append(ps, a.task(p, i, t))
				}
			}
		case i == p:
			for t := 0; t < nb; t++ {
				if t != p {
					ps = append(ps, a.task(p, t, j))
				}
			}
		}
	}
	return ps
}

// Successors is the exact inverse of Predecessors.
func (a *FW) Successors(key graph.Key) []graph.Key {
	nb := a.nb
	if !a.isStageTask(key) {
		if key == a.Sink() {
			return nil
		}
		return []graph.Key{a.Sink()}
	}
	k, i, j := a.coords(key)
	var ss []graph.Key
	if k+1 < nb {
		ss = append(ss, a.task(k+1, i, j))
	} else {
		ss = append(ss, a.reduction(i))
	}
	switch {
	case i == k && j == k: // pivot feeds the stage's row and column
		for t := 0; t < nb; t++ {
			if t != k {
				ss = append(ss, a.task(k, t, k), a.task(k, k, t))
			}
		}
		// As sole reader of its own previous version the pivot incurs
		// no anti-dependence successors.
	case j == k: // column tile feeds the stage's interior row i …
		for t := 0; t < nb; t++ {
			if t != k {
				ss = append(ss, a.task(k, i, t))
			}
		}
		// … and, as a reader of pivot version k+1, must precede the
		// write of pivot version k+3.
		if k+2 < nb {
			ss = append(ss, a.task(k+2, k, k))
		}
	case i == k:
		for t := 0; t < nb; t++ {
			if t != k {
				ss = append(ss, a.task(k, t, j))
			}
		}
		if k+2 < nb {
			ss = append(ss, a.task(k+2, k, k))
		}
	default: // interior: reads column (i,k) and row (k,j) at version k+1,
		// so it must precede the writes of their versions k+3.
		if k+2 < nb {
			ss = append(ss, a.task(k+2, i, k), a.task(k+2, k, j))
		}
	}
	return ss
}

// Output: tile blocks are [0, nb²), reductions nb²+i, sink nb²+nb. T(k,i,j)
// writes version k+1 of tile (i,j); stage-0 input (version 0) lives in
// application memory.
func (a *FW) Output(key graph.Key) block.Ref {
	nb := a.nb
	if !a.isStageTask(key) {
		if key == a.Sink() {
			return block.Ref{Block: block.ID(nb*nb + nb), Version: 0}
		}
		i := int(key) - nb*nb*nb
		return block.Ref{Block: block.ID(nb*nb + i), Version: 0}
	}
	k, i, j := a.coords(key)
	return block.Ref{Block: block.ID(i*nb + j), Version: k + 1}
}

// inputTile copies tile (i,j) of the input matrix into t.
func (a *FW) inputTile(t []float64, i, j int) {
	b := a.b
	for r := 0; r < b; r++ {
		copy(t[r*b:(r+1)*b], a.dist[(i*b+r)*a.n+j*b:])
	}
}

// Compute performs the stage-k min-plus update of tile (i,j) (or a
// reduction).
func (a *FW) Compute(ctx graph.Context, key graph.Key) error {
	nb, b := a.nb, a.b
	if !a.isStageTask(key) {
		if key == a.Sink() {
			total := 0.0
			for i := 0; i < nb; i++ {
				v, err := ctx.ReadPred(a.reduction(i))
				if err != nil {
					return err
				}
				total += v[0]
			}
			ctx.Write([]float64{total})
			return nil
		}
		i := int(key) - nb*nb*nb
		sum := 0.0
		for j := 0; j < nb; j++ {
			t, err := ctx.ReadPred(a.task(nb-1, i, j))
			if err != nil {
				return err
			}
			for _, v := range t {
				sum += v
			}
		}
		ctx.Write([]float64{sum})
		return nil
	}

	k, i, j := a.coords(key)
	c := block.Alloc(b * b)
	if k == 0 {
		a.inputTile(c, i, j)
	} else {
		prev, err := ctx.ReadPred(a.task(k-1, i, j))
		if err != nil {
			block.Free(c)
			return err
		}
		copy(c, prev)
	}

	switch {
	case i == k && j == k:
		// Phase 1: Floyd-Warshall within the pivot tile.
		closure(c, b)
	case j == k || i == k:
		// Phase 2: a column tile becomes c ⊗ pv, a row tile pv ⊗ c, in place
		// through the updated pivot. tile.MinPlus reads words of c it has
		// already updated, in an order of its own; that is still exact: with
		// P the pivot tile after closure (P ⊗ P = P, zero diagonal) and every
		// value an exact integer, any tile X between C ⊗ P and C
		// (elementwise) has min(X, X ⊗ P) = C ⊗ P, so the result is the
		// textbook loop's bit for bit; likewise for P ⊗ C.
		pv, err := ctx.ReadPred(a.task(k, k, k))
		if err != nil {
			block.Free(c)
			return err
		}
		if j == k {
			tile.MinPlus(c, c, pv, b)
		} else {
			tile.MinPlus(c, pv, c, b)
		}
	default:
		// Phase 3 (interior): plain min-plus product with the updated
		// column and row tiles.
		av, err := ctx.ReadPred(a.task(k, i, k))
		if err != nil {
			block.Free(c)
			return err
		}
		bv, err := ctx.ReadPred(a.task(k, k, j))
		if err != nil {
			block.Free(c)
			return err
		}
		tile.MinPlus(c, av, bv, b)
	}
	ctx.Write(c)
	return nil
}

// closure runs Floyd-Warshall within the b×b tile c: afterwards c[r][q] ≤
// c[r][p] + c[p][q] for every p, and the diagonal stays zero.
func closure(c []float64, b int) {
	for p := 0; p < b; p++ {
		for r := 0; r < b; r++ {
			crp := c[r*b+p]
			for cc := 0; cc < b; cc++ {
				if v := crp + c[p*b+cc]; v < c[r*b+cc] {
					c[r*b+cc] = v
				}
			}
		}
	}
}

// Reference computes the digest (sum of all shortest-path distances) with
// the plain O(N³) recurrence.
func (a *FW) Reference() float64 {
	n := a.n
	d := make([]float64, len(a.dist))
	copy(d, a.dist)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			for j := 0; j < n; j++ {
				if v := dik + d[k*n+j]; v < d[i*n+j] {
					d[i*n+j] = v
				}
			}
		}
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum
}

// VerifySink compares the digest (all weights are integers, so the sums are
// exact).
func (a *FW) VerifySink(sink []float64) error {
	if len(sink) != 1 {
		return fmt.Errorf("fw: sink output has %d elements, want 1", len(sink))
	}
	want := a.Reference()
	if sink[0] != want {
		return fmt.Errorf("fw: distance digest = %v, want %v", sink[0], want)
	}
	return nil
}
