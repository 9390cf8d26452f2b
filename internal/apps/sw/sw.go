// Package sw implements the blocked Smith-Waterman local sequence alignment
// benchmark with memory reuse.
//
// The score recurrence H[i][j] = max(0, H[i-1][j-1]+s(x_i,y_j),
// H[i-1][j]-gap, H[i][j-1]-gap) is tiled like LCS, but — following the
// paper's memory-reuse configuration — tiles share a pool of 2·nb buffers:
// tile (bi, bj) writes version bi/2 of buffer ((bi mod 2), bj). Reusing a
// buffer two rows down requires write-after-read ordering: the dependences
// include explicit anti-dependence edges from the readers of a buffer
// version to the writer of the next version (paper §II: "the dependences
// specified ensure that all uses of a data block causally precede a
// subsequent definition"). A fault that corrupts a tile whose buffer slot
// has since been rewritten therefore triggers the paper's cascading
// re-execution chain.
//
// The global maximum score is threaded through the wavefront: each tile's
// output carries a running maximum in an extra trailing element, so the sink
// tile's trailing element is the alignment score.
package sw

import (
	"fmt"

	"ftdag/internal/apps"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

const (
	alphabet = 4
	match    = 2.0
	mismatch = -1.0
	gap      = 1.0
	// rows of tile buffers kept live; tile (bi, bj) writes buffer
	// (bi mod bufRows, bj).
	bufRows = 2
)

// SW is one benchmark instance.
type SW struct {
	n, b, nb int
	x, y     []byte
	// row, col and corner are the runs a tile reads of its upper, left and
	// upper-left neighbour: that tile's last row, last column or last cell,
	// each followed by its running maximum.
	row, col, corner []block.Run
}

var _ apps.App = (*SW)(nil)

// New builds a Smith-Waterman instance with deterministic random sequences.
func New(cfg apps.Config) (apps.App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := cfg.B
	a := &SW{n: cfg.N, b: b, nb: cfg.Tiles()}
	a.x = randomSeq(cfg.N, cfg.Seed+7)
	a.y = randomSeq(cfg.N, cfg.Seed+11)
	runMax := block.Run{Off: b * b, Stride: 1, N: 1}
	a.row = []block.Run{{Off: (b - 1) * b, Stride: 1, N: b}, runMax}
	a.col = []block.Run{{Off: b - 1, Stride: b, N: b}, runMax}
	a.corner = []block.Run{{Off: b*b - 1, Stride: 1, N: 2}} // the last cell and the running maximum after it
	return a, nil
}

func randomSeq(n int, seed int64) []byte {
	rng := uint64(seed)*2685821657736338717 + 1
	s := make([]byte, n)
	for i := range s {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		s[i] = byte((rng * 0x2545F4914F6CDD1D) % alphabet)
	}
	return s
}

func (a *SW) Name() string     { return "SW" }
func (a *SW) Spec() graph.Spec { return a }

// Retention is 1: the memory-reuse configuration.
func (a *SW) Retention() int { return 1 }

func (a *SW) key(bi, bj int) graph.Key { return graph.Key(bi*a.nb + bj) }
func (a *SW) coords(k graph.Key) (int, int) {
	return int(k) / a.nb, int(k) % a.nb
}

func (a *SW) Sink() graph.Key { return a.key(a.nb-1, a.nb-1) }

// Predecessors: natural wavefront neighbours (up, left, diagonal) plus the
// anti-dependence edges required before overwriting buffer slot
// (bi mod 2, bj): the readers of tile (bi-2, bj) — its right and
// diagonal-right consumers — must have finished. (Its lower consumer
// (bi-1, bj) is already an ancestor through the natural column edge.)
func (a *SW) Predecessors(k graph.Key) []graph.Key {
	bi, bj := a.coords(k)
	var ps []graph.Key
	if bi > 0 {
		ps = append(ps, a.key(bi-1, bj))
	}
	if bj > 0 {
		ps = append(ps, a.key(bi, bj-1))
	}
	if bi > 0 && bj > 0 {
		ps = append(ps, a.key(bi-1, bj-1))
	}
	if bi >= bufRows && bj+1 < a.nb {
		ps = append(ps, a.key(bi-bufRows, bj+1))   // right reader of (bi-2, bj)
		ps = append(ps, a.key(bi-bufRows+1, bj+1)) // diagonal reader of (bi-2, bj)
	}
	return ps
}

// Successors is the exact inverse of Predecessors.
func (a *SW) Successors(k graph.Key) []graph.Key {
	bi, bj := a.coords(k)
	var ss []graph.Key
	if bi+1 < a.nb {
		ss = append(ss, a.key(bi+1, bj))
	}
	if bj+1 < a.nb {
		ss = append(ss, a.key(bi, bj+1))
	}
	if bi+1 < a.nb && bj+1 < a.nb {
		ss = append(ss, a.key(bi+1, bj+1))
	}
	if bj > 0 {
		if bi+bufRows < a.nb {
			ss = append(ss, a.key(bi+bufRows, bj-1))
		}
		if bi+bufRows-1 < a.nb && bi >= 1 {
			ss = append(ss, a.key(bi+bufRows-1, bj-1))
		}
	}
	return ss
}

// Output maps tile (bi, bj) onto the shared buffer pool.
func (a *SW) Output(k graph.Key) block.Ref {
	bi, bj := a.coords(k)
	return block.Ref{
		Block:   block.ID((bi%bufRows)*a.nb + bj),
		Version: bi / bufRows,
	}
}

// Compute fills the tile and threads the running maximum. The output layout
// is b*b score cells followed by one running-max element.
func (a *SW) Compute(ctx graph.Context, k graph.Key) error {
	bi, bj := a.coords(k)
	b, nb := a.b, a.nb
	// Each neighbour is read for its boundary and its running maximum only; a
	// missing neighbour leaves zeros, the boundary of the global table and
	// the score floor. The row above and its maximum land in the tile's own
	// last row and maximum slot, which fill reads only for the first row and
	// overwrites last, so the column and the corner are the compute's one
	// allocation besides the tile. A recycled tile is not zero: the top row
	// of the table clears its row above and that row's maximum.
	tile := block.Alloc(b*b + 1)
	edge := make([]float64, b+3)
	up := tile[(b-1)*b:]             // the row above, then its tile's running maximum
	lf, dg := edge[:b+1], edge[b+1:] // the column to the left, the corner: each then its tile's maximum
	var err error
	if bi > 0 {
		err = graph.ReadPredAt(ctx, graph.Key((bi-1)*nb+bj), up, a.row...)
	} else {
		clear(up)
	}
	if err == nil && bj > 0 {
		err = graph.ReadPredAt(ctx, graph.Key(bi*nb+(bj-1)), lf, a.col...)
	}
	if err == nil && bi > 0 && bj > 0 {
		err = graph.ReadPredAt(ctx, graph.Key((bi-1)*nb+(bj-1)), dg, a.corner...)
	}
	if err != nil {
		block.Free(tile)
		return err
	}
	runMax := max(0, up[b], lf[b], dg[1])
	tile[b*b] = fill(tile[:b*b], up[:b], lf[:b], dg[0], runMax, a.x[bi*b:bi*b+b], a.y[bj*b:bj*b+b])
	ctx.Write(tile)
	return nil
}

// fill computes a tile's b×b score cells from its boundary and returns the
// running maximum, runMax raised by every cell: top is the row above the
// tile, left the column to its left, corner the cell above-left of both, and
// xs and ys the symbols of the tile's rows and columns (len(ys) = b). Along a
// row the cell to the left and the diagonal one are the values just computed
// and just read, so they are carried in locals; the row above is top for the
// first row and the tile's previous row after it. top may be the tile's own
// last row: fill reads it only for the first row, and reads each cell of it
// before writing that cell when the first row is the last (b = 1).
func fill(tile, top, left []float64, corner, runMax float64, xs, ys []byte) float64 {
	b := len(ys)
	up, dg0 := top, corner
	for r, x := range xs {
		row := tile[r*b : r*b+b]
		row, up = row[:len(ys)], up[:len(ys)] // no bounds checks in the c loop
		dg, lf := dg0, left[r]
		for c, y := range ys {
			u := up[c]
			s := mismatch
			if x == y {
				s = match
			}
			v := dg + s
			if u-gap > v {
				v = u - gap
			}
			if lf-gap > v {
				v = lf - gap
			}
			if v < 0 {
				v = 0
			}
			row[c] = v
			if v > runMax {
				runMax = v
			}
			dg, lf = u, v
		}
		up, dg0 = row, left[r]
	}
	return runMax
}

// Reference computes the maximum local alignment score with the plain O(N²)
// recurrence.
func (a *SW) Reference() float64 {
	prev := make([]float64, a.n+1)
	cur := make([]float64, a.n+1)
	best := 0.0
	for i := 1; i <= a.n; i++ {
		for j := 1; j <= a.n; j++ {
			s := mismatch
			if a.x[i-1] == a.y[j-1] {
				s = match
			}
			v := prev[j-1] + s
			if prev[j]-gap > v {
				v = prev[j] - gap
			}
			if cur[j-1]-gap > v {
				v = cur[j-1] - gap
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return best
}

// VerifySink checks the threaded running maximum against the reference.
func (a *SW) VerifySink(sink []float64) error {
	if len(sink) != a.b*a.b+1 {
		return fmt.Errorf("sw: sink tile has %d elements, want %d", len(sink), a.b*a.b+1)
	}
	got := sink[a.b*a.b]
	want := a.Reference()
	if got != want {
		return fmt.Errorf("sw: max alignment score = %v, want %v", got, want)
	}
	return nil
}
