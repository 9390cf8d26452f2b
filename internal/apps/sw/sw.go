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
// output carries a running maximum in the element after its cells, so the
// sink tile's element b·b is the alignment score. A copy of the tile's last
// column follows it, for the right-hand neighbour to read b words in a row
// rather than b words b apart (see package lcs): b·b + 1 + b words.
//
// The tile kernel, tile.SmithWaterman, works in integers and stores float64:
// every cell is an integer score of at most match·N, below 2⁵³, which float64
// holds exactly.
package sw

import (
	"fmt"

	"ftdag/internal/apps"
	"ftdag/internal/apps/tile"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

const (
	alphabet = 4
	// The scores are untyped integer constants: fill computes in integers, so
	// a score that is not an integer does not compile.
	match    = 2
	mismatch = -1
	gap      = 1
	// rows of tile buffers kept live; tile (bi, bj) writes buffer
	// (bi mod bufRows, bj).
	bufRows = 2
)

// SW is one benchmark instance.
type SW struct {
	n, b, nb int
	x, y     []byte
	// row, col and corner are the runs a tile reads of its upper, left and
	// upper-left neighbour: that tile's last row and then its running
	// maximum; its running maximum and then the copy of its last column; the
	// copy's last word, its last cell, and then its running maximum.
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
	a.x = apps.NewRand(cfg.Seed+7, 1).Seq(cfg.N, alphabet)
	a.y = apps.NewRand(cfg.Seed+11, 1).Seq(cfg.N, alphabet)
	a.row = []block.Run{{Off: (b - 1) * b, Stride: 1, N: b + 1}}
	a.col = []block.Run{{Off: b * b, Stride: 1, N: b + 1}}
	a.corner = []block.Run{{Off: b*b + b, Stride: 1, N: 1}, {Off: b * b, Stride: 1, N: 1}}
	return a, nil
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

// Compute fills the tile, threads the running maximum and appends a copy of
// the tile's last column: b*b score cells, one running-max element, then b
// words of the column.
func (a *SW) Compute(ctx graph.Context, k graph.Key) error {
	bi, bj := a.coords(k)
	b, nb := a.b, a.nb
	// Each neighbour is read for its boundary and its running maximum only; a
	// missing neighbour leaves zeros, the boundary of the global table and
	// the score floor. Each lands in the tile itself, so the tile is the
	// compute's one allocation, and each maximum is taken into a local before
	// the next read can land on it: the corner and its maximum first, in the
	// first two words; the row above and its maximum in the tile's own last
	// row and maximum slot — fill reads the row only for the first row and
	// overwrites it last; the column to the left, after its maximum, in the
	// maximum slot and the copy of the tile's own last column, which is
	// written after fill. A recycled tile is not zero: the top row of the
	// table clears its row above, the left column its column to the left.
	tile := graph.Alloc(ctx, b*b+1+b)
	up := tile[(b-1)*b : b*b+1] // the row above, then its tile's running maximum
	lf := tile[b*b:]            // the column to the left's tile's running maximum, then the column
	var corner, dgMax float64   // the cell above-left, its tile's running maximum
	var err error
	if bi > 0 && bj > 0 {
		err = graph.ReadPredAt(ctx, graph.Key((bi-1)*nb+(bj-1)), tile[:2], a.corner...)
		corner, dgMax = tile[0], tile[1]
	}
	if bi == 0 {
		clear(up)
	} else if err == nil {
		err = graph.ReadPredAt(ctx, graph.Key((bi-1)*nb+bj), up, a.row...)
	}
	upMax := up[b]
	if bj == 0 {
		clear(lf)
	} else if err == nil {
		err = graph.ReadPredAt(ctx, graph.Key(bi*nb+(bj-1)), lf, a.col...)
	}
	if err != nil {
		graph.Free(ctx, tile)
		return err
	}
	left := lf[1:]
	runMax := max(0, upMax, lf[0], dgMax)
	tile[b*b] = fill(tile[:b*b], up[:b], left, corner, runMax, a.x[bi*b:bi*b+b], a.y[bj*b:bj*b+b])
	for r := range left {
		left[r] = tile[r*b+b-1]
	}
	ctx.Write(tile)
	return nil
}

// fill computes a tile's b×b score cells from its boundary and returns the
// running maximum, runMax raised by every cell: top is the row above the
// tile, left the column to its left, corner the cell above-left of both, and
// xs and ys the symbols of the tile's rows and columns (len(ys) = b). top may
// be the tile's own last row. The kernel and its two bodies are
// tile.SmithWaterman's.
func fill(h, top, left []float64, corner, runMax float64, xs, ys []byte) float64 {
	return tile.SmithWaterman(h, top, left, corner, runMax, xs, ys, match, mismatch, gap)
}

// Reference computes the maximum local alignment score with the plain O(N²)
// recurrence.
func (a *SW) Reference() float64 {
	prev := make([]int, a.n+1)
	cur := make([]int, a.n+1)
	best := 0
	for i := 1; i <= a.n; i++ {
		for j := 1; j <= a.n; j++ {
			s := mismatch
			if a.x[i-1] == a.y[j-1] {
				s = match
			}
			v := max(prev[j-1]+s, prev[j]-gap, cur[j-1]-gap, 0)
			cur[j] = v
			best = max(best, v)
		}
		prev, cur = cur, prev
	}
	return float64(best)
}

// VerifySink checks the threaded running maximum against the reference.
func (a *SW) VerifySink(sink []float64) error {
	if want := a.b*a.b + 1 + a.b; len(sink) != want {
		return fmt.Errorf("sw: sink tile has %d elements, want %d", len(sink), want)
	}
	got := sink[a.b*a.b]
	want := a.Reference()
	if got != want {
		return fmt.Errorf("sw: max alignment score = %v, want %v", got, want)
	}
	return nil
}
