// Package lcs implements the blocked longest-common-subsequence benchmark.
//
// The DP recurrence D[i][j] = D[i-1][j-1]+1 if X[i]==Y[j], else
// max(D[i-1][j], D[i][j-1]) is tiled into B×B blocks. Tile (bi, bj) depends
// on its upper, left, and upper-left neighbours, from which it reads the
// boundary row/column/corner. Every tile's output is part of the final DP
// table, so LCS cannot reuse block memory (paper §VI) and uses
// single-assignment storage (retention 0, one version per block).
package lcs

import (
	"fmt"

	"ftdag/internal/apps"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

// alphabet is the input symbol count (DNA-like).
const alphabet = 4

// LCS is one benchmark instance.
type LCS struct {
	n, b, nb int
	x, y     []byte
	// row, col and corner are the runs a tile reads of its upper, left and
	// upper-left neighbour: that tile's last row, last column, last cell.
	row, col, corner []block.Run
}

var _ apps.App = (*LCS)(nil)

// New builds an LCS instance with deterministic random sequences.
func New(cfg apps.Config) (apps.App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := cfg.B
	a := &LCS{n: cfg.N, b: b, nb: cfg.Tiles()}
	a.x = randomSeq(cfg.N, cfg.Seed)
	a.y = randomSeq(cfg.N, cfg.Seed+1)
	a.row = []block.Run{{Off: (b - 1) * b, Stride: 1, N: b}}
	a.col = []block.Run{{Off: b - 1, Stride: b, N: b}}
	a.corner = []block.Run{{Off: b*b - 1, Stride: 1, N: 1}}
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

func (a *LCS) Name() string     { return "LCS" }
func (a *LCS) Spec() graph.Spec { return a }
func (a *LCS) Retention() int   { return 0 }

// key packs tile coordinates.
func (a *LCS) key(bi, bj int) graph.Key { return graph.Key(bi*a.nb + bj) }

func (a *LCS) coords(k graph.Key) (bi, bj int) {
	return int(k) / a.nb, int(k) % a.nb
}

// Sink is the bottom-right tile, which transitively depends on every tile.
func (a *LCS) Sink() graph.Key { return a.key(a.nb-1, a.nb-1) }

// Predecessors returns up, left, diagonal (in that stable order).
func (a *LCS) Predecessors(k graph.Key) []graph.Key {
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
	return ps
}

// Successors mirrors Predecessors.
func (a *LCS) Successors(k graph.Key) []graph.Key {
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
	return ss
}

// Output: single assignment, one block per tile.
func (a *LCS) Output(k graph.Key) block.Ref {
	return block.Ref{Block: block.ID(k), Version: 0}
}

// Compute fills the tile's B×B region of the DP table.
func (a *LCS) Compute(ctx graph.Context, k graph.Key) error {
	bi, bj := a.coords(k)
	b, nb := a.b, a.nb
	// Boundary values D[bi*b-1+r][bj*b-1+c] come from neighbour tiles, read
	// for just those words; row -1 / column -1 of the global table are zero.
	// The row above lands in the tile's own last row, which fill reads only
	// for the first row and overwrites last, so the column and the corner
	// are the compute's one allocation besides the tile. A recycled tile is
	// not zero: the top row of the table clears its row above.
	tile := block.Alloc(b * b)
	edge := make([]float64, b+1)
	top := tile[(b-1)*b:]              // D[bi*b-1][bj*b + c]
	left, corner := edge[:b], edge[b:] // D[bi*b + r][bj*b-1], D[bi*b-1][bj*b-1]
	var err error
	if bi > 0 {
		err = graph.ReadPredAt(ctx, graph.Key((bi-1)*nb+bj), top, a.row...)
	} else {
		clear(top)
	}
	if err == nil && bj > 0 {
		err = graph.ReadPredAt(ctx, graph.Key(bi*nb+(bj-1)), left, a.col...)
	}
	if err == nil && bi > 0 && bj > 0 {
		err = graph.ReadPredAt(ctx, graph.Key((bi-1)*nb+(bj-1)), corner, a.corner...)
	}
	if err != nil {
		block.Free(tile)
		return err
	}
	fill(tile, top, left, corner[0], a.x[bi*b:bi*b+b], a.y[bj*b:bj*b+b])
	ctx.Write(tile)
	return nil
}

// fill computes a tile's cells from its boundary: top is the row above the
// tile, left the column to its left, corner the cell above-left of both, and
// xs and ys the symbols of the tile's rows and columns (len(ys) = b). Along a
// row the cell to the left and the diagonal one are the values just computed
// and just read, so they are carried in locals; the row above is top for the
// first row and the tile's previous row after it. top may be the tile's own
// last row: fill reads it only for the first row, and reads each cell of it
// before writing that cell when the first row is the last (b = 1).
func fill(tile, top, left []float64, corner float64, xs, ys []byte) {
	b := len(ys)
	up, dg0 := top, corner
	for r, x := range xs {
		row := tile[r*b : r*b+b]
		row, up = row[:len(ys)], up[:len(ys)] // no bounds checks in the c loop
		dg, lf := dg0, left[r]
		for c, y := range ys {
			u := up[c]
			v := lf
			if x == y {
				v = dg + 1
			} else if u > lf {
				v = u
			}
			row[c] = v
			dg, lf = u, v
		}
		up, dg0 = row, left[r]
	}
}

// Reference computes the LCS length with the plain O(N²) recurrence.
func (a *LCS) Reference() int {
	prev := make([]int, a.n+1)
	cur := make([]int, a.n+1)
	for i := 1; i <= a.n; i++ {
		for j := 1; j <= a.n; j++ {
			if a.x[i-1] == a.y[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] > cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[a.n]
}

// VerifySink checks that the bottom-right element of the sink tile equals
// the reference LCS length.
func (a *LCS) VerifySink(sink []float64) error {
	if len(sink) != a.b*a.b {
		return fmt.Errorf("lcs: sink tile has %d elements, want %d", len(sink), a.b*a.b)
	}
	got := int(sink[a.b*a.b-1])
	want := a.Reference()
	if got != want {
		return fmt.Errorf("lcs: LCS length = %d, want %d", got, want)
	}
	return nil
}
