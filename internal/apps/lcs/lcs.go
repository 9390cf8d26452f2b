// Package lcs implements the blocked longest-common-subsequence benchmark.
//
// The DP recurrence D[i][j] = D[i-1][j-1]+1 if X[i]==Y[j], else
// max(D[i-1][j], D[i][j-1]) is tiled into B×B blocks. Tile (bi, bj) depends
// on its upper, left, and upper-left neighbours, from which it reads the
// boundary row/column/corner. Every tile's output is part of the final DP
// table, so LCS cannot reuse block memory (paper §VI) and uses
// single-assignment storage (retention 0, one version per block).
//
// A tile's output is its b·b cells, row by row, then a copy of its last
// column: b·b + b words. The right-hand neighbour reads the copy, b words in a
// row, where the column itself is b words b apart; a verifying store re-hashes
// every segment that holds a word a read returns, so the column would cost it
// the whole tile and the copy costs one segment.
//
// The tile kernel works in int64 and stores float64: every cell is an LCS
// length, an integer no larger than N and so below 2⁵³, which float64 holds
// exactly.
package lcs

import (
	"fmt"
	"math/bits"

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
	// upper-left neighbour: that tile's last row, the copy of its last column
	// and the copy's last word, its last cell.
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
	a.x = apps.NewRand(cfg.Seed, 1).Seq(cfg.N, alphabet)
	a.y = apps.NewRand(cfg.Seed+1, 1).Seq(cfg.N, alphabet)
	a.row = []block.Run{{Off: (b - 1) * b, Stride: 1, N: b}}
	a.col = []block.Run{{Off: b * b, Stride: 1, N: b}}
	a.corner = []block.Run{{Off: b*b + b - 1, Stride: 1, N: 1}}
	return a, nil
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

// Compute fills the tile's B×B region of the DP table and appends a copy of
// its last column (package doc).
func (a *LCS) Compute(ctx graph.Context, k graph.Key) error {
	bi, bj := a.coords(k)
	b, nb := a.b, a.nb
	// Boundary values D[bi*b-1+r][bj*b-1+c] come from neighbour tiles, read
	// for just those words; row -1 / column -1 of the global table are zero.
	// Each lands in the tile itself, so the tile is the compute's one
	// allocation: the corner first, in the first cell, from where it is taken
	// before anything else can land there; the row above in the last row,
	// which fill reads only for the first row and overwrites last; the column
	// to the left in the copy of the tile's own last column, which is written
	// after fill. A recycled tile is not zero: the top row of the table clears
	// its row above, the left column its column to the left.
	tile := graph.Alloc(ctx, b*b+b)
	top := tile[(b-1)*b : b*b] // D[bi*b-1][bj*b + c]
	left := tile[b*b:]         // D[bi*b + r][bj*b-1]
	var corner float64         // D[bi*b-1][bj*b-1]
	var err error
	if bi > 0 && bj > 0 {
		err = graph.ReadPredAt(ctx, graph.Key((bi-1)*nb+(bj-1)), tile[:1], a.corner...)
		corner = tile[0]
	}
	if bi == 0 {
		clear(top)
	} else if err == nil {
		err = graph.ReadPredAt(ctx, graph.Key((bi-1)*nb+bj), top, a.row...)
	}
	if bj == 0 {
		clear(left)
	} else if err == nil {
		err = graph.ReadPredAt(ctx, graph.Key(bi*nb+(bj-1)), left, a.col...)
	}
	if err != nil {
		graph.Free(ctx, tile)
		return err
	}
	fill(tile[:b*b], top, left, corner, a.x[bi*b:bi*b+b], a.y[bj*b:bj*b+b])
	for r := range left {
		left[r] = tile[r*b+b-1]
	}
	ctx.Write(tile)
	return nil
}

// fill computes a tile's cells from its boundary: top is the row above the
// tile, left the column to its left, corner the cell above-left of both, and
// xs and ys the symbols of the tile's rows and columns (len(ys) = b). top may
// be the tile's own last row, which both bodies read only for the first row.
// The bit-parallel body runs where it gives the scalar body's bits (fillBits
// says when); every other input takes the scalar body.
func fill(tile, top, left []float64, corner float64, xs, ys []byte) {
	if !fillBits(tile, top, left, corner, xs, ys) {
		fillScalar(tile, top, left, corner, xs, ys)
	}
}

// exact bounds the corner fillBits takes: every cell of the tile is then an
// integer within 2·64 of it, below 2⁵³, which float64 holds exactly.
const exact = 1 << 52

// steps holds, for each 4-bit slice of a row's vertical steps, the four
// cells' increments over the row above: steps[v][i] is bit i of v, as 0 or 1.
var steps = func() (t [16][4]float64) {
	for v := range t {
		for i := range t[v] {
			t[v][i] = float64(v >> i & 1)
		}
	}
	return t
}()

// fillBits is the bit-parallel body (Allison & Dix 1986; Hyyrö 2004). In an
// LCS table adjacent cells differ by 0 or 1, so a row of b ≤ 64 cells is one
// word of steps. With S the columns whose step from the left, in the row
// above, is 0, and M the columns whose symbol matches the row's, one addition
//
//	S' = (S + (S & M) + cin) | (S &^ M)
//
// advances S a row, cin being the row's step down the left column; the
// addition's carry into column c+1 is the row's step down from the row above
// at column c, and a cell is its upper neighbour plus that step. The
// recurrence holds in steps whenever every step into the tile, along top from
// corner and down left from corner, is 0 or 1, and then its cells are the
// scalar body's: integers, so the table's float64 adds are exact. fillBits
// checks that, on an integer corner within ±exact, and returns false without
// writing the tile otherwise (b > 64, or any word NaN, infinite, fractional,
// or off by a flipped bit).
func fillBits(tile, top, left []float64, corner float64, xs, ys []byte) bool {
	b := len(ys)
	if b == 0 || b > 64 || float64(int64(corner)) != corner || corner < -exact || corner > exact {
		return false
	}
	var s, cin uint64 // bit c: top's step into column c is 0; bit r: left's step into row r is 1
	prev := corner
	for c, u := range top[:b] {
		switch u {
		case prev:
			s |= 1 << c
		case prev + 1:
		default:
			return false
		}
		prev = u
	}
	prev = corner
	for r, l := range left[:b] {
		switch l {
		case prev:
		case prev + 1:
			cin |= 1 << r
		default:
			return false
		}
		prev = l
	}
	var peq [256]uint64 // the columns each symbol matches
	for c, y := range ys {
		peq[y] |= 1 << c
	}
	cols := ^uint64(0) >> (64 - b)
	up := top[:b]
	for r, x := range xs[:b] {
		m := peq[x]
		u := s & m
		sum, carry := bits.Add64(s, u, cin>>r&1)
		v := (sum^s^u)>>1 | carry<<63 // bit c: the step down into column c
		s = (sum | s&^m) & cols
		row := tile[r*b : r*b+b]
		row = row[:len(up)]
		c := 0
		for ; c+4 <= len(row); c += 4 {
			d, w, y := &steps[v>>c&15], row[c:c+4:c+4], up[c:c+4:c+4]
			w[0], w[1], w[2], w[3] = y[0]+d[0], y[1]+d[1], y[2]+d[2], y[3]+d[3]
		}
		for ; c < len(row); c++ {
			row[c] = up[c] + steps[v>>c&1][0]
		}
		up = row
	}
	return true
}

// fillScalar is the scalar body. Along a row the cell to the left and the
// diagonal one are the values just computed and just read, so they are
// carried in locals; the row above is top for the first row and the tile's
// previous row after it, and when the first row is the last (b = 1) each cell
// of top is read before it is written.
//
// The cells are computed in int64 (package doc), where max and the match
// select compile to conditional moves: no cell's control flow depends on its
// data, so an unpredictable sequence costs no mispredicted branches.
func fillScalar(tile, top, left []float64, corner float64, xs, ys []byte) {
	b := len(ys)
	up, dg0 := top, int64(corner)
	for r, x := range xs {
		row := tile[r*b : r*b+b]
		row, up = row[:len(ys)], up[:len(ys)] // no bounds checks in the c loop
		dg, lf := dg0, int64(left[r])
		for c, y := range ys {
			u := int64(up[c])
			v := max(u, lf)
			if x == y {
				v = dg + 1
			}
			row[c] = float64(v)
			dg, lf = u, v
		}
		up, dg0 = row, int64(left[r])
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
	if want := a.b*a.b + a.b; len(sink) != want {
		return fmt.Errorf("lcs: sink tile has %d elements, want %d", len(sink), want)
	}
	got := int(sink[a.b*a.b-1])
	want := a.Reference()
	if got != want {
		return fmt.Errorf("lcs: LCS length = %d, want %d", got, want)
	}
	return nil
}
