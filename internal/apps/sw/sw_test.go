package sw

import (
	"math"
	"testing"

	"ftdag/internal/apps"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

func newSW(t *testing.T, n, b int) *SW {
	t.Helper()
	a, err := New(apps.Config{N: n, B: b, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return a.(*SW)
}

// TestBlockedMatchesReference compares the blocked wavefront (run by hand)
// with the plain recurrence; scores are small integers, so equality is
// exact.
func TestBlockedMatchesReference(t *testing.T) {
	for _, size := range []struct{ n, b int }{{16, 4}, {32, 8}, {48, 8}, {5, 1}} {
		a := newSW(t, size.n, size.b)
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
		if err := a.VerifySink(outs[a.Sink()]); err != nil {
			t.Fatalf("n=%d: %v", size.n, err)
		}
	}
}

// TestBoundaryLayout: a tile reads each neighbour with one ReadPredAt, whose
// runs name one word or words in a row, all in that tile's last row, its
// running maximum or the copy of its last column after them — at most two of
// a verifying store's segments — and the copy is the tile's last column bit
// for bit. The tile sizes are harness.QuickSizes' and BenchSizes' (harness
// imports this package), on 3×3 tiles: every kind of neighbour.
func TestBoundaryLayout(t *testing.T) {
	for _, b := range []int{16, 64} {
		a := newSW(t, 3*b, b)
		order, err := graph.TopoOrder(a)
		if err != nil {
			t.Fatal(err)
		}
		outs := map[graph.Key][]float64{}
		for _, k := range order {
			ctx := &fakeCtx{outs: outs}
			if err := a.Compute(ctx, k); err != nil {
				t.Fatal(err)
			}
			out := ctx.out
			if len(out) != b*b+1+b {
				t.Fatalf("b=%d: tile %d has %d words, want %d", b, k, len(out), b*b+1+b)
			}
			for r, w := range out[b*b+1:] {
				if c := out[r*b+b-1]; math.Float64bits(w) != math.Float64bits(c) {
					t.Fatalf("b=%d: tile %d exports %v in row %d, its last column holds %v", b, k, w, r, c)
				}
			}
			_, bj := a.coords(k)
			natural := 0 // the anti-dependence edges, to the right, order a rewrite and carry no read
			for _, p := range a.Predecessors(k) {
				if _, pj := a.coords(p); pj <= bj {
					natural++
				}
			}
			if len(ctx.reads) != natural {
				t.Fatalf("b=%d: tile %d made %d reads of %d neighbours", b, k, len(ctx.reads), natural)
			}
			for _, runs := range ctx.reads {
				for _, r := range runs {
					if r.N > 1 && r.Stride != 1 || r.Off < (b-1)*b || r.Off+(r.N-1)*r.Stride >= b*b+1+b {
						t.Fatalf("b=%d: tile %d reads %+v, outside the last row, the running maximum and the exported column", b, k, r)
					}
				}
			}
			outs[k] = out
		}
	}
}

// TestRunningMaxMonotone: the threaded running maximum must be the max over
// the tile's own cells and all predecessors' running maxima; the sink's is
// the global maximum.
func TestRunningMaxMonotone(t *testing.T) {
	a := newSW(t, 32, 8)
	outs := map[graph.Key][]float64{}
	order, _ := graph.TopoOrder(a)
	for _, k := range order {
		ctx := &fakeCtx{outs: outs}
		if err := a.Compute(ctx, k); err != nil {
			t.Fatal(err)
		}
		outs[k] = ctx.out
	}
	b := a.b
	global := 0.0
	for _, out := range outs {
		for _, v := range out[:b*b] {
			if v > global {
				global = v
			}
		}
	}
	sinkMax := outs[a.Sink()][b*b]
	if sinkMax != global {
		t.Fatalf("sink running max %v != global max %v", sinkMax, global)
	}
	// Monotone along natural edges.
	for bi := 0; bi < a.nb; bi++ {
		for bj := 0; bj < a.nb; bj++ {
			cur := outs[a.key(bi, bj)][b*b]
			if bi > 0 && outs[a.key(bi-1, bj)][b*b] > cur {
				t.Fatalf("running max decreased at (%d,%d)", bi, bj)
			}
			if bj > 0 && outs[a.key(bi, bj-1)][b*b] > cur {
				t.Fatalf("running max decreased at (%d,%d)", bi, bj)
			}
		}
	}
}

// TestBufferPoolMapping: tile (bi,bj) writes buffer (bi mod 2, bj) version
// bi/2, so the pool holds exactly 2·nb logical blocks.
func TestBufferPoolMapping(t *testing.T) {
	a := newSW(t, 32, 8) // nb = 4
	seen := map[int64]bool{}
	for bi := 0; bi < a.nb; bi++ {
		for bj := 0; bj < a.nb; bj++ {
			ref := a.Output(a.key(bi, bj))
			if ref.Version != bi/bufRows {
				t.Fatalf("tile (%d,%d) version = %d", bi, bj, ref.Version)
			}
			seen[int64(ref.Block)] = true
		}
	}
	if len(seen) != bufRows*a.nb {
		t.Fatalf("buffer pool has %d blocks, want %d", len(seen), bufRows*a.nb)
	}
}

// TestAntiDependenceCoverage: every reader of a buffer version must be an
// ancestor of the next writer of that buffer — the invariant that makes
// retention-1 reuse safe for SW.
func TestAntiDependenceCoverage(t *testing.T) {
	a := newSW(t, 40, 4) // nb = 10: plenty of reuse
	// Readers of tile (i,j): its natural consumers (down, right,
	// diagonal). Next writer of its buffer: tile (i+2, j).
	memo := map[[2]graph.Key]bool{}
	var reaches func(from, to graph.Key) bool
	reaches = func(from, to graph.Key) bool {
		if from == to {
			return true
		}
		key := [2]graph.Key{from, to}
		if v, ok := memo[key]; ok {
			return v
		}
		memo[key] = false
		out := false
		for _, s := range a.Successors(from) {
			if reaches(s, to) {
				out = true
				break
			}
		}
		memo[key] = out
		return out
	}
	for bi := 0; bi+bufRows < a.nb; bi++ {
		for bj := 0; bj < a.nb; bj++ {
			next := a.key(bi+bufRows, bj)
			for _, rd := range [][2]int{{bi + 1, bj}, {bi, bj + 1}, {bi + 1, bj + 1}} {
				if rd[0] >= a.nb || rd[1] >= a.nb {
					continue
				}
				reader := a.key(rd[0], rd[1])
				if !reaches(reader, next) {
					t.Fatalf("reader (%d,%d) of tile (%d,%d) not ordered before buffer rewrite (%d,%d)",
						rd[0], rd[1], bi, bj, bi+bufRows, bj)
				}
			}
		}
	}
}

func TestScoringScheme(t *testing.T) {
	// Identical sequences of length n score n·match.
	a := &SW{n: 8, b: 8, nb: 1,
		x: []byte{0, 1, 2, 3, 0, 1, 2, 3},
		y: []byte{0, 1, 2, 3, 0, 1, 2, 3}}
	if got := a.Reference(); got != 8*match {
		t.Fatalf("identical sequences score %v, want %v", got, 8*match)
	}
	// Completely disjoint alphabets score 0.
	b := &SW{n: 4, b: 4, nb: 1,
		x: []byte{0, 0, 0, 0},
		y: []byte{1, 1, 1, 1}}
	if got := b.Reference(); got != 0 {
		t.Fatalf("disjoint sequences score %v, want 0", got)
	}
}

// fakeCtx serves reads from the outputs of the tiles already computed and
// records the runs of every ReadPredAt.
type fakeCtx struct {
	outs  map[graph.Key][]float64
	reads [][]block.Run
	out   []float64
}

func (c *fakeCtx) ReadPred(p graph.Key) ([]float64, error) { return c.outs[p], nil }
func (c *fakeCtx) ReadPredAt(p graph.Key, dst []float64, runs ...block.Run) error {
	c.reads = append(c.reads, runs)
	block.Gather(dst, c.outs[p], runs...)
	return nil
}
func (c *fakeCtx) Write(d []float64) { c.out = d }
