package lcs

import (
	"testing"

	"ftdag/internal/apps"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

func newLCS(t *testing.T, n, b int) *LCS {
	t.Helper()
	a, err := New(apps.Config{N: n, B: b, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return a.(*LCS)
}

func TestSequenceGeneration(t *testing.T) {
	a := newLCS(t, 64, 8)
	if len(a.x) != 64 || len(a.y) != 64 {
		t.Fatalf("sequence lengths %d/%d", len(a.x), len(a.y))
	}
	for _, c := range a.x {
		if c >= alphabet {
			t.Fatalf("symbol %d out of alphabet", c)
		}
	}
	// x and y must differ (different derived seeds).
	same := true
	for i := range a.x {
		if a.x[i] != a.y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("x == y")
	}
}

// TestBlockedMatchesReference computes the full blocked DP by hand and
// compares every cell of every tile with the unblocked recurrence. Where a
// tile is big enough for the free list, Compute takes it from there holding
// the poison of a freed buffer, as a recycled tile does under the executors'
// tests: a word Compute reads before writing it — the row above the table's
// top row — shows as a wrong cell.
func TestBlockedMatchesReference(t *testing.T) {
	block.PoisonFreed(true)
	defer block.PoisonFreed(false)
	for _, size := range []struct{ n, b int }{{16, 4}, {32, 8}, {48, 8}, {60, 4}} {
		a := newLCS(t, size.n, size.b)
		outs := map[graph.Key][]float64{}
		order, err := graph.TopoOrder(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range order {
			block.Free(make([]float64, size.b*size.b)) // Alloc's next tile
			ctx := &fakeCtx{outs: outs}
			if err := a.Compute(ctx, k); err != nil {
				t.Fatal(err)
			}
			outs[k] = ctx.out
		}
		// Full unblocked table.
		n := a.n
		d := make([][]int, n+1)
		for i := range d {
			d[i] = make([]int, n+1)
		}
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if a.x[i-1] == a.y[j-1] {
					d[i][j] = d[i-1][j-1] + 1
				} else if d[i-1][j] > d[i][j-1] {
					d[i][j] = d[i-1][j]
				} else {
					d[i][j] = d[i][j-1]
				}
			}
		}
		nb, b := a.nb, a.b
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				tile := outs[a.key(bi, bj)]
				for r := 0; r < b; r++ {
					for c := 0; c < b; c++ {
						want := d[bi*b+r+1][bj*b+c+1]
						if int(tile[r*b+c]) != want {
							t.Fatalf("n=%d tile(%d,%d)[%d,%d] = %v, want %d",
								size.n, bi, bj, r, c, tile[r*b+c], want)
						}
					}
				}
			}
		}
		if err := a.VerifySink(outs[a.Sink()]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWavefrontStructure(t *testing.T) {
	a := newLCS(t, 32, 8) // nb = 4
	// Corner tiles.
	if got := a.Predecessors(a.key(0, 0)); len(got) != 0 {
		t.Fatalf("source preds = %v", got)
	}
	if got := a.Predecessors(a.key(0, 2)); len(got) != 1 {
		t.Fatalf("top-row preds = %v", got)
	}
	if got := a.Predecessors(a.key(2, 2)); len(got) != 3 {
		t.Fatalf("interior preds = %v", got)
	}
	if got := a.Successors(a.key(3, 3)); len(got) != 0 {
		t.Fatalf("sink succs = %v", got)
	}
	// Single assignment: every tile its own block, version 0.
	ref := a.Output(a.key(2, 1))
	if int64(ref.Block) != int64(a.key(2, 1)) || ref.Version != 0 {
		t.Fatalf("Output = %+v", ref)
	}
}

func TestReferenceKnownCase(t *testing.T) {
	a := &LCS{n: 7, b: 7, nb: 1, x: []byte("ABCBDAB"), y: []byte("BDCABA_")}
	// LCS("ABCBDAB","BDCABA") = 4 (e.g. BCAB / BDAB); the trailing
	// symbol is outside the alphabet and never matches.
	if got := a.Reference(); got != 4 {
		t.Fatalf("Reference = %d, want 4", got)
	}
}

func TestVerifySinkRejectsWrongLength(t *testing.T) {
	a := newLCS(t, 16, 4)
	if err := a.VerifySink(make([]float64, 3)); err == nil {
		t.Fatal("accepted wrong-size sink tile")
	}
	if err := a.VerifySink(make([]float64, 16)); err == nil {
		t.Fatal("accepted wrong LCS value")
	}
}

type fakeCtx struct {
	outs map[graph.Key][]float64
	out  []float64
}

func (c *fakeCtx) ReadPred(p graph.Key) ([]float64, error) { return c.outs[p], nil }
func (c *fakeCtx) Write(d []float64)                       { c.out = d }
