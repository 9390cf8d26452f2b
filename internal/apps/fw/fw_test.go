package fw

import (
	"errors"
	"testing"

	"ftdag/internal/apps"
	"ftdag/internal/block"
	"ftdag/internal/graph"
)

func newFW(t testing.TB, n, b int) *FW {
	t.Helper()
	a, err := New(apps.Config{N: n, B: b, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return a.(*FW)
}

func TestInputProperties(t *testing.T) {
	a := newFW(t, 32, 8)
	for i := 0; i < a.n; i++ {
		for j := 0; j < a.n; j++ {
			w := a.dist[i*a.n+j]
			if i == j {
				if w != 0 {
					t.Fatalf("dist[%d][%d] = %v, want 0", i, j, w)
				}
				continue
			}
			if w < 1 || w > maxEdge || w != float64(int(w)) {
				t.Fatalf("dist[%d][%d] = %v not an integer in [1,%d]", i, j, w, maxEdge)
			}
		}
	}
}

func TestKeyLayout(t *testing.T) {
	a := newFW(t, 32, 8) // nb = 4
	nb := a.nb
	// Stage tasks round trip.
	for k := 0; k < nb; k++ {
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				kk, ii, jj := a.coords(a.task(k, i, j))
				if kk != k || ii != i || jj != j {
					t.Fatalf("round trip (%d,%d,%d) → (%d,%d,%d)", k, i, j, kk, ii, jj)
				}
				if !a.isStageTask(a.task(k, i, j)) {
					t.Fatal("stage task misclassified")
				}
			}
		}
	}
	if a.isStageTask(a.reduction(0)) || a.isStageTask(a.Sink()) {
		t.Fatal("reduction/sink misclassified as stage task")
	}
	if a.Sink() != graph.Key(nb*nb*nb+nb) {
		t.Fatalf("sink key = %d", a.Sink())
	}
}

// TestBlockedMatchesUnblocked runs the graph by hand in topological order
// and compares every tile of the final stage to the plain O(N³) recurrence;
// integer weights make the comparison exact.
func TestBlockedMatchesUnblocked(t *testing.T) {
	for _, size := range []struct{ n, b int }{{16, 4}, {24, 4}, {32, 8}} {
		a := newFW(t, size.n, size.b)
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
		// Unblocked reference distances.
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
		nb, b := a.nb, a.b
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				tile := outs[a.task(nb-1, i, j)]
				for r := 0; r < b; r++ {
					for q := 0; q < b; q++ {
						want := d[(i*b+r)*n+j*b+q]
						if tile[r*b+q] != want {
							t.Fatalf("n=%d tile(%d,%d)[%d,%d] = %v, want %v",
								size.n, i, j, r, q, tile[r*b+q], want)
						}
					}
				}
			}
		}
		// And the digest path.
		if err := a.VerifySink(outs[a.Sink()]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAntiDependenceCoverage asserts the K=2 safety invariant structurally:
// for every task X and every task R that reads X's output version v, R is an
// ancestor of (or equal to) the writer of version v+2 of the same block.
// This is the property that makes the two-version store safe without
// runtime checks.
func TestAntiDependenceCoverage(t *testing.T) {
	a := newFW(t, 24, 4) // nb = 6 exercises all anti-dependence branches
	// writerOf[(block,version)] = task key
	type bv struct {
		blk int64
		ver int
	}
	writer := map[bv]graph.Key{}
	keys := graph.Enumerate(a)
	for _, k := range keys {
		ref := a.Output(k)
		writer[bv{int64(ref.Block), ref.Version}] = k
	}
	// Ancestor test via memoised reachability on the reversed graph.
	// reaches(x, y): does y reach x following successor edges?
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
		memo[key] = false // guard (DAG: no cycles, but bound memo growth)
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
	checked := 0
	for _, x := range keys {
		if !a.isStageTask(x) {
			continue
		}
		ref := a.Output(x)
		w2, ok := writer[bv{int64(ref.Block), ref.Version + 2}]
		if !ok {
			continue // no version v+2: never evicted
		}
		// Readers of X's output are exactly the successors of X that
		// call ReadPred(X): every natural successor. Ordering-only
		// successors don't read, and requiring them to precede w2 is
		// vacuous anyway since they'd only strengthen the check; so we
		// check all successors that the compute actually reads from:
		// conservatively, all tasks whose Predecessors contain X and
		// whose compute reads X (own-next, row/col/interior readers,
		// reductions — all of which are successors).
		for _, r := range a.Successors(x) {
			if !a.isStageTask(r) {
				continue // reductions read final versions only
			}
			if !readsFrom(a, r, x) {
				continue
			}
			if !reaches(r, w2) {
				t.Fatalf("reader %d of task %d's output is not ordered before writer %d of version+2",
					r, x, w2)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reader/writer pairs checked")
	}
}

// readsFrom reports whether task r's compute issues ReadPred(x).
func readsFrom(a *FW, r, x graph.Key) bool {
	k, i, j := a.coords(r)
	var reads []graph.Key
	if k > 0 {
		reads = append(reads, a.task(k-1, i, j))
	}
	switch {
	case i == k && j == k:
	case j == k, i == k:
		reads = append(reads, a.task(k, k, k))
	default:
		reads = append(reads, a.task(k, i, k), a.task(k, k, j))
	}
	for _, p := range reads {
		if p == x {
			return true
		}
	}
	return false
}

func TestReductionStructure(t *testing.T) {
	a := newFW(t, 16, 4) // nb = 4
	nb := a.nb
	for i := 0; i < nb; i++ {
		ps := a.Predecessors(a.reduction(i))
		if len(ps) != nb {
			t.Fatalf("reduction %d has %d preds, want %d", i, len(ps), nb)
		}
		ss := a.Successors(a.reduction(i))
		if len(ss) != 1 || ss[0] != a.Sink() {
			t.Fatalf("reduction %d succs = %v", i, ss)
		}
	}
	if got := len(a.Predecessors(a.Sink())); got != nb {
		t.Fatalf("sink preds = %d, want %d", got, nb)
	}
	if len(a.Successors(a.Sink())) != 0 {
		t.Fatal("sink has successors")
	}
}

// fakeCtx implements graph.Context over a plain map; a read of a key in errs
// fails with its error.
type fakeCtx struct {
	outs map[graph.Key][]float64
	out  []float64
	errs map[graph.Key]error
}

func (c *fakeCtx) ReadPred(p graph.Key) ([]float64, error) { return c.outs[p], c.errs[p] }
func (c *fakeCtx) Write(d []float64)                       { c.out = d }

// TestComputeFreesItsTileOnReadError: a compute whose read fails hands the
// tile it took back to the free list, on each of its four reads — its own
// previous version, the pivot, and an interior tile's column and row — so
// the next Alloc of the size is that very buffer.
func TestComputeFreesItsTileOnReadError(t *testing.T) {
	a := newFW(t, 60, 20) // nb = 3, a tile size no other test here frees
	fail := errors.New("read failed")
	for _, c := range []struct {
		name string
		task graph.Key
		ok   []graph.Key // reads that succeed; every other fails
	}{
		{"previous version", a.task(1, 0, 0), nil},
		{"pivot", a.task(0, 1, 0), nil},
		{"column", a.task(0, 1, 1), nil},
		{"row", a.task(0, 1, 1), []graph.Key{a.task(0, 1, 0)}},
	} {
		ctx := &fakeCtx{outs: map[graph.Key][]float64{}, errs: map[graph.Key]error{}}
		for k := graph.Key(0); k <= a.Sink(); k++ {
			ctx.errs[k] = fail
		}
		for _, k := range c.ok {
			ctx.outs[k], ctx.errs[k] = make([]float64, a.b*a.b), nil
		}
		tile := make([]float64, a.b*a.b)
		block.Free(tile) // the compute's Alloc takes it
		if err := a.Compute(ctx, c.task); !errors.Is(err, fail) || ctx.out != nil {
			t.Fatalf("%s: a compute whose read failed: err %v, wrote %v", c.name, err, ctx.out != nil)
		}
		if got := block.Alloc(a.b * a.b); &got[0] != &tile[0] {
			t.Fatalf("%s: the next Alloc is not the tile the failed compute took", c.name)
		}
	}
}
