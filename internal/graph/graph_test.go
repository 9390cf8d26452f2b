package graph

import (
	"math"
	"slices"
	"testing"

	"ftdag/internal/block"
	"ftdag/internal/cmap"
)

func TestChainProps(t *testing.T) {
	g := Chain(10, nil)
	if err := Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p := Analyze(g)
	if p.Tasks != 10 || p.Edges != 9 || p.CriticalPath != 10 || p.Sources != 1 {
		t.Fatalf("Props = %+v", p)
	}
	if p.MaxInDegree != 1 || p.MaxOutDegree != 1 {
		t.Fatalf("degrees = %d/%d", p.MaxInDegree, p.MaxOutDegree)
	}
}

func TestDiamondProps(t *testing.T) {
	g := Diamond(nil)
	if err := Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p := Analyze(g)
	if p.Tasks != 4 || p.Edges != 4 || p.CriticalPath != 3 {
		t.Fatalf("Props = %+v", p)
	}
}

func TestPaperExample(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		g := PaperExample(reuse, nil)
		if err := Validate(g); err != nil {
			t.Fatalf("reuse=%v Validate: %v", reuse, err)
		}
		p := Analyze(g)
		if p.Tasks != 5 || p.Edges != 6 {
			t.Fatalf("reuse=%v Props = %+v", reuse, p)
		}
		if g.Sink() != 4 {
			t.Fatalf("sink = %d", g.Sink())
		}
	}
	// The reuse variant maps C's output onto A's block as version 1.
	g := PaperExample(true, nil)
	if ref := g.Output(2); ref.Block != 0 || ref.Version != 1 {
		t.Fatalf("C output = %v", ref)
	}
}

func TestLayeredValidates(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := Layered(4, 6, 3, seed, nil)
		if err := Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := Analyze(g)
		if p.Tasks != 4*6+1 {
			t.Fatalf("seed %d: Tasks = %d", seed, p.Tasks)
		}
		if p.CriticalPath != 5 {
			t.Fatalf("seed %d: CriticalPath = %d, want 5", seed, p.CriticalPath)
		}
	}
}

func TestVersionChainValidates(t *testing.T) {
	g := VersionChain(6, nil)
	if err := Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p := Analyze(g)
	if p.Tasks != 13 {
		t.Fatalf("Tasks = %d, want 13", p.Tasks)
	}
	// Writer of version i uses block 0.
	for i := 0; i < 6; i++ {
		ref := g.Output(Key(i))
		if ref.Block != 0 || ref.Version != i {
			t.Fatalf("writer %d output = %v", i, ref)
		}
	}
}

func TestTreeValidates(t *testing.T) {
	g := Tree(5, nil)
	if err := Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p := Analyze(g)
	if p.Tasks != 63 || p.CriticalPath != 6 || p.MaxInDegree != 2 {
		t.Fatalf("Props = %+v", p)
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	g := Layered(5, 8, 4, 99, nil)
	order, err := TopoOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[Key]int{}
	for i, k := range order {
		pos[k] = i
	}
	for _, k := range order {
		for _, p := range g.Predecessors(k) {
			if pos[p] >= pos[k] {
				t.Fatalf("pred %d at %d not before %d at %d", p, pos[p], k, pos[k])
			}
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := NewStatic(nil)
	g.AddTaskAuto(0).AddTaskAuto(1).AddTaskAuto(2)
	g.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 0)
	g.SetSink(2)
	if _, err := TopoOrder(g); err != ErrCycle {
		t.Fatalf("TopoOrder = %v, want ErrCycle", err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := NewStatic(nil)
	g.AddTaskAuto(0).AddTaskAuto(1)
	// Edge recorded only on the predecessor side.
	g.node(1).preds = append(g.node(1).preds, 0)
	g.SetSink(1)
	if err := Validate(g); err == nil {
		t.Fatal("Validate accepted asymmetric edge")
	}
}

func TestValidateCatchesDuplicateOutput(t *testing.T) {
	g := NewStatic(nil)
	g.AddTask(0, block.Ref{Block: 9, Version: 0})
	g.AddTask(1, block.Ref{Block: 9, Version: 0})
	g.AddEdge(0, 1)
	g.SetSink(1)
	if err := Validate(g); err == nil {
		t.Fatal("Validate accepted duplicate output refs")
	}
}

func TestValidateCatchesDuplicatePred(t *testing.T) {
	g := NewStatic(nil)
	g.AddTaskAuto(0).AddTaskAuto(1)
	g.AddEdge(0, 1).AddEdge(0, 1)
	g.SetSink(1)
	if err := Validate(g); err == nil {
		t.Fatal("Validate accepted duplicate predecessor")
	}
}

func TestEnumerateReachesAll(t *testing.T) {
	g := Layered(3, 4, 2, 7, nil)
	keys := Enumerate(g)
	if len(keys) != 13 {
		t.Fatalf("Enumerate found %d tasks, want 13", len(keys))
	}
	if keys[0] != g.Sink() {
		t.Fatalf("Enumerate[0] = %d, want sink %d", keys[0], g.Sink())
	}
}

func TestStaticDefaultCompute(t *testing.T) {
	// Default kernel: out = sum of preds' first elements + 1. On a chain
	// the sink value equals the chain length.
	g := Chain(5, nil)
	vals := map[Key][]float64{}
	order, _ := TopoOrder(g)
	for _, k := range order {
		ctx := &mapCtx{g: g, vals: vals}
		if err := g.Compute(ctx, k); err != nil {
			t.Fatal(err)
		}
		vals[k] = ctx.out
	}
	if vals[4][0] != 5 {
		t.Fatalf("chain sink = %v, want 5", vals[4][0])
	}
}

// mapCtx is a trivial Context for exercising Static.Compute directly.
type mapCtx struct {
	g    *Static
	vals map[Key][]float64
	out  []float64
}

func (c *mapCtx) ReadPred(p Key) ([]float64, error) { return c.vals[p], nil }
func (c *mapCtx) Write(d []float64)                 { c.out = d }

// TestStaticArbitraryKeys: Static keeps its nodes in a table that
// direct-indexes small non-negative keys and hashes the rest. A graph whose
// keys are sparse, negative and beyond the direct-indexed range is the same
// graph: its keys are all there, the structure validates, an undeclared key
// has no predecessors, no successors and no output.
func TestStaticArbitraryKeys(t *testing.T) {
	keys := []Key{math.MaxInt64, 5, -1, cmap.TableCap, 0, math.MinInt64, 1 << 20, cmap.TableCap - 1, -77, 4096}
	g := NewStatic(nil)
	for _, k := range keys {
		g.AddTaskAuto(k)
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ { // a chain in ascending key order
		g.AddEdge(sorted[i-1], sorted[i])
	}
	g.AddEdge(sorted[0], sorted[len(sorted)-1])
	g.SetSink(sorted[len(sorted)-1])
	if got := sortedKeys(g); !slices.Equal(got, sorted) {
		t.Fatalf("keys = %v, want %v", got, sorted)
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	if p := Analyze(g); p.Tasks != len(keys) || p.Edges != len(keys) || p.CriticalPath != len(keys) {
		t.Fatalf("props = %v, want T=E=S=%d", p, len(keys))
	}
	for _, k := range sorted {
		if ref := g.Output(k); ref.Block != block.ID(k) {
			t.Fatalf("Output(%d) = %v", k, ref)
		}
	}
	for _, k := range []Key{3, -2, cmap.TableCap + 1} {
		if g.Predecessors(k) != nil || g.Successors(k) != nil {
			t.Fatalf("undeclared key %d has edges", k)
		}
		outputPanics(t, g, k)
	}
	// An edge alone declares nothing.
	g.AddEdge(-5, 9)
	outputPanics(t, g, -5)
	outputPanics(t, g, 9)
	if got := sortedKeys(g); !slices.Equal(got, sorted) {
		t.Fatalf("keys after an edge between undeclared tasks = %v, want %v", got, sorted)
	}
}

// sortedKeys returns the tasks of g in ascending key order.
func sortedKeys(g Spec) []Key {
	ks := Enumerate(g)
	slices.Sort(ks)
	return ks
}

// outputPanics fails t unless Output(k) of g, an undeclared key, panics.
func outputPanics(t *testing.T, g Spec, k Key) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("Output(%d) of an undeclared key did not panic", k)
		}
	}()
	g.Output(k)
}
