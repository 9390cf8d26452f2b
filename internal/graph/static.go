package graph

import (
	"fmt"
	"sort"

	"ftdag/internal/block"
	"ftdag/internal/cmap"
)

// ComputeFunc is the user computation of a Static graph node. vals holds the
// outputs of the predecessors, one slice per predecessor in Predecessors
// order; the function returns the node's own output.
type ComputeFunc func(key Key, vals [][]float64) []float64

// Static is an explicitly materialised Spec, used by tests, examples, and
// the synthetic generators. Although the scheduler treats every Spec as
// dynamic (expanding from the sink), Static keeps the whole structure in
// memory so it can also be inspected and mutated when constructing corner
// cases.
type Static struct {
	sink    Key
	nodes   cmap.Table[staticNode]
	compute ComputeFunc
}

// staticNode is everything Static knows about one task, so that the
// executor's questions about it — Predecessors, Output, and Compute's own
// look at the predecessor list — are answered from one table entry.
type staticNode struct {
	preds, succs []Key
	out          block.Ref
	declared     bool // AddTask has given the task its output
}

// node returns the entry of key, creating it if need be. The graph is built
// by one goroutine and read by many once it is complete.
func (g *Static) node(key Key) *staticNode {
	n, _ := g.nodes.LoadOrStore(key, func() *staticNode { return new(staticNode) })
	return n
}

// NewStatic returns an empty static graph whose nodes compute fn. If fn is
// nil, each node outputs [sum(preds' first elements) + 1], a cheap
// deterministic kernel convenient for verification.
func NewStatic(fn ComputeFunc) *Static {
	if fn == nil {
		fn = func(key Key, vals [][]float64) []float64 {
			sum := float64(0)
			for _, v := range vals {
				if len(v) > 0 {
					sum += v[0]
				}
			}
			return []float64{sum + 1}
		}
	}
	return &Static{compute: fn}
}

// AddTask declares a task with the given output block version. Declaring a
// task twice is an error caught by Validate, not here.
func (g *Static) AddTask(key Key, out block.Ref) *Static {
	n := g.node(key)
	n.out, n.declared = out, true
	return g
}

// AddTaskAuto declares a task whose output is its own block (block ID = key,
// version 0) — the single-assignment convention.
func (g *Static) AddTaskAuto(key Key) *Static {
	return g.AddTask(key, block.Ref{Block: block.ID(key), Version: 0})
}

// AddEdge adds a dependence from producer from to consumer to.
func (g *Static) AddEdge(from, to Key) *Static {
	t, f := g.node(to), g.node(from)
	t.preds = append(t.preds, from)
	f.succs = append(f.succs, to)
	return g
}

// SetSink designates the sink task.
func (g *Static) SetSink(k Key) *Static { g.sink = k; return g }

// Spec interface.

func (g *Static) Sink() Key { return g.sink }

func (g *Static) Predecessors(k Key) []Key {
	if n, ok := g.nodes.Load(k); ok {
		return n.preds
	}
	return nil
}

func (g *Static) Successors(k Key) []Key {
	if n, ok := g.nodes.Load(k); ok {
		return n.succs
	}
	return nil
}

func (g *Static) Output(k Key) block.Ref {
	if n, ok := g.nodes.Load(k); ok && n.declared {
		return n.out
	}
	panic(fmt.Sprintf("graph: no output declared for task %d", k))
}

func (g *Static) Compute(ctx Context, key Key) error {
	preds := g.Predecessors(key)
	vals := make([][]float64, len(preds))
	for i, p := range preds {
		v, err := ctx.ReadPred(p)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	ctx.Write(g.compute(key, vals))
	return nil
}

// --- Synthetic generators -------------------------------------------------

// Chain returns a linear chain 0 → 1 → … → n-1 with sink n-1.
func Chain(n int, fn ComputeFunc) *Static {
	g := NewStatic(fn)
	for i := 0; i < n; i++ {
		g.AddTaskAuto(Key(i))
		if i > 0 {
			g.AddEdge(Key(i-1), Key(i))
		}
	}
	return g.SetSink(Key(n - 1))
}

// Diamond returns the classic 4-node diamond: 0 → {1, 2} → 3.
func Diamond(fn ComputeFunc) *Static {
	g := NewStatic(fn)
	for i := 0; i < 4; i++ {
		g.AddTaskAuto(Key(i))
	}
	g.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3)
	return g.SetSink(3)
}

// PaperExample returns the 5-task graph of Figure 1 (A=0 … E=4): A → {B, C},
// B → {C, D}, C → E, D → E, sink E. When reuse is true, task C writes
// version 1 of A's block (C reuses A's storage), reproducing the overwrite
// scenario discussed in §II.
func PaperExample(reuse bool, fn ComputeFunc) *Static {
	g := NewStatic(fn)
	const A, B, C, D, E = 0, 1, 2, 3, 4
	for i := 0; i < 5; i++ {
		g.AddTaskAuto(Key(i))
	}
	if reuse {
		g.AddTask(C, block.Ref{Block: block.ID(A), Version: 1})
	}
	g.AddEdge(A, B).AddEdge(A, C)
	g.AddEdge(B, C).AddEdge(B, D)
	g.AddEdge(C, E).AddEdge(D, E)
	return g.SetSink(E)
}

// Layered returns a layered random DAG with the given number of layers and
// width per layer. Every node in layer i draws between 1 and maxIn
// predecessors uniformly from layer i-1 (deterministically from seed), and a
// final sink depends on the whole last layer. Layer 0 nodes are sources.
func Layered(layers, width, maxIn int, seed uint64, fn ComputeFunc) *Static {
	if layers < 1 || width < 1 {
		panic("graph: Layered needs layers >= 1 and width >= 1")
	}
	if maxIn < 1 {
		maxIn = 1
	}
	if maxIn > width {
		maxIn = width
	}
	rng := seed | 1
	next := func(n int) int {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return int((rng * 0x2545F4914F6CDD1D) >> 33 % uint64(n))
	}
	g := NewStatic(fn)
	id := func(layer, i int) Key { return Key(layer*width + i) }
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			g.AddTaskAuto(id(l, i))
			if l == 0 {
				continue
			}
			k := 1 + next(maxIn)
			used := map[int]bool{}
			for len(used) < k {
				used[next(width)] = true
			}
			// Sorted for a stable predecessor order.
			ps := make([]int, 0, k)
			for p := range used {
				ps = append(ps, p)
			}
			sort.Ints(ps)
			for _, p := range ps {
				g.AddEdge(id(l-1, p), id(l, i))
			}
		}
	}
	// Every non-final-layer node must reach the sink: give stranded nodes
	// (never chosen as a predecessor) one successor in the next layer.
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			if len(g.Successors(id(l, i))) == 0 {
				g.AddEdge(id(l, i), id(l+1, next(width)))
			}
		}
	}
	sink := Key(layers * width)
	g.AddTaskAuto(sink)
	for i := 0; i < width; i++ {
		g.AddEdge(id(layers-1, i), sink)
	}
	return g.SetSink(sink)
}

// VersionChain returns a graph where a single data block is rewritten n
// times: task i produces version i of block 0 and depends on task i-1; a
// side reader task n+i consumes version i. With a retention-1 store this is
// the worst-case cascading-re-execution topology of §VI-C (every recovery of
// version i requires recomputing versions 0..i-1 first). The sink depends on
// all readers.
func VersionChain(n int, fn ComputeFunc) *Static {
	g := NewStatic(fn)
	for i := 0; i < n; i++ {
		g.AddTask(Key(i), block.Ref{Block: 0, Version: i})
		if i > 0 {
			g.AddEdge(Key(i-1), Key(i))
		}
		reader := Key(n + i)
		g.AddTaskAuto(reader)
		g.AddEdge(Key(i), reader)
		if i+1 < n {
			// All uses of version i must precede the definition of
			// version i+1 (paper §II), so the writer of i+1 depends
			// on the reader of i.
			g.AddEdge(reader, Key(i+1))
		}
	}
	sink := Key(2 * n)
	g.AddTaskAuto(sink)
	for i := 0; i < n; i++ {
		g.AddEdge(Key(n+i), sink)
	}
	return g.SetSink(sink)
}

// Tree returns a complete binary in-tree of the given depth: leaves are
// sources, the root (key 0) is the sink; node k has children 2k+1, 2k+2 as
// predecessors.
func Tree(depth int, fn ComputeFunc) *Static {
	g := NewStatic(fn)
	total := (1 << uint(depth+1)) - 1
	for k := 0; k < total; k++ {
		g.AddTaskAuto(Key(k))
	}
	for k := 0; k < total; k++ {
		l, r := 2*k+1, 2*k+2
		if l < total {
			g.AddEdge(Key(l), Key(k))
		}
		if r < total {
			g.AddEdge(Key(r), Key(k))
		}
	}
	return g.SetSink(0)
}
