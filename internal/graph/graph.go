// Package graph defines the dynamic task graph model shared by the
// schedulers, applications, and experiment harness.
//
// Following §III of the paper, the user supplies the task graph through four
// elements: a unique int64 key per task, the sink task (which transitively
// depends on every other task), functions returning the ordered predecessor
// and successor lists of a key, and a compute function. Tasks are stateless:
// a task's compute reads the data blocks produced by its predecessors and
// defines one data-block version of its own. The graph is never materialised
// up front — the scheduler expands it on demand from the sink.
package graph

import (
	"errors"
	"fmt"

	"ftdag/internal/block"
)

// Key identifies a task, as in the paper (type int64_t).
type Key = int64

// Context is the interface through which a task's Compute accesses data
// blocks. It is implemented by the executors, which attribute any block
// access failure to the producing task (turning it into a *TaskError) so
// that recovery can target the right task. Compute implementations must
// propagate errors unchanged. A compute that uses only part of a predecessor's
// output reads it with ReadPredAt, which falls back on ReadPred for a Context
// that is not a RunReader.
type Context interface {
	// ReadPred returns the output block version defined by the given
	// predecessor task. The slice is private to this compute: nothing else
	// writes it, and it is valid until Compute returns — not after, the
	// executor may recycle it then. Compute must not modify it (a
	// replicated task is re-verified from the inputs its primary read), but
	// may pass it, or a piece of it, to Write.
	ReadPred(pred Key) ([]float64, error)
	// Write stores data as this task's output block version and passes
	// ownership of the slice to the executor: the store keeps the slice
	// itself as the version (a small one, or a piece of a ReadPred slice,
	// it copies) until a later version evicts or replaces it or the run
	// ends, and then recycles it. Compute must not keep it, change it or
	// write it anywhere else. Alloc is the matching way to get an output
	// buffer; its contents are unspecified, so Compute writes every word
	// before passing it here.
	Write(data []float64)
}

// RunReader is what a Context implements to serve ReadPredAt itself: the
// executors' contexts do, with one store access per call that copies — and,
// on a verifying store, checks — only the words named. A Context without it
// still serves ReadPredAt, through ReadPred.
type RunReader interface {
	// ReadPredAt is ReadPred of just the words the runs name, copied into
	// dst run after run, with ReadPred's errors and fault attribution.
	ReadPredAt(pred Key, dst []float64, runs ...block.Run) error
}

// ReadPredAt fills dst with the words of pred's output that the runs name,
// run after run (block.Run; dst holds block.Words(runs...) of them): a tile's
// boundary row, column or corner without a copy of the whole tile. It is
// ctx's own ReadPredAt when ctx is a RunReader, and otherwise ReadPred and a
// gather from its copy. dst is the compute's; nothing else writes it. The
// runs slice is best built once, outside Compute: a literal passed here is
// allocated on every call.
func ReadPredAt(ctx Context, pred Key, dst []float64, runs ...block.Run) error {
	if r, ok := ctx.(RunReader); ok {
		return r.ReadPredAt(pred, dst, runs...)
	}
	data, err := ctx.ReadPred(pred)
	if err != nil {
		return err
	}
	block.Gather(dst, data, runs...)
	return nil
}

// Allocator is what a Context implements to hand a compute its buffers from
// the free list of the worker it runs on (block.Cache): the executors'
// contexts do. A Context without it still serves Alloc and Free, through
// block.Alloc and block.Free.
type Allocator interface {
	// Alloc is block.Alloc from the worker's own free list.
	Alloc(n int) []float64
	// Free is block.Free into the worker's own free list.
	Free(buf []float64)
}

// Alloc returns a buffer of n float64s whose contents are unspecified — an
// output for Write, or scratch — through ctx's Allocator when it is one, and
// otherwise block.Alloc.
func Alloc(ctx Context, n int) []float64 {
	if a, ok := ctx.(Allocator); ok {
		return a.Alloc(n)
	}
	return block.Alloc(n)
}

// Free gives back a buffer the compute owns and has not passed to Write —
// scratch, or an output it will not write after all — through ctx's
// Allocator when it is one, and otherwise block.Free.
func Free(ctx Context, buf []float64) {
	if a, ok := ctx.(Allocator); ok {
		a.Free(buf)
		return
	}
	block.Free(buf)
}

// Spec describes a dynamic task graph (paper §III: task key, sink task,
// predecessor/successor functions, compute).
type Spec interface {
	// Sink returns the unique task that transitively depends on all
	// others. Execution is driven from the sink.
	Sink() Key
	// Predecessors returns the ordered list of immediate predecessors of
	// key. The order must be stable: the fault-tolerant scheduler indexes
	// its per-task notification bit vector by position in this list.
	Predecessors(key Key) []Key
	// Successors returns the ordered list of immediate successors of key.
	// It must be the exact inverse of Predecessors.
	Successors(key Key) []Key
	// Output returns the block version that the task defines. Exactly one
	// block version per task; two tasks writing the same (block, version)
	// is a spec error.
	Output(key Key) block.Ref
	// Compute performs the task's work: read predecessors via ctx, write
	// exactly one output via ctx.Write. It must be deterministic
	// (stateless in the paper's sense): same inputs, same output.
	Compute(ctx Context, key Key) error
}

// Props summarises the static properties of a task graph: the quantities of
// Table I plus the degree bound used by the completion-time theorem.
type Props struct {
	Tasks        int // T: total number of tasks
	Edges        int // E: total number of dependences
	CriticalPath int // S: number of tasks on the longest root→sink path
	MaxInDegree  int
	MaxOutDegree int
	Sources      int // tasks with no predecessors
}

func (p Props) String() string {
	return fmt.Sprintf("T=%d E=%d S=%d maxIn=%d maxOut=%d sources=%d",
		p.Tasks, p.Edges, p.CriticalPath, p.MaxInDegree, p.MaxOutDegree, p.Sources)
}

// Enumerate walks the graph backwards from the sink and returns every
// reachable task key in a deterministic (discovery) order.
func Enumerate(s Spec) []Key {
	seen := map[Key]bool{s.Sink(): true}
	order := []Key{s.Sink()}
	for i := 0; i < len(order); i++ {
		for _, p := range s.Predecessors(order[i]) {
			if !seen[p] {
				seen[p] = true
				order = append(order, p)
			}
		}
	}
	return order
}

// Analyze computes the static properties of the graph reachable from the
// sink.
func Analyze(s Spec) Props {
	keys := Enumerate(s)
	var p Props
	p.Tasks = len(keys)
	depth := make(map[Key]int, len(keys))
	order, err := TopoOrder(s)
	if err != nil {
		panic("graph: Analyze on cyclic graph: " + err.Error())
	}
	for _, k := range order {
		preds := s.Predecessors(k)
		succs := s.Successors(k)
		p.Edges += len(preds)
		if len(preds) > p.MaxInDegree {
			p.MaxInDegree = len(preds)
		}
		if len(succs) > p.MaxOutDegree {
			p.MaxOutDegree = len(succs)
		}
		if len(preds) == 0 {
			p.Sources++
		}
		d := 1
		for _, pr := range preds {
			if depth[pr]+1 > d {
				d = depth[pr] + 1
			}
		}
		depth[k] = d
		if d > p.CriticalPath {
			p.CriticalPath = d
		}
	}
	return p
}

// ErrCycle is returned by TopoOrder when the spec contains a dependence
// cycle.
var ErrCycle = errors.New("graph: dependence cycle detected")

// TopoOrder returns the tasks reachable from the sink in an order where
// every task appears after all of its predecessors (Kahn's algorithm).
func TopoOrder(s Spec) ([]Key, error) {
	keys := Enumerate(s)
	indeg := make(map[Key]int, len(keys))
	inSet := make(map[Key]bool, len(keys))
	for _, k := range keys {
		inSet[k] = true
	}
	for _, k := range keys {
		n := 0
		for _, p := range s.Predecessors(k) {
			if inSet[p] {
				n++
			}
		}
		indeg[k] = n
	}
	var ready []Key
	for _, k := range keys {
		if indeg[k] == 0 {
			ready = append(ready, k)
		}
	}
	out := make([]Key, 0, len(keys))
	for len(ready) > 0 {
		k := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out = append(out, k)
		for _, sc := range s.Successors(k) {
			if !inSet[sc] {
				continue
			}
			indeg[sc]--
			if indeg[sc] == 0 {
				ready = append(ready, sc)
			}
		}
	}
	if len(out) != len(keys) {
		return nil, ErrCycle
	}
	return out, nil
}

// Validate checks structural consistency of a spec over the tasks reachable
// from the sink: predecessor/successor symmetry, acyclicity, stable
// predecessor order, and unique output block versions. Returns the first
// problem found.
func Validate(s Spec) error {
	keys := Enumerate(s)
	inSet := make(map[Key]bool, len(keys))
	for _, k := range keys {
		inSet[k] = true
	}
	outputs := make(map[block.Ref]Key, len(keys))
	for _, k := range keys {
		preds := s.Predecessors(k)
		seen := make(map[Key]bool, len(preds))
		for _, p := range preds {
			if seen[p] {
				return fmt.Errorf("graph: task %d lists predecessor %d twice", k, p)
			}
			seen[p] = true
			if !contains(s.Successors(p), k) {
				return fmt.Errorf("graph: task %d has predecessor %d, but %d does not list %d as successor", k, p, p, k)
			}
		}
		for _, sc := range s.Successors(k) {
			if !inSet[sc] {
				return fmt.Errorf("graph: task %d has successor %d unreachable from the sink", k, sc)
			}
			if !contains(s.Predecessors(sc), k) {
				return fmt.Errorf("graph: task %d has successor %d, but %d does not list %d as predecessor", k, sc, sc, k)
			}
		}
		ref := s.Output(k)
		if other, dup := outputs[ref]; dup {
			return fmt.Errorf("graph: tasks %d and %d both define %v", other, k, ref)
		}
		outputs[ref] = k
	}
	if _, err := TopoOrder(s); err != nil {
		return err
	}
	if len(s.Successors(s.Sink())) != 0 {
		return fmt.Errorf("graph: sink %d has successors", s.Sink())
	}
	return nil
}

func contains(ks []Key, k Key) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}
