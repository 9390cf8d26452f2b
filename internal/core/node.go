package core

import (
	"sync"

	"ftdag/internal/block"
	"ftdag/internal/graph"
)

// node is the part of a task descriptor that the fault-tolerant and the
// baseline executor share; D is the descriptor type that embeds it. It is the
// one place the facts of a task are resolved: the spec is asked once, at
// creation, for the predecessor list and the output block version, and the
// block slot is looked up once. Notifying a successor and writing the task's
// own output then go from pointer to pointer; reading a predecessor's output
// asks the task table for its descriptor, three dependent loads.
type node[D any] struct {
	key   graph.Key
	preds []graph.Key // the spec's ordered predecessor list

	// out is the block version the task defines, slot the handle of its
	// block.
	out  block.Ref
	slot *block.Slot

	// notify holds the descriptors of the successors registered for
	// notification. It starts out in notify0: a task with at most two
	// successors registered never allocates for it.
	mu      sync.Mutex // guards notify
	notify  []*D
	notify0 [2]*D
}

// resolve fills the node for key.
func (n *node[D]) resolve(spec graph.Spec, store *block.Store, key graph.Key) {
	n.key = key
	n.preds = spec.Predecessors(key)
	n.out = spec.Output(key)
	n.slot = store.Slot(n.out.Block)
	n.notify = n.notify0[:0]
}

// notifyBatchSize is how many successors one spawned drain job notifies.
// Chunking amortizes the per-spawn cost (group and pool tallies,
// deque push, wake check) over the batch while keeping the fan-out
// stealable at chunk granularity; 8 keeps a task with a handful of
// successors on one job and splits the big broadcast nodes across workers.
const notifyBatchSize = 8

// batchBits is the width of a batch's length in a job argument.
const batchBits = 4 // notifyBatchSize < 1<<batchBits

// batchArg names the batch of at most notifyBatchSize notify entries that
// starts at lo, of an array observed at length total, as one job argument.
func batchArg(lo, total int) int { return lo<<batchBits | min(notifyBatchSize, total-lo) }

// batch returns the entries batchArg named. They are below a length the
// drain observed under the lock, so they are never rewritten, and an append
// that grows the array leaves the old backing array intact: the batch stays
// valid after the lock is dropped.
func (n *node[D]) batch(arg int) []*D {
	lo, cnt := arg>>batchBits, arg&(1<<batchBits-1)
	n.mu.Lock()
	b := n.notify[lo : lo+cnt]
	n.mu.Unlock()
	return b
}
