package core

import (
	"sync"
	"sync/atomic"

	"ftdag/internal/block"
	"ftdag/internal/graph"
)

// node is the part of a task descriptor that the fault-tolerant and the
// baseline executor share; D is the descriptor type that embeds it. It is the
// one place the facts of a task are resolved: the spec is asked once, at
// creation, for the predecessor list and the output block version, the block
// slot is looked up once, and the traversal leaves a pointer to every
// predecessor's descriptor behind. Notifying a successor, reading a
// predecessor's output and writing the task's own then go from pointer to
// pointer instead of through the task table, the spec and the slot table.
type node[D any] struct {
	key   graph.Key
	preds []graph.Key // the spec's ordered predecessor list

	// pred[i] is the descriptor tryInitCompute found for preds[i], or nil
	// while that traversal has not run. Nil is legal whenever the task runs,
	// its compute included: a recovery of preds[i] that finds this task
	// waiting re-registers it (Guarantee 4) and can make it eligible before
	// its own traversal of preds[i] has run. Readers then fall back to the
	// task table. Under the fault-tolerant executor the incarnation named may
	// be superseded; what is read through it (out, slot) is the same for
	// every incarnation.
	pred []atomic.Pointer[D]

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
	n.pred = make([]atomic.Pointer[D], len(n.preds))
	n.out = spec.Output(key)
	n.slot = store.Slot(n.out.Block)
	n.notify = n.notify0[:0]
}

// producer returns the cached descriptor of the task that produces what
// ReadPred(pred) reads, or nil when there is none: the traversal of pred has
// not run, or pred is not an immediate predecessor (the blocked FW and SW
// computes read blocks of tasks they depend on only transitively).
func (n *node[D]) producer(pred graph.Key) *D {
	if i := indexOf(n.preds, pred); i >= 0 {
		return n.pred[i].Load()
	}
	return nil
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

// indexOf returns the position of k in keys, or -1.
func indexOf(keys []graph.Key, k graph.Key) int {
	for i, x := range keys {
		if x == k {
			return i
		}
	}
	return -1
}
