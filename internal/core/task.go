// Package core implements the task graph executors: the fault-tolerant
// work-stealing scheduler that is the paper's contribution (Figures 2 and 3),
// the non-fault-tolerant NABBIT baseline it extends — the same program with
// the shaded lines of Figure 2 left out — and a sequential reference executor
// used for T1 measurement and ground-truth verification.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"ftdag/internal/bitvec"
	"ftdag/internal/block"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

// Status is the execution status of a task (paper §III). Once inserted into
// the task table a task is Visited; after its compute function has run it is
// Computed; once every successor enqueued in its notify array has been
// notified it is Completed.
type Status int32

const (
	Visited Status = iota
	Computed
	Completed
)

func (s Status) String() string {
	switch s {
	case Visited:
		return "Visited"
	case Computed:
		return "Computed"
	case Completed:
		return "Completed"
	default:
		return fmt.Sprintf("Status(%d)", int32(s))
	}
}

// state is what a descriptor holds beyond the facts every task has: the
// shaded state of Figure 2 for FT-NABBIT, NABBIT's for the baseline. The
// executor and its descriptor are generic over it, and the two instantiations
// are the two executors (FT, Baseline). Both lead with the status word.
type state interface{ ftState | nabbitState }

// ftState is FT-NABBIT's part of a descriptor.
type ftState struct {
	// state is the status (Visited, Computed, Completed) in its low bits and
	// the poisoned, superseded and overwritten flags above them (statusMask
	// and the flag constants below). The module is go1.22, which has no
	// atomic.Or: the flags are set by compare-and-swap loops (mark).
	state atomic.Uint32

	life int32 // the incarnation: 0 for the original, > 0 for recoveries

	// bits has len(preds)+1 bits (the last is the self slot, cleared by the
	// self-notification issued at the end of initAndCompute, so a task with
	// every predecessor already Computed is still executed exactly once).
	// Bit i is cleared at most once per round by the notification from
	// predecessor i (Guarantee 3), and the clear that empties the vector is
	// the join: its caller executes the task.
	bits bitvec.Vector
}

// nabbitState is NABBIT's: the status word, which holds no flags, and the
// join counter, which starts at len(preds)+1 and is decremented by every
// notification.
type nabbitState struct {
	state atomic.Uint32
	join  atomic.Int32
}

// The layout facts task relies on, checked by the compiler (a violation makes
// a uintptr constant negative): FT-NABBIT's state is the larger (shaded), and
// each state leads with its status word (word).
const (
	_ = unsafe.Sizeof(ftState{}) - unsafe.Sizeof(nabbitState{}) - 1
	_ = -unsafe.Offsetof(ftState{}.state) - unsafe.Offsetof(nabbitState{}.state)
)

// statusMask is the bits of the status word that hold the Status.
const statusMask = 1<<2 - 1

// FT-NABBIT's flags, in the status word above the status.
const (
	// poisoned marks the descriptor as corrupted by a soft error; every
	// subsequent access observes it via check (the paper's "once an error
	// is detected, all subsequent accesses ... observe the error").
	poisoned uint32 = 1 << (2 + iota)

	// superseded marks that replaceTask has installed a newer incarnation
	// in the task table. Notify arrays hold descriptor pointers; a holder
	// that wants the current incarnation — notifySuccessor — goes back to
	// the table when it sees the flag.
	superseded

	// overwritten marks that a data-block version this incarnation produced
	// has been evicted by a later version; consumers that still need it must
	// recover (re-execute) this task (paper §II/§IV).
	overwritten
)

// Task is the runtime descriptor of one incarnation of a task under the
// fault-tolerant executor. A recovery never mutates an existing descriptor
// back to health: it replaces the map entry with a fresh incarnation carrying
// life+1 (paper REPLACETASK), so a *Task pointer held by a stale thread keeps
// observing the failed state. It is 144 bytes, a size class of its own; the
// baseline's is 120 (TestTaskSize).
type Task = task[ftState]

// BaselineTask is NABBIT's descriptor, 120 bytes. The FT-tax ledger
// (BenchmarkAblationFTTax) allocates, arms and joins both descriptors
// through their exported methods, as the executors do.
type BaselineTask = task[nabbitState]

// task is the descriptor of either executor. What it resolves once per task —
// key, predecessor list, output block version and slot — and its notify array
// are the same for both; the task graph structure is assumed resilient (paper
// §II), so none of it is a fault target. The spec is asked once, at creation,
// for the predecessor list and the output block version, and the block slot is
// looked up once. Notifying a successor and writing the task's own output then
// go from pointer to pointer; reading a predecessor's output asks the task
// table for its descriptor, three dependent loads.
type task[S state] struct {
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
	notify  []*task[S]
	notify0 [2]*task[S]

	e *exec[S]
	s S
}

// shaded reports whether t is FT-NABBIT's — whether the shaded lines of
// Figure 2 run. A type parameter's size is a constant in each of the two
// stencils the compiler makes of the package's generic code, so every branch
// on shaded folds: the NABBIT stencil holds no shaded code, and no test of it.
func (t *task[S]) shaded() bool { return unsafe.Sizeof(t.s) == unsafe.Sizeof(ftState{}) }

// ft returns t's FT-NABBIT state, and nil for a NABBIT descriptor, which has
// none. The conversion costs nothing, and the test before it folds.
func (t *task[S]) ft() *ftState {
	if !t.shaded() {
		return nil
	}
	return (*ftState)(unsafe.Pointer(&t.s))
}

// nabbit returns t's NABBIT state, and nil for an FT-NABBIT descriptor.
func (t *task[S]) nabbit() *nabbitState {
	if t.shaded() {
		return nil
	}
	return (*nabbitState)(unsafe.Pointer(&t.s))
}

// word returns t's status word, the first field of either state.
func (t *task[S]) word() *atomic.Uint32 { return (*atomic.Uint32)(unsafe.Pointer(&t.s)) }

// resolve fills the facts of key and arms the join for a fresh incarnation.
func (t *task[S]) resolve(spec graph.Spec, store *block.Store, key graph.Key, life int) {
	t.key = key
	t.preds = spec.Predecessors(key)
	t.out = spec.Output(key)
	t.slot = store.Slot(t.out.Block)
	t.notify = t.notify0[:0]
	if f := t.ft(); f != nil {
		f.life = int32(life)
	}
	t.Arm(len(t.preds) + 1)
}

// Arm readies t's join for n notifications, len(t.preds)+1 in an executor:
// FT-NABBIT's vector gets n set bits, NABBIT's counter the count.
func (t *task[S]) Arm(n int) {
	if f := t.ft(); f != nil {
		f.bits.Init(n)
	} else {
		t.nabbit().join.Store(int32(n))
	}
}

// Join is NOTIFYONCE's join of the notification of t by its ind-th
// predecessor, len(t.preds) for the self-notification. FT-NABBIT clears the
// predecessor's bit, which only the first notification of a round wins;
// NABBIT decrements its counter. last reports the notification that makes
// the task ready: the clear that empties the vector, the decrement to zero.
func (t *task[S]) Join(ind int) (won, last bool) {
	if f := t.ft(); f != nil {
		return f.bits.Clear(ind)
	}
	return true, t.nabbit().join.Add(-1) == 0
}

// Life returns the incarnation number (0 for the original execution, and
// always under NABBIT).
func (t *task[S]) Life() int {
	if f := t.ft(); f != nil {
		return int(f.life)
	}
	return 0
}

// Status returns the current execution status.
func (t *task[S]) Status() Status { return Status(t.word().Load() & statusMask) }

// setStatus replaces the status and keeps the flags. NABBIT, with no flags to
// keep, stores.
func (t *task[S]) setStatus(s Status) {
	w := t.word()
	if !t.shaded() {
		w.Store(uint32(s))
		return
	}
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old&^statusMask|uint32(s)) {
			return
		}
	}
}

// has reports whether flag is set; a NABBIT descriptor has no flags.
func (t *task[S]) has(flag uint32) bool { return t.shaded() && t.word().Load()&flag != 0 }

// mark sets flag and keeps the status and the other flags.
func (t *task[S]) mark(flag uint32) {
	st := &t.ft().state // a NABBIT descriptor has no flags to set
	for {
		old := st.Load()
		if old&flag != 0 || st.CompareAndSwap(old, old|flag) {
			return
		}
	}
}

// check models the try-block around descriptor accesses: it returns a
// *fault.Error for this incarnation if the descriptor is poisoned.
func (t *task[S]) check() error {
	if f := t.ft(); f != nil && f.state.Load()&poisoned != 0 {
		return fault.Errorf(t.key, int(f.life))
	}
	return nil
}

// predIndex is CONVERTPREDKEYTOINDEX: the position of pred in the ordered
// predecessor list, or the extra self slot when pred == key. An unknown pred
// is a spec inconsistency, reported as a panic rather than a recoverable
// fault.
func (t *task[S]) predIndex(pred graph.Key) int {
	if pred == t.key {
		return len(t.preds)
	}
	if i := slices.Index(t.preds, pred); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("core: task %d notified by non-predecessor %d", t.key, pred))
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
func (t *task[S]) batch(arg int) []*task[S] {
	lo, cnt := arg>>batchBits, arg&(1<<batchBits-1)
	t.mu.Lock()
	b := t.notify[lo : lo+cnt]
	t.mu.Unlock()
	return b
}

// newTask builds a fresh incarnation descriptor.
func (e *exec[S]) newTask(key graph.Key, life int) *task[S] {
	t := &task[S]{e: e}
	t.resolve(e.spec, e.store, key, life)
	return t
}

// The executor spawns three kinds of job, and each is the task descriptor
// under another method set: a descriptor converts to any of them for free,
// and a pointer in a job costs no allocation, where a closure capturing the
// executor, the task and an index costs one per spawn.
type (
	// exploreJob runs INITANDCOMPUTE of the task.
	exploreJob[S state] task[S]
	// traverseJob runs TRYINITCOMPUTE of the task's arg-th predecessor.
	traverseJob[S state] task[S]
	// drainJob notifies the batch of the task's notify array that arg
	// names.
	drainJob[S state] task[S]
)

func (j *exploreJob[S]) run(w worker, _ int)  { j.e.initAndCompute(w, (*task[S])(j)) }
func (j *traverseJob[S]) run(w worker, i int) { j.e.tryInitCompute(w, (*task[S])(j), i) }
func (j *drainJob[S]) run(w worker, arg int)  { j.e.drain(w, (*task[S])(j), arg) }
