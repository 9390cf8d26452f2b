// Package core implements the task graph executors: the fault-tolerant
// work-stealing scheduler that is the paper's contribution (Figures 2 and 3),
// the non-fault-tolerant NABBIT baseline it extends, and a sequential
// reference executor used for T1 measurement and ground-truth verification.
package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"ftdag/internal/bitvec"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
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

// Task is the runtime descriptor of one incarnation of a task. A recovery
// never mutates an existing descriptor back to health: it replaces the map
// entry with a fresh incarnation carrying life+1 (paper REPLACETASK), so a
// *Task pointer held by a stale thread keeps observing the failed state. It
// is 144 bytes, a size class of its own (TestTaskSize); the baseline's is 120.
type Task struct {
	// node holds what is resolved once per task — key, predecessor list,
	// output block version and slot — and the notify array. The task graph
	// structure is assumed resilient (paper §II), so none of it is a fault
	// target.
	node[Task]

	e    *FT
	life int32 // the incarnation: 0 for the original, > 0 for recoveries

	// state is the status (Visited, Computed, Completed) in its low bits and
	// the poisoned, superseded and overwritten flags above them (statusMask
	// and the flag constants below). The module is go1.22, which has no
	// atomic.Or: the flags are set by compare-and-swap loops (mark).
	state atomic.Uint32

	// bits has len(preds)+1 bits (the last is the self slot, cleared by the
	// self-notification issued at the end of initAndCompute, so a task with
	// every predecessor already Computed is still executed exactly once).
	// Bit i is cleared at most once per round by the notification from
	// predecessor i (Guarantee 3), and the clear that empties the vector is
	// the join: its caller executes the task.
	bits bitvec.Vector
}

// statusMask is the bits of Task.state that hold the Status.
const statusMask = 1<<2 - 1

// The flags of Task.state, above the status.
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

// Key returns the task's key.
func (t *Task) Key() graph.Key { return t.key }

// Life returns the incarnation number (0 for the original execution).
func (t *Task) Life() int { return int(t.life) }

// Status returns the current execution status.
func (t *Task) Status() Status { return Status(t.state.Load() & statusMask) }

// has reports whether flag is set.
func (t *Task) has(flag uint32) bool { return t.state.Load()&flag != 0 }

// setStatus replaces the status and keeps the flags.
func (t *Task) setStatus(s Status) {
	for {
		old := t.state.Load()
		if t.state.CompareAndSwap(old, old&^statusMask|uint32(s)) {
			return
		}
	}
}

// mark sets flag and keeps the status and the other flags.
func (t *Task) mark(flag uint32) {
	for {
		old := t.state.Load()
		if old&flag != 0 || t.state.CompareAndSwap(old, old|flag) {
			return
		}
	}
}

// check models the try-block around descriptor accesses: it returns a
// *fault.Error for this incarnation if the descriptor is poisoned.
func (t *Task) check() error {
	if t.has(poisoned) {
		return fault.Errorf(t.key, t.Life())
	}
	return nil
}

// predIndex is CONVERTPREDKEYTOINDEX: the position of pred in the ordered
// predecessor list, or the extra self slot when pred == key. An unknown pred
// is a spec inconsistency, reported as a panic rather than a recoverable
// fault.
func (t *Task) predIndex(pred graph.Key) int {
	if pred == t.key {
		return len(t.preds)
	}
	if i := slices.Index(t.preds, pred); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("core: task %d notified by non-predecessor %d", t.key, pred))
}

// predKey is the inverse of predIndex.
func (t *Task) predKey(i int) graph.Key {
	if i == len(t.preds) {
		return t.key
	}
	return t.preds[i]
}

// The executor spawns three kinds of job, and each is the task descriptor
// under another method set: a *Task converts to any of them for free, and a
// pointer in a sched.Runner costs no allocation, where a closure capturing
// the executor, the task and an index costs one per spawn.
type (
	// exploreJob runs INITANDCOMPUTE of the task.
	exploreJob Task
	// traverseJob runs TRYINITCOMPUTE of the task's arg-th predecessor.
	traverseJob Task
	// drainJob runs NOTIFYSUCCESSOR over the batch of the task's notify
	// array that arg names.
	drainJob Task
)

func (j *exploreJob) Run(w *sched.Worker, _ int) {
	t := (*Task)(j)
	t.e.initAndCompute(w, t)
}

func (j *traverseJob) Run(w *sched.Worker, i int) {
	t := (*Task)(j)
	t.e.tryInitCompute(w, t, i)
}

func (j *drainJob) Run(w *sched.Worker, arg int) {
	t := (*Task)(j)
	for _, s := range t.batch(arg) {
		t.e.notifySuccessor(w, t, s)
	}
}
