// Package trace provides a bounded in-memory event log for executor
// diagnostics. When attached to a run it records the scheduler-visible
// lifecycle of every task — computes, detected faults, recoveries, resets —
// with a global sequence number, so a failed or surprising execution can be
// reconstructed after the fact (the moral equivalent of the paper authors'
// instrumentation for Table II's per-run variability).
//
// The log is a fixed-capacity ring: when full, the oldest events are
// overwritten. Emit is safe for concurrent use and deliberately cheap; a
// nil *Log ignores all events so tracing costs nothing when disabled.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// ComputeStart: a task's user compute began (Arg unused).
	ComputeStart Kind = iota
	// ComputeDone: a task's user compute finished without error.
	ComputeDone
	// ComputeFault: a compute observed an error; Arg is the failed task.
	ComputeFault
	// Inject: the fault plan poisoned the task; Arg encodes the Point.
	Inject
	// RecoverStart: a recovery won the at-most-once race; Arg is the new
	// life number.
	RecoverStart
	// Reset: the task was re-armed in place after a predecessor fault.
	Reset
	// Notify: the task's join counter was decremented; Arg is the
	// notifying predecessor.
	Notify
	// Completed: the task drained its notify array.
	Completed
	// Overwritten: the task's output version was evicted; Arg is the
	// evicting writer.
	Overwritten
	// SDCInject: the fault plan silently corrupted the task's output
	// (no poisoned flag, checksum recomputed — only replica comparison can
	// see it).
	SDCInject
	// SDCDetect: replica digest comparison caught a silent corruption; Arg
	// is the worker that ran the shadow replica.
	SDCDetect
)

var kindNames = [...]string{
	ComputeStart: "compute-start",
	ComputeDone:  "compute-done",
	ComputeFault: "compute-fault",
	Inject:       "inject",
	RecoverStart: "recover",
	Reset:        "reset",
	Notify:       "notify",
	Completed:    "completed",
	Overwritten:  "overwritten",
	SDCInject:    "sdc-inject",
	SDCDetect:    "sdc-detect",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	Seq  uint64
	When time.Duration // since the log's creation
	Kind Kind
	Key  int64
	Life int
	Arg  int64
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %v %s task=%d life=%d arg=%d",
		e.Seq, e.When.Round(time.Microsecond), e.Kind, e.Key, e.Life, e.Arg)
}

// Log is a bounded concurrent event ring. The zero value is invalid; use
// New. A nil *Log discards all events.
type Log struct {
	mu    sync.Mutex
	start time.Time
	buf   []Event
	seq   uint64
}

// New returns a log retaining the most recent capacity events. A
// capacity < 1 means "tracing off" and returns nil — the nil log's
// methods are no-ops, so callers need no pre-check and a disabled trace
// costs one inlined nil branch per Emit (the same contract as the nil
// metrics registry, held by internal/metrics'
// TestDisabledInstrumentsCostNothing), not a zero-length ring that still
// pays event construction.
func New(capacity int) *Log {
	if capacity < 1 {
		return nil
	}
	return &Log{start: time.Now(), buf: make([]Event, 0, capacity)}
}

// Emit records an event. Safe for concurrent use; no-op on a nil log (a
// single inlined branch, so disabled tracing is free).
func (l *Log) Emit(kind Kind, key int64, life int, arg int64) {
	if l == nil {
		return
	}
	l.emit(kind, key, life, arg)
}

func (l *Log) emit(kind Kind, key int64, life int, arg int64) {
	now := time.Since(l.start)
	l.mu.Lock()
	e := Event{Seq: l.seq, When: now, Kind: kind, Key: key, Life: life, Arg: arg}
	l.seq++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[e.Seq%uint64(cap(l.buf))] = e
	}
	l.mu.Unlock()
}

// Len returns the total number of events emitted (including overwritten
// ones).
func (l *Log) Len() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Snapshot returns the retained events in sequence order.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Event, len(l.buf))
	copy(out, l.buf)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Filter returns the retained events of the given kind, in order.
func (l *Log) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range l.Snapshot() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TaskHistory returns the retained events for one task, in order.
func (l *Log) TaskHistory(key int64) []Event {
	var out []Event
	for _, e := range l.Snapshot() {
		if e.Key == key {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes the retained events to w, one per line.
func (l *Log) Dump(w io.Writer) error {
	for _, e := range l.Snapshot() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}
