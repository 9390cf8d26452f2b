package core

import (
	"fmt"
	"slices"
	"sync"

	"ftdag/internal/block"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
)

// predRead is one predecessor payload a compute obtained from ReadPred: a
// private copy the store made for it — or, with runs set, the words a
// capturing context gathered for ReadPredAt by those runs.
type predRead struct {
	pred graph.Key
	data []float64
	runs []block.Run
}

// heldBufs is what an executor context owns on behalf of one compute — the
// read copies the store handed out — so that it can give them back when the
// compute ends, which is as long as graph.Context promises them to the
// compute. Read copies of block.PoolMin float64s or more are listed and go
// back to the block free list; smaller ones come out of the small arena, at
// no allocation per read, and go back with its Reset. A slice the compute
// passes to Write is not held: write hands it to the store, which adopts it.
type heldBufs struct {
	reads []predRead
	small block.Arena
}

// write stores data, whose ownership the compute passed with it, as version
// of slot. The store adopts the slice itself unless the context may still
// give it back: a payload below block.PoolMin may be a piece of the arena,
// and one inside a held read copy goes back with that copy (graph.Context
// lets a compute write a piece of what ReadPred returned). Those two are
// copied.
func (h *heldBufs) write(slot *block.Slot, version int, producer graph.Key, data []float64) (sum uint64, victim int64, evicted bool) {
	if len(data) < block.PoolMin || h.holds(data) {
		own := block.Alloc(len(data))
		copy(own, data)
		data = own
	}
	return slot.Write(version, producer, data)
}

// holds reports whether data lies inside one of the listed read copies.
func (h *heldBufs) holds(data []float64) bool {
	for _, r := range h.reads {
		if inside(r.data, data) {
			return true
		}
	}
	return false
}

// read copies version of slot for the compute and counts the access in c.
// With keep the copy is listed and off the free list whatever its size: the
// caller means to hold it past the compute.
func (h *heldBufs) read(c *counters, pred graph.Key, slot *block.Slot, version int, keep bool) ([]float64, error) {
	arena := &h.small
	if keep {
		arena = nil
	}
	data, err := slot.Read(version, arena)
	c.countRead(err)
	if err == nil && (keep || len(data) >= block.PoolMin) {
		h.reads = append(h.reads, predRead{pred: pred, data: data})
	}
	return data, err
}

// readAt gathers the words of version of slot that the runs name into the
// compute's dst and counts the access in c: one access, as read is. With keep
// a copy of the gathered words is listed with the runs, to be held past the
// compute like read's.
func (h *heldBufs) readAt(c *counters, pred graph.Key, slot *block.Slot, version int, dst []float64, runs []block.Run, keep bool) error {
	err := slot.ReadAt(version, dst, runs...)
	c.countRead(err)
	if err == nil && keep {
		got := append([]float64(nil), dst[:block.Words(runs...)]...)
		h.reads = append(h.reads, predRead{pred: pred, data: got, runs: slices.Clone(runs)})
	}
	return err
}

// release ends the compute's claim on its buffers and readies h for the next
// compute: with freeReads the listed read copies go to the free list, and the
// arena is reset. Without freeReads the list itself passes to the caller with
// the copies.
func (h *heldBufs) release(freeReads bool) {
	if freeReads {
		for _, r := range h.reads {
			block.Free(r.data)
		}
		clear(h.reads) // the list is reused; do not pin freed buffers
		h.reads = h.reads[:0]
	} else {
		h.reads = nil
	}
	h.small.Reset()
}

// specOutput resolves the output of task key the long way — spec, then slot
// table — for a compute that reads a task it has no descriptor of.
func specOutput(spec graph.Spec, store *block.Store, key graph.Key) (*block.Slot, int) {
	ref := spec.Output(key)
	return store.Slot(ref.Block), ref.Version
}

// inside reports whether b starts inside a's backing array.
func inside(a, b []float64) bool {
	k := cap(a) - cap(b)
	return cap(b) > 0 && k >= 0 && &a[:cap(a)][k] == &b[:1][0]
}

// taskCtx is the graph.Context handed to user computes by the executor. Under
// FT-NABBIT it attributes block access failures to the producing task,
// turning them into *fault.Error values that the executor's catch blocks
// route to recovery, and it marks producer tasks overwritten when a write
// evicts their retained version. Under NABBIT, with no faults possible, an
// access failure is a spec bug and panics.
type taskCtx[S state] struct {
	e *exec[S]
	t *task[S]
	w *sched.Worker // the worker running the compute; it counts in its block of e.met
	heldBufs
	sum   uint64 // checksum the store kept for the written payload
	wrote bool
	// capture makes the context keep every predecessor payload this compute
	// reads, whatever its size — and of a ReadPredAt, the words it gathered
	// — and leave the copies alive past the compute. The replicated path
	// snapshots the primary's inputs this way so a shadow that loses the
	// store-read race to version eviction can still verify the primary.
	capture bool
}

var (
	_ graph.Context   = (*taskCtx[ftState])(nil)
	_ graph.RunReader = (*taskCtx[ftState])(nil)
)

// The pools recycle the contexts of finished computes, each with its arena
// and its list of held reads; a context is handed to one compute at a time
// and holds no executor state while pooled. A sync.Pool cannot be generic:
// each executor has its own.
var (
	ftCtxPool     = sync.Pool{New: func() any { return new(taskCtx[ftState]) }}
	nabbitCtxPool = sync.Pool{New: func() any { return new(taskCtx[nabbitState]) }}
)

// ReadPred returns a private copy of the block version produced by the given
// predecessor. On corruption or eviction the error names the predecessor's
// current incarnation, so the consumer's catch recovers the right task.
func (c *taskCtx[S]) ReadPred(pred graph.Key) ([]float64, error) {
	slot, version := c.output(pred)
	data, err := c.read(c.e.met.at(c.w), pred, slot, version, c.capture)
	if err != nil {
		return nil, c.failed(pred, err)
	}
	return data, nil
}

// ReadPredAt is ReadPred of just the words the runs name (graph.RunReader):
// one store access that copies, and on a verifying store checks, only the
// segments they lie in, counted and attributed as ReadPred's. A capturing
// context keeps a copy of the gathered words with their runs.
func (c *taskCtx[S]) ReadPredAt(pred graph.Key, dst []float64, runs ...block.Run) error {
	slot, version := c.output(pred)
	if err := c.readAt(c.e.met.at(c.w), pred, slot, version, dst, runs, c.capture); err != nil {
		return c.failed(pred, err)
	}
	return nil
}

// output returns the slot and version of pred's output: through the task
// table — they are the same for every incarnation — or, for a task nobody
// has discovered, the spec.
func (c *taskCtx[S]) output(pred graph.Key) (*block.Slot, int) {
	if p, ok := c.e.tasks.Load(pred); ok {
		return p.slot, p.out.Version
	}
	return specOutput(c.e.spec, c.e.store, pred)
}

// failed turns a failed read of pred's output into the error the compute
// returns: a fault naming pred's current incarnation, which the consumer's
// catch recovers. Under NABBIT no read can fail but by a spec bug — or in a
// compute an aborted run left running, whose store has been released; the
// error then goes back to the compute as it is, and the catch drops it.
func (c *taskCtx[S]) failed(pred graph.Key, err error) error {
	if !c.t.shaded() {
		if c.e.aborted() {
			return err
		}
		panic(fmt.Sprintf("core: baseline read of task %d's output failed: %v — spec violates use-before-redefine ordering", pred, err))
	}
	life := 0
	if pt, ok := c.e.tasks.Load(pred); ok {
		life = pt.Life()
	}
	return fault.Errorf(pred, life)
}

// Write stores the task's output block version; the store keeps the slice
// (heldBufs.write). Evicting an older version marks its producer
// overwritten: any task still needing that version will observe the failure
// and re-execute the producer (paper §IV, cascading re-execution).
func (c *taskCtx[S]) Write(data []float64) {
	sum, victim, evicted := c.write(c.t.slot, c.t.out.Version, c.t.key, data)
	met := c.e.met.at(c.w)
	met.countWrite(evicted)
	if c.t.shaded() && evicted && victim != c.t.key {
		if pt, ok := c.e.tasks.Load(victim); ok {
			pt.mark(overwritten)
			met.overwriteMarks.Add(1)
		}
	}
	c.wrote = true
	c.sum = sum
}

// shadowCtx is the context handed to a shadow replica: reads go through the
// store like the primary's, but the write is captured locally instead of
// stored — only the digest of a shadow's output matters, and a second store
// write would evict retained versions and double overwrite bookkeeping.
// With snapshot set, reads instead holds the primary's captured inputs and
// ReadPred and ReadPredAt serve from it (the re-verification path after the
// live shadow lost a predecessor version to retention eviction); those
// copies stay the join's to free.
type shadowCtx[S state] struct {
	taskCtx[S]
	snapshot bool
	out      []float64 // the captured output
}

var (
	_ graph.Context   = (*shadowCtx[ftState])(nil)
	_ graph.RunReader = (*shadowCtx[ftState])(nil)
)

func (c *shadowCtx[S]) ReadPred(pred graph.Key) ([]float64, error) {
	if !c.snapshot {
		return c.taskCtx.ReadPred(pred)
	}
	for _, in := range c.reads {
		if in.pred == pred && in.runs == nil {
			return in.data, nil
		}
	}
	return nil, fault.Errorf(c.t.key, c.t.Life())
}

// ReadPredAt replays the primary's gather of the same runs from the snapshot
// — the primary's compute, being deterministic, asked for the same words —
// or gathers from a whole payload the primary read.
func (c *shadowCtx[S]) ReadPredAt(pred graph.Key, dst []float64, runs ...block.Run) error {
	if !c.snapshot {
		return c.taskCtx.ReadPredAt(pred, dst, runs...)
	}
	for _, in := range c.reads {
		switch {
		case in.pred != pred:
		case in.runs == nil:
			block.Gather(dst, in.data, runs...)
			return nil
		case slices.Equal(in.runs, runs):
			copy(dst, in.data)
			return nil
		}
	}
	return fault.Errorf(c.t.key, c.t.Life())
}

func (c *shadowCtx[S]) Write(data []float64) {
	c.out = data
	c.wrote = true
}
