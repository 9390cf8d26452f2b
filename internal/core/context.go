package core

import (
	"ftdag/internal/block"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/trace"
)

// predRead is one predecessor payload a compute obtained from ReadPred: a
// private copy the store made for it.
type predRead struct {
	pred graph.Key
	data []float64
}

// heldBufs is what an executor context owns on behalf of one compute — the
// read copies the store handed out and the slice the compute passed to
// Write — so that it can return them to the block free list when the compute
// ends. Payloads below block.PoolMin are never listed: the free list would
// ignore them, and tracking them would cost an allocation per fine-grain
// task.
type heldBufs struct {
	out   []float64
	reads []predRead
}

// hold records a read copy; npreds sizes the list on first use.
func (h *heldBufs) hold(pred graph.Key, data []float64, npreds int) {
	if h.reads == nil {
		h.reads = make([]predRead, 0, npreds)
	}
	h.reads = append(h.reads, predRead{pred, data})
}

// release returns the written slice, and with freeReads the read copies, to
// the free list. A compute may write a slice it got from ReadPred (or a
// piece of one); that buffer is freed once, as the read copy.
func (h *heldBufs) release(freeReads bool) {
	out := h.out
	for _, r := range h.reads {
		if inside(r.data, out) {
			out = nil
		}
		if freeReads {
			block.Free(r.data)
		}
	}
	block.Free(out)
}

// inside reports whether b starts inside a's backing array.
func inside(a, b []float64) bool {
	k := cap(a) - cap(b)
	return cap(b) > 0 && k >= 0 && &a[:cap(a)][k] == &b[:1][0]
}

// ftCtx is the graph.Context handed to user computes by the fault-tolerant
// executor. It attributes block access failures to the producing task,
// turning them into *fault.Error values that the executor's catch blocks
// route to recovery, and it marks producer tasks overwritten when a write
// evicts their retained version.
type ftCtx struct {
	e *FT
	t *Task
	heldBufs
	sum   uint64 // checksum the store kept for the written payload
	wrote bool
	// capture makes the context keep every predecessor payload this compute
	// reads, whatever its size, and leave the copies alive past the compute.
	// The replicated path snapshots the primary's inputs this way so a shadow
	// that loses the store-read race to version eviction can still verify
	// the primary.
	capture bool
}

var _ graph.Context = (*ftCtx)(nil)

// ReadPred returns a private copy of the block version produced by the given
// predecessor. On corruption or eviction the error names the predecessor's
// current incarnation, so the consumer's catch recovers the right task.
func (c *ftCtx) ReadPred(pred graph.Key) ([]float64, error) {
	ref := c.e.spec.Output(pred)
	data, err := c.e.store.Read(ref.Block, ref.Version)
	if err == nil {
		if c.capture || len(data) >= block.PoolMin {
			c.hold(pred, data, len(c.t.preds))
		}
		return data, nil
	}
	life := 0
	if pt, ok := c.e.tasks.Load(pred); ok {
		life = pt.life
	}
	return nil, fault.Errorf(pred, life)
}

// Write stores the task's output block version. Evicting an older version
// marks its producer overwritten: any task still needing that version will
// observe the failure and re-execute the producer (paper §IV, cascading
// re-execution).
func (c *ftCtx) Write(data []float64) {
	ref := c.e.spec.Output(c.t.key)
	sum, victim, evicted := c.e.store.Write(ref.Block, ref.Version, c.t.key, data)
	if evicted && victim != c.t.key {
		if pt, ok := c.e.tasks.Load(victim); ok {
			pt.overwritten.Store(true)
			c.e.met.overwriteMarks.Add(1)
			c.e.cfg.Trace.Emit(trace.Overwritten, victim, pt.life, c.t.key)
		}
	}
	c.wrote = true
	c.out = data
	c.sum = sum
}

// shadowCtx is the context handed to a shadow replica: reads go through the
// store like the primary's, but the write is captured locally instead of
// stored — only the digest of a shadow's output matters, and a second store
// write would evict retained versions and double overwrite bookkeeping.
// With snapshot set, reads instead holds the primary's captured inputs and
// ReadPred serves from it (the re-verification path after the live shadow
// lost a predecessor version to retention eviction); those copies stay the
// join's to free.
type shadowCtx struct {
	ftCtx
	snapshot bool
}

var _ graph.Context = (*shadowCtx)(nil)

func (c *shadowCtx) ReadPred(pred graph.Key) ([]float64, error) {
	if !c.snapshot {
		return c.ftCtx.ReadPred(pred)
	}
	for _, in := range c.reads {
		if in.pred == pred {
			return in.data, nil
		}
	}
	return nil, fault.Errorf(c.t.key, c.t.life)
}

func (c *shadowCtx) Write(data []float64) {
	c.out = data
	c.wrote = true
}
