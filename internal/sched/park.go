package sched

// Worker parking.
//
// The original idle path was exponential sleep backoff: an idle worker
// slept 1µs…256µs between steal passes, so a job submitted while all
// workers were asleep waited out the remainder of somebody's sleep quantum
// (milliseconds of injected latency at the tail) and IdleTime measured
// sleep granularity rather than genuine starvation. Workers now park on a
// Treiber stack and are woken by the submit/spawn paths in microseconds.
//
// The protocol is the classic publish-then-recheck handshake:
//
//	worker (parking)               producer (waking)
//	--------------------           --------------------
//	push self onto stack           enqueue job
//	recheck every queue            if stack non-empty: pop one worker
//	if still empty: block          send token to its channel
//
// The worker publishes itself *before* its final recheck and the producer
// enqueues *before* popping, so at least one side always observes the
// other: either the worker's recheck finds the job, or the producer's pop
// finds the worker. A worker that found work during the recheck simply
// stays on the stack; if a producer later pops and wakes it anyway, the
// token parks in the worker's buffered channel and the next park loop
// consumes it as a spurious (harmless) wake-up — tokens are hints, never
// obligations, and every woken worker re-scans all queues before blocking
// again.
//
// The stack itself is a lock-free Treiber stack of worker indices packed
// into a single uint64 head: the low 16 bits hold id+1 (0 = empty stack),
// the upper 48 bits a version counter bumped on every successful push and
// pop, which makes the pop's read of next immune to ABA recycling of the
// same worker. Next-pointers live in the workers themselves (parkNext), so
// parking allocates nothing.

const (
	parkIDBits = 16
	parkIDMask = (1 << parkIDBits) - 1
)

// maxWorkers bounds the pool size so a worker index always fits in the
// packed parking-stack head.
const maxWorkers = parkIDMask - 1

// pushParked publishes w on the parked stack. Called only by w itself, just
// before its final work recheck, and only when w is not already on the
// stack (w.onStack): an intrusive stack cannot hold the same worker twice —
// a duplicate push would redirect the entry's next-link and sever (or
// cycle) the rest of the stack. The flag is set here by the owner and
// cleared only by the popper, so flag-false implies absent and the push is
// safe; flag-true implies present (or just popped with a wake token in
// flight), so skipping the push never hides the worker from producers.
func (p *Pool) pushParked(w *Worker) {
	if w.onStack.Load() {
		return
	}
	w.onStack.Store(true)
	for {
		h := p.parkHead.Load()
		w.parkNext.Store(int32(h&parkIDMask) - 1)
		nh := (h>>parkIDBits+1)<<parkIDBits | uint64(w.id+1)
		if p.parkHead.CompareAndSwap(h, nh) {
			p.parkedCount.Add(1)
			return
		}
	}
}

// popParked removes and returns some parked worker, or nil if the stack is
// empty. Safe for any goroutine.
func (p *Pool) popParked() *Worker {
	for {
		h := p.parkHead.Load()
		id := int(h&parkIDMask) - 1
		if id < 0 {
			return nil
		}
		w := p.workers[id]
		next := w.parkNext.Load()
		nh := (h>>parkIDBits+1)<<parkIDBits | uint64(next+1)
		if p.parkHead.CompareAndSwap(h, nh) {
			w.onStack.Store(false)
			p.parkedCount.Add(-1)
			return w
		}
	}
}

// wakeOne pops one parked worker and hands it a wake token. The fast path —
// no worker parked, the steady state of a saturated pool — is a single
// atomic load, which is what makes waking affordable on every spawn.
func (p *Pool) wakeOne() {
	if p.parkHead.Load() == 0 {
		return
	}
	if w := p.popParked(); w != nil {
		p.wakeWorker(w)
	}
}

// wakeWorker delivers a token to w's park channel. Non-blocking: if a token
// is already pending the worker is due to wake anyway, and that pending
// token carries this wake-up's obligation.
func (p *Pool) wakeWorker(w *Worker) {
	select {
	case w.parkCh <- struct{}{}:
	default:
	}
}

// wakeAll drains the parked stack, waking every worker. Used by Close, after
// the stop flag is set, so blocked workers observe it and exit.
func (p *Pool) wakeAll() {
	for {
		w := p.popParked()
		if w == nil {
			return
		}
		p.wakeWorker(w)
	}
}
