// Golden case for the ackorder analyzer: every call to a //lint:durable ack
// function must be dominated on all paths by a //lint:durable fsync barrier,
// interprocedurally. Also exercises the directive diagnostics: malformed
// arguments, conflicting directives, floating directives, and an fsync
// annotation the call graph cannot substantiate.
package ackorder

import "os"

type wal struct{ f *os.File }

// commit is the durability barrier: it really fsyncs.
//
//lint:durable fsync
func (w *wal) commit() error {
	return w.f.Sync()
}

// ack is the observable acknowledgement.
//
//lint:durable ack
func (w *wal) ack() {}

// Negative: barrier then ack — the protocol, proven.
func (w *wal) submitGood() {
	if err := w.commit(); err != nil {
		return
	}
	w.ack()
}

// Positive: the deliberately broken ordering — acked before the record is
// durable, exactly the crash window the journal protocol forbids.
func (w *wal) submitBad() {
	w.ack() // want:ackorder: ack "ack" is not dominated by a durable fsync
	_ = w.commit()
}

// Positive: one branch skips the barrier, so the join is unsynced.
func (w *wal) submitBranch(fast bool) {
	if !fast {
		_ = w.commit()
	}
	w.ack() // want:ackorder: ack "ack" is not dominated by a durable fsync
}

// ackHelper acks without a local barrier: the obligation climbs to its
// callers instead of being judged here.
func (w *wal) ackHelper() {
	w.ack() // want:ackorder: ack "ack" is not dominated by a durable fsync
}

// Negative: the caller discharges the helper's obligation — helper-acks,
// caller-fsyncs is proven, not rejected.
func (w *wal) submitViaHelper() {
	if err := w.commit(); err != nil {
		return
	}
	w.ackHelper()
}

// Positive: this caller does not, so the helper's ack (above) is reported.
func (w *wal) leakyCaller() {
	w.ackHelper()
}

// Suppressed: replayed state is already durable; excused with a reason.
func (w *wal) replayAck() {
	//lint:ignore ackorder golden suppressed case: state was replayed from the fsynced log, durable by construction
	w.ack()
}

// Positive: a launched literal is a node of its own, with no caller to
// discharge its obligation, so its unbarriered ack is reported.
func (w *wal) ackInGoroutine() {
	go func() {
		w.ack() // want:ackorder: ack "ack" is not dominated by a durable fsync
	}()
}

// file is a seam over the file that commit syncs: a call of its Sync runs
// one of the implementations below.
type file interface{ Sync() error }

type osFile struct{ f *os.File }

// Sync really fsyncs.
//
//lint:durable fsync
func (o osFile) Sync() error { return o.f.Sync() }

type memFile struct{}

func (memFile) Sync() error { return nil }

// Negative: the fsync is reachable through the interface, via osFile.
//
//lint:durable fsync
func commitVia(f file) error {
	return f.Sync()
}

// Positive: one implementation, memFile, is no barrier, so a call through
// the interface is none.
func (w *wal) submitViaSeam(f file) {
	_ = f.Sync()
	w.ack() // want:ackorder: ack "ack" is not dominated by a durable fsync
}

type flusher interface{ Flush() error }

type diskFlusher struct{ f *os.File }

// Flush really fsyncs.
//
//lint:durable fsync
func (d diskFlusher) Flush() error { return d.f.Sync() }

// Negative: every implementation of flusher is a barrier, so a call through
// it is one.
func (w *wal) submitFlushed(fl flusher) {
	if err := fl.Flush(); err != nil {
		return
	}
	w.ack()
}

type store interface{ Put() error }

type memStore struct{}

func (memStore) Put() error { return nil }

// want+1:ackorder: unverifiable
//lint:durable fsync
func putVia(s store) error {
	return s.Put()
}

// want+1:ackorder: malformed //lint:durable directive
//lint:durable flush
func (w *wal) badDirective() {}

// want+2:ackorder: conflicting //lint:durable directives
//lint:durable ack
//lint:durable fsync
func (w *wal) conflicted() {}

// want+1:ackorder: unverifiable
//lint:durable fsync
func fakeSync() {}

func floating() {
	// want+1:ackorder: not in a function declaration's doc comment
	//lint:durable ack
}
