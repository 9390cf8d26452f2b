package core

import (
	"errors"
	"testing"
	"time"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

// TestReinitNotifyEntryBranches drives REINITNOTIFYENTRY through its three
// outcomes directly: enqueue (Visited + bit set), skip on cleared bit, and
// skip on already-computed successor.
func TestReinitNotifyEntryBranches(t *testing.T) {
	g := graph.Diamond(nil) // preds(3) = [1, 2]
	e := NewFT(g, Config{})
	withWorker(t, e, func(w worker) {
		pred := e.newTask(1, 1) // recovered incarnation of task 1
		succ, _ := e.insertIfAbsent(3)

		// Visited successor with the bit for task 1 still set → enqueue.
		if err := e.reinitNotifyEntry(w, pred, succ); err != nil {
			t.Fatalf("reinit: %v", err)
		}
		if len(pred.notify) != 1 || pred.notify[0] != succ {
			t.Fatalf("notify array = %v, want [task 3's descriptor]", pred.notify)
		}

		// Bit already cleared (successor was notified) → no enqueue.
		succ.ft().bits.TestAndClear(succ.predIndex(1))
		if err := e.reinitNotifyEntry(w, pred, succ); err != nil {
			t.Fatal(err)
		}
		if len(pred.notify) != 1 {
			t.Fatalf("notify array grew on cleared bit: %v", pred.notify)
		}

		// Computed successor → no enqueue regardless of bits.
		succ.ft().bits.SetAll()
		succ.setStatus(Computed)
		if err := e.reinitNotifyEntry(w, pred, succ); err != nil {
			t.Fatal(err)
		}
		if len(pred.notify) != 1 {
			t.Fatalf("notify array grew for computed successor: %v", pred.notify)
		}

		// Poisoned successor → its recovery is initiated, no rethrow.
		succ2, _ := e.insertIfAbsent(2)
		succ2.mark(poisoned)
		if err := e.reinitNotifyEntry(w, pred, succ2); err != nil {
			t.Fatalf("reinit of poisoned successor returned error: %v", err)
		}
	})
	// The poisoned successor's recovery must have replaced its entry.
	cur, ok := e.tasks.Load(2)
	if !ok || cur.Life() != 1 {
		t.Fatalf("poisoned successor not recovered: life=%d", cur.Life())
	}
}

// TestRecoverFromErrorPanicsOnForeignError: non-fault errors are executor
// bugs and must not be silently routed to recovery.
func TestRecoverFromErrorPanicsOnForeignError(t *testing.T) {
	g := graph.Diamond(nil)
	e := NewFT(g, Config{})
	withWorker(t, e, func(w worker) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on non-fault error")
			}
		}()
		e.recoverFromError(w, errNotAFault{}, 0, 0)
	})
}

type errNotAFault struct{}

func (errNotAFault) Error() string { return "not a fault" }

// TestRecoverTaskReconstructsNotifyArray is Guarantee 4 in isolation: a
// recovered task's notify array must contain exactly the successors that
// are still waiting on it.
func TestRecoverTaskReconstructsNotifyArray(t *testing.T) {
	g := graph.Diamond(nil) // succs(0) = [1, 2]
	e := NewFT(g, Config{})
	withWorker(t, e, func(w worker) {
		// The failed incarnation of task 0, plus: successor 1 waiting
		// (Visited, bit set) and successor 2 already notified (bit
		// cleared).
		e.insertIfAbsent(0)
		s1, _ := e.insertIfAbsent(1)
		s2, _ := e.insertIfAbsent(2)
		s2.ft().bits.TestAndClear(s2.predIndex(0))
		_ = s1

		e.recoverTask(w, 0)
	})
	// Recovery re-ran task 0 (it is a source, so it computes straight
	// away) and must have notified successor 1 — whose join is then
	// waiting only on its self-notification — while not double-notifying
	// successor 2.
	t0, _ := e.tasks.Load(0)
	if t0.Life() != 1 || t0.Status() < Computed {
		t.Fatalf("recovered task 0: life=%d status=%v", t0.Life(), t0.Status())
	}
	s1, _ := e.tasks.Load(1)
	if s1.ft().bits.IsSet(s1.predIndex(0)) {
		t.Fatal("successor 1 was not notified by the recovered incarnation")
	}
	s2, _ := e.tasks.Load(2)
	if got := s2.ft().bits.Count(); got != 1 {
		// The bit of 0 was cleared before the recovery; its self bit is
		// all that is left, and the recovered incarnation's notification
		// must have found the bit of 0 cleared.
		t.Fatalf("successor 2 has %d bits set, want 1 (no double notification)", got)
	}
}

// TestResetNodePoisonedSelf: resetting a task whose own descriptor is
// poisoned must route to recovery of that task instead.
func TestResetNodePoisonedSelf(t *testing.T) {
	g := graph.Chain(3, nil)
	e := NewFT(g, Config{})
	withWorker(t, e, func(w worker) {
		task, _ := e.insertIfAbsent(2)
		task.mark(poisoned)
		e.resetNode(w, task)
	})
	cur, _ := e.tasks.Load(2)
	if cur.Life() != 1 {
		t.Fatalf("poisoned reset target not recovered: life=%d", cur.Life())
	}
}

// TestInjectionSparesTheRecoveredVersion: an after-compute fault poisons task
// 0's descriptor, and before the injector corrupts its output the window
// stays open until the recovery of that incarnation — claimed as a successor
// that saw the poisoned descriptor would claim it — has computed and written
// a clean version on the other worker. The successor that recovery notifies
// starts only once the injection is done, so it reads whatever the injector
// left. The injector flags only the version its own incarnation wrote — none
// is left — so the successor reads a clean version and the one fault costs
// one recovery.
func TestInjectionSparesTheRecoveredVersion(t *testing.T) {
	g := graph.Chain(3, nil)
	e := NewFT(g, Config{Workers: 2, Plan: fault.NewPlan().Add(0, fault.AfterCompute, 1), Timeout: testTimeout})
	recovered := make(chan struct{})
	e.hooks.onComputed = func(key graph.Key, life int) {
		if key == 0 && life == 1 {
			close(recovered)
		}
	}
	e.hooks.onCompute = func(key graph.Key, life int) {
		for deadline := time.Now().Add(testTimeout); key == 1 && e.met.snapshot().InjectionsFired == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the injection did not finish")
				return
			}
		}
	}
	e.hooks.onInject = func(w worker, key graph.Key, life int) {
		if key == 0 && life == 0 {
			e.recoverTaskOnce(w, key, life)
			select {
			case <-recovered:
			case <-time.After(testTimeout):
				t.Error("the recovered incarnation did not compute")
			}
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Recoveries != 1 || res.Store.CorruptReads != 0 {
		t.Fatalf("one injection: %d recoveries, %d corrupt reads; want 1 and 0", res.Metrics.Recoveries, res.Store.CorruptReads)
	}
}

// TestCorruptReadNamesTheWriter: a read of a corrupted version names the
// incarnation that wrote it, even when the producer has been recovered
// since: the consumer's error must not start a recovery of the healthy
// recovered incarnation.
func TestCorruptReadNamesTheWriter(t *testing.T) {
	g := graph.Chain(2, nil)
	e := NewFT(g, Config{})
	e.insertIfAbsent(0)
	ref := g.Output(0)
	e.store.Write(ref.Block, ref.Version, 0, []float64{1}) // by life 0
	e.store.Corrupt(ref.Block, ref.Version, 0)
	if e.store.Corrupt(ref.Block, ref.Version, 1) {
		t.Fatal("Corrupt flagged a version another incarnation wrote")
	}
	e.replaceTask(worker{}, 0) // the producer's recovery is under way
	ctx := &taskCtx[ftState]{e: e, met: e.met.at(worker{}), t: e.newTask(1, 0)}
	_, err := ctx.ReadPred(0)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Key != 0 || fe.Life != 0 {
		t.Fatalf("read of life 0's corrupted version: %v, want a fault naming task 0, life 0", err)
	}
}
