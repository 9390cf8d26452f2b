package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

// These tests pin what the descriptor holds of other descriptors — pointers
// in the notify arrays — to the cases where a traversal has not run yet or an
// entry is stale.

// TestEligibleBeforeOwnTraversal: a recovery of predecessor 1 that finds task
// 3 waiting re-registers it (Guarantee 4), and the recovered incarnation's
// notification makes 3 eligible before 3's own traversal of 1 has run. 3
// computes the right value all the same — its read of 1 goes through the task
// table — and the late traversal changes nothing.
func TestEligibleBeforeOwnTraversal(t *testing.T) {
	g := graph.Diamond(nil) // 0 → {1, 2} → 3; preds(3) = [1, 2]
	_, wantSink := groundTruth(t, g, 0)
	e := NewFT(g, Config{})
	s3, _ := e.insertIfAbsent(3)
	withWorker(t, e, func(w worker) {
		// 3 traverses predecessor 2 only; the run computes 0 and 2 and
		// notifies 3 for 2.
		e.tryInitCompute(w, s3, 1)
	})
	if s3.ft().bits.IsSet(1) || !s3.ft().bits.IsSet(0) {
		t.Fatalf("after traversing 2 only: bits %d/%d", s3.ft().bits.Count(), s3.ft().bits.Len())
	}
	withWorker(t, e, func(w worker) {
		// Task 1, discovered by someone else, fails; its recovery finds 3
		// waiting, re-registers it, computes and notifies it.
		e.insertIfAbsent(1)
		e.recoverTask(w, 1)
	})
	if s3.ft().bits.IsSet(0) || s3.ft().bits.Count() != 1 {
		t.Fatalf("after recovery of 1: bit set=%v, %d outstanding; want cleared, 1", s3.ft().bits.IsSet(0), s3.ft().bits.Count())
	}
	withWorker(t, e, func(w worker) {
		e.notifyOnce(w, s3, 2) // the self-notification: 3 computes, its traversal of 1 still to come
	})
	if s3.Status() != Completed {
		t.Fatalf("task 3 is %v, want Completed", s3.Status())
	}
	got, err := s3.slot.Read(s3.out.Version, nil, nil)
	if err != nil || len(got) != 1 || got[0] != wantSink[0] {
		t.Fatalf("task 3 wrote %v (err %v), want %v", got, err, wantSink)
	}
	computes := e.LiveMetrics().Computes
	withWorker(t, e, func(w worker) {
		e.tryInitCompute(w, s3, 0) // the traversal that came late
	})
	if t1, _ := e.tasks.Load(1); t1.Life() != 1 {
		t.Fatalf("task 1 is at life %d after the late traversal, want 1", t1.Life())
	}
	if e.LiveMetrics().Computes != computes || s3.ft().bits.Count() != 0 {
		t.Fatalf("late traversal recomputed or re-notified: computes %d→%d, %d outstanding", computes, e.LiveMetrics().Computes, s3.ft().bits.Count())
	}
}

// TestNotifyThroughStalePointer: a notify array entry that names a superseded
// incarnation sends the notification to the one in the task table, and a
// second notification through the same stale pointer finds the bit cleared.
// An entry that is not superseded is used as it is.
func TestNotifyThroughStalePointer(t *testing.T) {
	e := NewFT(graph.Diamond(nil), Config{}) // preds(3) = [1, 2]
	from, _ := e.insertIfAbsent(1)
	stale, _ := e.insertIfAbsent(3)
	cur := e.replaceTask(worker{}, 3)
	withWorker(t, e, func(w worker) {
		e.notifySuccessor(w, from, stale)
		e.notifySuccessor(w, from, stale)
	})
	if cur.ft().bits.IsSet(0) || cur.ft().bits.Count() != 2 {
		t.Fatalf("current incarnation: bits %d/3, want the bit of 1 cleared once", cur.ft().bits.Count())
	}
	if stale.ft().bits.Count() != 3 {
		t.Fatalf("superseded incarnation was notified: bits %d/3", stale.ft().bits.Count())
	}
	if got := e.LiveMetrics().Notifications; got != 1 {
		t.Fatalf("notifications = %d, want 1", got)
	}
	// Not superseded: the pointer is the successor, table or no table.
	loose := e.newTask(3, 0)
	withWorker(t, e, func(w worker) { e.notifySuccessor(w, from, loose) })
	if loose.ft().bits.Count() != 2 || cur.ft().bits.Count() != 2 {
		t.Fatalf("unsuperseded pointer: its bits %d/3 (want 2), table incarnation's %d/3 (want 2)", loose.ft().bits.Count(), cur.ft().bits.Count())
	}
}

// farReader is a chain whose last task also reads the first, a task it
// depends on only transitively — as the blocked FW and SW computes read blocks
// behind ordering-only dependences.
type farReader struct{ *graph.Static }

func (s farReader) Compute(ctx graph.Context, key graph.Key) error {
	if key != s.Sink() {
		return s.Static.Compute(ctx, key)
	}
	near, err := ctx.ReadPred(key - 1)
	if err != nil {
		return err
	}
	far, err := ctx.ReadPred(0)
	if err != nil {
		return err
	}
	ctx.Write([]float64{near[0] + 100*far[0]})
	return nil
}

// TestReadPredOfNonPredecessor: ReadPred of a key that is not in preds
// resolves through the task table like any other — or, for a key no descriptor
// exists for, through the spec.
func TestReadPredOfNonPredecessor(t *testing.T) {
	spec := farReader{graph.Chain(4, nil)}
	_, want := groundTruth(t, spec, 0)
	plan := func() *fault.Plan {
		return fault.NewPlan().Add(0, fault.AfterCompute, 1).Add(2, fault.AfterCompute, 1)
	}
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			for name, run := range map[string]func() (*Result, error){
				"baseline":  NewBaseline(spec, Config{Workers: p, Timeout: testTimeout}).Run,
				"ft":        NewFT(spec, Config{Workers: p, Timeout: testTimeout}).Run,
				"ft-faults": NewFT(spec, Config{Workers: p, Timeout: testTimeout, Plan: plan()}).Run,
			} {
				res, err := run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(res.Sink) != 1 || res.Sink[0] != want[0] {
					t.Fatalf("%s: sink %v, want %v", name, res.Sink, want)
				}
			}
		})
	}

	// No descriptor at all for the task read: only its block exists.
	e := NewFT(spec, Config{})
	ref := spec.Output(0)
	e.store.Write(ref.Block, ref.Version, 0, []float64{7})
	ctx := &taskCtx[ftState]{e: e, met: e.met.at(worker{}), t: e.newTask(3, 0)}
	if got, err := ctx.ReadPred(0); err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("FT ReadPred through the spec: %v, %v", got, err)
	}
	b := NewBaseline(spec, Config{})
	b.store.Write(ref.Block, ref.Version, 0, []float64{7})
	bt, _ := b.insertIfAbsent(3)
	bctx := &taskCtx[nabbitState]{e: b, met: b.met.at(worker{}), t: bt}
	if got, err := bctx.ReadPred(0); err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("baseline ReadPred through the spec: %v, %v", got, err)
	}
}

// TestTaskSize: the FT descriptor stays in the 144-byte size class, one class
// above the baseline's 128. The status and the three flags are one word, the
// bit vector is the join counter, and life is 32 bits; a field added here
// costs every task of every run 16 bytes more, and GC marking with them.
func TestTaskSize(t *testing.T) {
	for _, c := range []struct {
		name     string
		size, at uintptr
	}{
		{"FT", unsafe.Sizeof(Task{}), 144},
		{"NABBIT", unsafe.Sizeof(BaselineTask{}), 128},
	} {
		if c.size > c.at {
			t.Errorf("the %s descriptor is %d bytes, want at most %d", c.name, c.size, c.at)
		}
	}
}

// TestAllocationsPerTask is the tripwire on the per-task fixed cost: on a
// fine-grain layered DAG an execution allocates at most maxAllocsPerTask
// times per task — descriptor, block slot, stored payload, the two slices of
// graph.Static.Compute, and the amortized pages of the task table and the slot
// table and growth of the longer notify arrays. It was ≈ 17 before descriptors
// resolved their facts once and ≈ 6.2 while each kept an array of its
// predecessors' descriptors. On bench/'s finegrain_dag graph it also allocates
// at most maxBytesPerTask per task.
func TestAllocationsPerTask(t *testing.T) {
	const maxAllocsPerTask = 7
	const maxBytesPerTask = 390
	cfg := Config{Workers: 2, VerifyChecksums: true, Timeout: testTimeout}
	executors := map[string]func(g graph.Spec) error{
		"FT":       func(g graph.Spec) error { _, err := NewFT(g, cfg).Run(); return err },
		"Baseline": func(g graph.Spec) error { _, err := NewBaseline(g, cfg).Run(); return err },
	}
	g := graph.Layered(40, 32, 3, 5, nil)
	tasks := graph.Analyze(g).Tasks
	for name, run := range executors {
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			if e := run(g); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		perTask := allocs / float64(tasks)
		t.Logf("%s: %.2f allocations per task (%d tasks)", name, perTask, tasks)
		if perTask > maxAllocsPerTask {
			t.Errorf("%s: %.2f allocations per task, want <= %d", name, perTask, maxAllocsPerTask)
		}
	}

	if !poolsRetain() {
		t.Log("sync.Pool drops what it is given here (the race detector does): the recycled contexts and their arenas are reallocated, so bytes per task are not measured")
		return
	}
	g = graph.Layered(400, 256, 3, 1, nil)
	tasks = 400*256 + 1
	for name, run := range executors {
		if err := run(g); err != nil { // fills the context pools and the scheduler's own
			t.Fatalf("%s: %v", name, err)
		}
		const runs = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := run(g); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		perTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*tasks)
		t.Logf("%s: %.1f bytes per task (%d tasks)", name, perTask, tasks)
		if perTask > maxBytesPerTask {
			t.Errorf("%s: %.1f bytes per task, want <= %d", name, perTask, maxBytesPerTask)
		}
	}
}

// poolsRetain reports whether a sync.Pool hands back what it was given. Under
// the race detector it drops a quarter of the Puts at random.
func poolsRetain() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}
