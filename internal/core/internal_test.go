package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

// TestIsRecoveringSemantics checks the recovery table's at-most-once
// protocol directly (paper ISRECOVERING, Guarantee 1).
func TestIsRecoveringSemantics(t *testing.T) {
	e := NewFT(graph.Diamond(nil), Config{})
	// First failure of life 0: the caller that inserts the record is the
	// recoverer.
	if e.isRecovering(1, 0) {
		t.Fatal("first observer of life 0 should recover")
	}
	// Everyone else observing the same incarnation backs off.
	if !e.isRecovering(1, 0) {
		t.Fatal("second observer of life 0 should not recover")
	}
	if !e.isRecovering(1, 0) {
		t.Fatal("third observer of life 0 should not recover")
	}
	// A failure of the next incarnation advances the record exactly once.
	if e.isRecovering(1, 1) {
		t.Fatal("first observer of life 1 should recover")
	}
	if !e.isRecovering(1, 1) {
		t.Fatal("second observer of life 1 should not recover")
	}
	// Independent keys do not interfere.
	if e.isRecovering(2, 0) {
		t.Fatal("key 2 should recover independently")
	}
}

func TestReplaceTaskLifecycle(t *testing.T) {
	g := graph.Diamond(nil)
	e := NewFT(g, Config{})
	t0, inserted := e.insertIfAbsent(3)
	if !inserted || t0.Life() != 0 {
		t.Fatalf("initial insert: %+v", t0)
	}
	// Reinsertion returns the existing descriptor.
	t0b, inserted := e.insertIfAbsent(3)
	if inserted || t0b != t0 {
		t.Fatal("second insert did not return the existing task")
	}
	t1 := e.replaceTask(worker{}, 3)
	if t1.Life() != 1 {
		t.Fatalf("first replacement: life=%d", t1.Life())
	}
	t2 := e.replaceTask(worker{}, 3)
	if t2.Life() != 2 {
		t.Fatalf("second replacement: life=%d", t2.Life())
	}
	// The map now serves the newest incarnation.
	cur, ok := e.tasks.Load(3)
	if !ok || cur != t2 {
		t.Fatal("map does not hold the newest incarnation")
	}
	// Old descriptors are unchanged (stale holders keep seeing life 0).
	if t0.Life() != 0 {
		t.Fatal("old incarnation mutated")
	}
	// The replaced incarnations are marked for the holders of their
	// pointers; the newest is not.
	if !t0.has(superseded) || !t1.has(superseded) || t2.has(superseded) {
		t.Fatalf("superseded flags: t0=%v t1=%v t2=%v, want true true false",
			t0.has(superseded), t1.has(superseded), t2.has(superseded))
	}
	// Replacing a never-inserted key starts at life 0.
	fresh := e.replaceTask(worker{}, 1)
	if fresh.Life() != 0 {
		t.Fatalf("replacement of absent key: life=%d", fresh.Life())
	}
}

func TestNewTaskShape(t *testing.T) {
	g := graph.Diamond(nil)
	e := NewFT(g, Config{})
	task := e.newTask(3, 0) // task 3 has preds [1, 2]
	if task.ft().bits.Len() != 3 || task.ft().bits.Count() != 3 {
		t.Fatalf("bits len=%d count=%d, want 3/3", task.ft().bits.Len(), task.ft().bits.Count())
	}
	if task.predIndex(1) != 0 || task.predIndex(2) != 1 || task.predIndex(3) != 2 {
		t.Fatal("predIndex mapping wrong")
	}
	// What the descriptor resolves once: output ref, block slot, an empty
	// notify array.
	if task.out != g.Output(3) || task.slot != e.store.Slot(task.out.Block) {
		t.Fatalf("out=%v slot=%p, want %v and the store's slot", task.out, task.slot, g.Output(3))
	}
	if len(task.notify) != 0 {
		t.Fatalf("notify array starts with %d entries", len(task.notify))
	}
}

func TestPredIndexPanicsOnStranger(t *testing.T) {
	e := NewFT(graph.Diamond(nil), Config{})
	task := e.newTask(3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("predIndex of non-predecessor should panic")
		}
	}()
	task.predIndex(0)
}

func TestCheckPoisoned(t *testing.T) {
	e := NewFT(graph.Diamond(nil), Config{})
	task := e.newTask(0, 2)
	if err := task.check(); err != nil {
		t.Fatalf("clean task check: %v", err)
	}
	task.mark(poisoned)
	err := task.check()
	if err == nil || !strings.Contains(err.Error(), "task 0") || !strings.Contains(err.Error(), "life 2") {
		t.Fatalf("poisoned check: %v", err)
	}
}

func TestStatusStrings(t *testing.T) {
	if Visited.String() != "Visited" || Computed.String() != "Computed" ||
		Completed.String() != "Completed" {
		t.Fatal("status strings wrong")
	}
	if !strings.Contains(Status(42).String(), "42") {
		t.Fatal("unknown status string")
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).workers() != 1 || (Config{Workers: 7}).workers() != 7 {
		t.Fatal("workers default wrong")
	}
	st := (Config{}).newStore()
	for v := 0; v < 3; v++ {
		st.Write(0, v, 0, []float64{1})
	}
	if _, err := st.Read(0, 0); err != nil {
		t.Fatalf("store retention default is not unlimited: %v", err)
	}
	if (Config{VerifyChecksums: true}).newStore() == nil {
		t.Fatal("verified store nil")
	}
}

// TestBaselineRejectsPlan: NABBIT has no recovery, so nothing could act on an
// injected fault or on a replica's digest mismatch.
func TestBaselineRejectsPlan(t *testing.T) {
	g := graph.Diamond(nil)
	for name, cfg := range map[string]Config{
		"plan":      {Plan: planWithOneFault()},
		"replicate": {Replicate: replicateAll(g)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("baseline with a %s should panic", name)
				}
			}()
			NewBaseline(g, cfg)
		})
	}
}

func TestRecorderDiff(t *testing.T) {
	g := graph.Chain(4, nil)
	rec := NewRecorder(g)
	seq := NewSequential(rec, 0)
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	outs := rec.Outputs()
	if len(outs) != 4 {
		t.Fatalf("recorded %d outputs", len(outs))
	}
	if d := rec.Diff(outs); d != "" {
		t.Fatalf("self-diff: %s", d)
	}
	// Perturbations are reported.
	mut := map[graph.Key][]float64{}
	for k, v := range outs {
		mut[k] = append([]float64(nil), v...)
	}
	mut[2][0] += 1
	if d := rec.Diff(mut); d == "" {
		t.Fatal("value diff not detected")
	}
	delete(mut, 2)
	if d := rec.Diff(mut); d == "" {
		t.Fatal("cardinality diff not detected")
	}
	mut[2] = []float64{1, 2}
	if d := rec.Diff(mut); d == "" {
		t.Fatal("length diff not detected")
	}
}

func TestSequentialRejectsCycle(t *testing.T) {
	g := graph.NewStatic(nil)
	g.AddTaskAuto(0).AddTaskAuto(1)
	g.AddEdge(0, 1).AddEdge(1, 0)
	g.SetSink(1)
	if _, err := NewSequential(g, 0).Run(); err == nil {
		t.Fatal("sequential executor accepted a cyclic graph")
	}
}

// planWithOneFault builds a minimal plan without importing fault in the
// main test body twice.
func planWithOneFault() *fault.Plan {
	return fault.NewPlan().Add(1, fault.AfterCompute, 1)
}

func TestRunCancellation(t *testing.T) {
	t.Run("FT", func(t *testing.T) { testRunCancellation(t, NewFT) })
	t.Run("NABBIT", func(t *testing.T) { testRunCancellation(t, NewBaseline) })
}

func testRunCancellation[S state](t *testing.T, newExec func(graph.Spec, Config) *exec[S]) {
	// Cancelling must abort the run promptly with ErrCancelled. Every
	// compute holds its worker until the run has observed the cancel (the
	// group is aborted); releasing the computes on the test's own clock
	// instead would let the four-task chain finish first now and then.
	var e *exec[S]
	g := graph.NewStatic(func(key graph.Key, vals [][]float64) []float64 {
		for deadline := time.Now().Add(10 * time.Second); !e.group.Aborted() && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		return []float64{1}
	})
	for i := 0; i < 4; i++ {
		g.AddTaskAuto(graph.Key(i))
		if i > 0 {
			g.AddEdge(graph.Key(i-1), graph.Key(i))
		}
	}
	g.SetSink(3)
	cancel := make(chan struct{})
	e = newExec(g, Config{Workers: 2, Cancel: cancel})
	done := make(chan error, 1)
	go func() {
		_, err := e.Run()
		done <- err
	}()
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("cancellation did not abort the run")
	}
}

func TestRunWithoutCancelUnaffected(t *testing.T) {
	g := graph.Chain(10, nil)
	cancel := make(chan struct{}) // never closed
	res, err := NewFT(g, Config{Workers: 2, Cancel: cancel, Timeout: testTimeout}).Run()
	if err != nil || res.Sink[0] != 10 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}
