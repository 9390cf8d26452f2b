package fault

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"ftdag/internal/graph"
)

func TestErrorIdentity(t *testing.T) {
	err := Errorf(42, 3)
	var fe *Error
	if !errors.As(error(err), &fe) || fe.Key != 42 || fe.Life != 3 {
		t.Fatalf("Error round trip failed: %+v", fe)
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestPlanFireOncePerLife(t *testing.T) {
	p := NewPlan().Add(1, AfterCompute, 2)
	if !p.Fire(1, 0, AfterCompute) {
		t.Fatal("first fire of life 0 failed")
	}
	if p.Fire(1, 0, AfterCompute) {
		t.Fatal("second fire of life 0 succeeded")
	}
	if !p.Fire(1, 1, AfterCompute) {
		t.Fatal("fire of life 1 failed (Lives=2)")
	}
	if p.Fire(1, 2, AfterCompute) {
		t.Fatal("fire of life 2 succeeded (Lives=2)")
	}
	if p.Fire(1, 0, BeforeCompute) {
		t.Fatal("fire at wrong point succeeded")
	}
	if p.Fire(2, 0, AfterCompute) {
		t.Fatal("fire of unplanned key succeeded")
	}
}

func TestNilPlanNeverFires(t *testing.T) {
	var p *Plan
	if p.Fire(1, 0, AfterCompute) {
		t.Fatal("nil plan fired")
	}
	if p.Len() != 0 {
		t.Fatal("nil plan counts nonzero")
	}
}

func TestPlanFireConcurrentSingleWinner(t *testing.T) {
	p := NewPlan().Add(7, BeforeCompute, 1)
	const goroutines = 16
	var wg sync.WaitGroup
	wins := make(chan bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins <- p.Fire(7, 0, BeforeCompute)
		}()
	}
	wg.Wait()
	close(wins)
	n := 0
	for w := range wins {
		if w {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d concurrent fires succeeded, want 1", n)
	}
}

func TestSelectTasksTypes(t *testing.T) {
	// VersionChain: writers 0..5 produce versions 0..5 of block 0;
	// readers 6..11 and sink 12 produce version 0 of their own blocks.
	g := graph.VersionChain(6, nil)
	v0 := SelectTasks(g, V0, 100, 1)
	// v=0 tasks: writer 0 plus every reader (each is version 0 of its own
	// block); the sink is excluded.
	if len(v0) != 7 {
		t.Fatalf("V0 selected %d tasks, want 7: %v", len(v0), v0)
	}
	for _, k := range v0 {
		if k == g.Sink() {
			t.Fatal("V0 selection includes the sink")
		}
	}
	vlast := SelectTasks(g, VLast, 100, 1)
	// v=last: writer 5 (last version of block 0) plus all single-version
	// readers.
	found5 := false
	for _, k := range vlast {
		if k == 5 {
			found5 = true
		}
		if k >= 1 && k <= 4 {
			t.Fatalf("VLast selected middle-version writer %d", k)
		}
	}
	if !found5 {
		t.Fatalf("VLast missed writer 5: %v", vlast)
	}
}

func TestSelectTasksDeterministicAndBounded(t *testing.T) {
	g := graph.Layered(5, 10, 3, 3, nil)
	a := SelectTasks(g, VRand, 10, 42)
	b := SelectTasks(g, VRand, 10, 42)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("selected %d/%d, want 10", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different selections")
		}
	}
	c := SelectTasks(g, VRand, 10, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical selections")
	}
	// Distinctness.
	seen := map[graph.Key]bool{}
	for _, k := range a {
		if seen[k] {
			t.Fatalf("duplicate selection %d", k)
		}
		seen[k] = true
	}
}

func TestSelectTasksExcludesSink(t *testing.T) {
	g := graph.Chain(4, nil)
	all := SelectTasks(g, AnyTask, 100, 1)
	if len(all) != 3 {
		t.Fatalf("selected %d, want 3 (sink excluded)", len(all))
	}
}

func TestPlanCountAndFraction(t *testing.T) {
	g := graph.Layered(6, 10, 3, 5, nil) // 61 tasks
	p := PlanCount(g, VRand, AfterCompute, 8, 1)
	if p.Len() != 8 {
		t.Fatalf("PlanCount built %d injections, want 8", p.Len())
	}
	pf := PlanFraction(g, VRand, AfterCompute, 0.05, 1)
	if pf.Len() != 3 { // 61*0.05 = 3.05 → 3
		t.Fatalf("PlanFraction built %d injections, want 3", pf.Len())
	}
	for _, k := range p.Keys() {
		if k == g.Sink() {
			t.Fatal("plan includes sink")
		}
	}
}

func TestPointAndTypeStrings(t *testing.T) {
	if BeforeCompute.String() != "before compute" ||
		AfterCompute.String() != "after compute" ||
		AfterNotify.String() != "after notify" ||
		NoPoint.String() != "none" {
		t.Fatal("Point strings wrong")
	}
	if V0.String() != "v=0" || VLast.String() != "v=last" ||
		VRand.String() != "v=rand" || AnyTask.String() != "any" {
		t.Fatal("TaskType strings wrong")
	}
}

func TestAddValidatesLives(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(lives=0) should panic")
		}
	}()
	NewPlan().Add(1, AfterCompute, 0)
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := NewPlan().
		Add(5, BeforeCompute, 1).
		Add(2, AfterCompute, 3).
		Add(9, AfterNotify, 2)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("round trip lost injections: %d", back.Len())
	}
	// Fired state is not serialized: the restored plan fires fresh.
	if !back.Fire(2, 0, AfterCompute) || !back.Fire(2, 1, AfterCompute) || !back.Fire(2, 2, AfterCompute) {
		t.Fatal("restored plan did not fire lives 0..2 of task 2")
	}
	if back.Fire(2, 3, AfterCompute) {
		t.Fatal("restored plan fired beyond Lives")
	}
	if !back.Fire(5, 0, BeforeCompute) || back.Fire(5, 0, AfterCompute) {
		t.Fatal("restored plan point mismatch")
	}
	// Deterministic output ordering (sorted keys).
	data2, _ := json.Marshal(&back)
	if string(data) != string(data2) {
		t.Fatalf("non-deterministic serialization:\n%s\n%s", data, data2)
	}
}

func TestPlanJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"injections":[{"key":1,"point":"sideways","lives":1}]}`,
		`{"injections":[{"key":1,"point":"after-compute","lives":0}]}`,
		`{"injections":[{"key":1,"point":"after-compute","lives":99}]}`,
		`{"injections":[{"key":1,"point":"after-compute","lives":1},{"key":1,"point":"after-notify","lives":1}]}`,
		`{"injections":`,
	}
	for _, c := range cases {
		var p Plan
		if err := json.Unmarshal([]byte(c), &p); err == nil {
			t.Fatalf("accepted bad plan %s", c)
		}
	}
}

func TestParsePoint(t *testing.T) {
	for _, name := range []string{"before-compute", "after-compute", "after-notify"} {
		if _, err := ParsePoint(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ParsePoint("nope"); err == nil {
		t.Fatal("accepted unknown point")
	}
}
