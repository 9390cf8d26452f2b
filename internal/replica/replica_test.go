package replica

import (
	"reflect"
	"testing"

	"ftdag/internal/graph"
)

// wideGraph builds a DAG where task 1 has a large fan-out and tasks 0→1→5
// form the (only) critical path alongside shallow side tasks:
//
//	0 → 1 → {2,3,4} → 5(sink), with 6 → 5 as a low-value side task.
func wideGraph() *graph.Static {
	g := graph.NewStatic(nil)
	for i := 0; i <= 6; i++ {
		g.AddTaskAuto(graph.Key(i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2).AddEdge(1, 3).AddEdge(1, 4)
	g.AddEdge(2, 5).AddEdge(3, 5).AddEdge(4, 5)
	g.AddEdge(6, 5)
	return g.SetSink(5)
}

func TestSelectDeterministic(t *testing.T) {
	g := graph.Layered(6, 8, 3, 42, nil)
	p := Policy{Budget: 0.3, Pinned: []graph.Key{5}}
	first := Select(g, p).Keys()
	for i := 0; i < 5; i++ {
		if got := Select(g, p).Keys(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: set %v != %v", i, got, first)
		}
	}
}

func TestSelectBudgetExtremes(t *testing.T) {
	g := graph.Layered(5, 6, 3, 7, nil)
	total := graph.Analyze(g).Tasks
	if s := Select(g, Policy{Budget: 0}); s.Len() != 0 {
		t.Fatalf("budget 0 selected %d tasks", s.Len())
	}
	if s := Select(g, Policy{Budget: 1}); s.Len() != total {
		t.Fatalf("budget 1 selected %d/%d tasks", s.Len(), total)
	}
}

func TestSelectBudgetFraction(t *testing.T) {
	g := graph.Layered(6, 8, 3, 11, nil)
	total := graph.Analyze(g).Tasks
	s := Select(g, Policy{Budget: 0.5})
	want := int(0.5*float64(total) + 0.5)
	if s.Len() != want {
		t.Fatalf("budget 0.5 selected %d, want %d of %d", s.Len(), want, total)
	}
}

func TestPinnedAlwaysIncluded(t *testing.T) {
	g := wideGraph()
	// Task 6 is the lowest-value task (fan-out 1, off the critical path);
	// pinning must force it in even at budget 0.
	s := Select(g, Policy{Budget: 0, Pinned: []graph.Key{6}})
	if !s.Contains(6) || s.Len() != 1 {
		t.Fatalf("pinned task not selected: %v", s.Keys())
	}
}

func TestRankPrefersFanOutAndCriticalPath(t *testing.T) {
	g := wideGraph()
	scores := Rank(g, Policy{})
	byKey := make(map[graph.Key]Score)
	for _, sc := range scores {
		byKey[sc.Key] = sc
	}
	if !byKey[1].Critical || byKey[1].FanOut != 3 {
		t.Fatalf("task 1 score = %+v", byKey[1])
	}
	if byKey[6].Critical {
		t.Fatalf("side task 6 marked critical: %+v", byKey[6])
	}
	// Task 1 (max fan-out + critical) must outrank the side task 6.
	if byKey[1].Value <= byKey[6].Value {
		t.Fatalf("task 1 value %v not above task 6 value %v", byKey[1].Value, byKey[6].Value)
	}
	// A small budget must therefore pick task 1 before task 6.
	s := Select(g, Policy{Budget: 0.15}) // 1 of 7 tasks
	if s.Len() != 1 || !s.Contains(1) {
		t.Fatalf("budget 0.15 selected %v, want [1]", s.Keys())
	}
}

func TestNilSetIsEmpty(t *testing.T) {
	var s *Set
	if s.Contains(0) || s.Len() != 0 || s.Keys() != nil {
		t.Fatal("nil set is not empty")
	}
}

func TestDigestSensitivity(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3}
	if Digest(a) != Digest(b) {
		t.Fatal("equal slices digest differently")
	}
	b[2] = 3.0000000001
	if Digest(a) == Digest(b) {
		t.Fatal("corrupted slice digests equal")
	}
	// The length prefix distinguishes payloads whose element hashes agree.
	if Digest(nil) == Digest([]float64{0}) {
		t.Fatal("length not mixed into digest")
	}
}
