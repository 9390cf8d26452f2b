package core

import (
	"fmt"
	"testing"

	"ftdag/internal/graph"
)

// TestBaselineFaultFree runs the non-FT NABBIT executor over the synthetic
// graph zoo and checks per-task outputs against the sequential ground truth.
func TestBaselineFaultFree(t *testing.T) {
	for name, g := range syntheticGraphs() {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", name, p), func(t *testing.T) {
				want, _ := groundTruth(t, g, 0)
				rec := NewRecorder(g)
				res, err := NewBaseline(rec, Config{Workers: p, Timeout: testTimeout}).Run()
				if err != nil {
					t.Fatal(err)
				}
				if d := rec.Diff(want); d != "" {
					t.Fatalf("diverged: %s", d)
				}
				props := graph.Analyze(g)
				if res.Metrics.Computes != int64(props.Tasks) {
					t.Fatalf("computes = %d, want %d", res.Metrics.Computes, props.Tasks)
				}
				if res.Tasks != props.Tasks {
					t.Fatalf("tasks = %d, want %d", res.Tasks, props.Tasks)
				}
			})
		}
	}
}

// TestBaselineMatchesFT compares the two schedulers' outputs directly.
func TestBaselineMatchesFT(t *testing.T) {
	g := graph.Layered(6, 7, 3, 13, nil)
	for _, pool := range pools {
		t.Run(pool, func(t *testing.T) {
			b, err := runPool(pool, NewBaseline(g, Config{Workers: 3, Timeout: testTimeout}))
			if err != nil {
				t.Fatal(err)
			}
			f, err := runPool(pool, NewFT(g, Config{Workers: 3, Timeout: testTimeout}))
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Sink) != len(f.Sink) || b.Sink[0] != f.Sink[0] {
				t.Fatalf("baseline sink %v != FT sink %v", b.Sink, f.Sink)
			}
		})
	}
}

// TestBaselineWithReuse runs the baseline on the version-chain reuse graph;
// its dependences alone must protect the retention-1 store.
func TestBaselineWithReuse(t *testing.T) {
	g := graph.VersionChain(10, nil)
	want, _ := groundTruth(t, g, 1)
	rec := NewRecorder(g)
	res, err := NewBaseline(rec, Config{Workers: 4, Retention: 1, Timeout: testTimeout}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.Diff(want); d != "" {
		t.Fatalf("diverged: %s", d)
	}
	if res.Store.Evictions == 0 {
		t.Fatal("reuse store never evicted — retention not exercised")
	}
}

// TestExecutorAccessors covers the small read-only surface.
func TestExecutorAccessors(t *testing.T) {
	g := graph.Diamond(nil)
	ft := NewFT(g, Config{Timeout: testTimeout})
	if _, err := ft.Run(); err != nil {
		t.Fatal(err)
	}
	if task, ok := ft.tasks.Load(3); !ok || task.Status() != Completed {
		t.Fatalf("task 3 after the run: found %v", ok)
	}
	if ft.TasksDiscovered() != 4 {
		t.Fatalf("TasksDiscovered = %d, want the diamond's 4", ft.TasksDiscovered())
	}
	// Task accessors.
	task := ft.newTask(2, 3) // a descriptor needs a key the spec declares
	if task.key != 2 || task.Life() != 3 {
		t.Fatalf("accessors: key=%d life=%d", task.key, task.Life())
	}
	if ft.DumpStuck(4) == "" {
		t.Fatal("DumpStuck empty")
	}
}
