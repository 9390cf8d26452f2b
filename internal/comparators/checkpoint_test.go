package comparators

import (
	"testing"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

const testTimeout = 30 * time.Second

// groundTruth runs the spec sequentially and returns the per-task outputs.
func groundTruth(t *testing.T, spec graph.Spec) map[graph.Key][]float64 {
	t.Helper()
	rec := core.NewRecorder(spec)
	if _, err := core.NewSequential(rec, 0).Run(); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return rec.Outputs()
}

// syntheticGraphs are the shapes internal/core's executor tests run on.
func syntheticGraphs() map[string]graph.Spec {
	return map[string]graph.Spec{
		"chain":        graph.Chain(20, nil),
		"diamond":      graph.Diamond(nil),
		"paper":        graph.PaperExample(false, nil),
		"layered":      graph.Layered(6, 8, 3, 11, nil),
		"tree":         graph.Tree(6, nil),
		"versionchain": graph.VersionChain(8, nil),
		"single":       graph.Chain(1, nil),
	}
}

func TestCheckpointFaultFree(t *testing.T) {
	for name, g := range syntheticGraphs() {
		t.Run(name, func(t *testing.T) {
			want := groundTruth(t, g)
			rec := core.NewRecorder(g)
			res, stats, err := NewCheckpoint(rec, core.Config{Workers: 2, Timeout: testTimeout}, 2).Run()
			if err != nil {
				t.Fatal(err)
			}
			if d := rec.Diff(want); d != "" {
				t.Fatalf("diverged: %s", d)
			}
			if stats.Rollbacks != 0 {
				t.Fatalf("fault-free run rolled back %d times", stats.Rollbacks)
			}
			if stats.Checkpoints < 1 {
				t.Fatal("no checkpoints taken")
			}
			props := graph.Analyze(g)
			if res.Metrics.Computes != int64(props.Tasks) {
				t.Fatalf("computes = %d, want %d", res.Metrics.Computes, props.Tasks)
			}
		})
	}
}

func TestCheckpointRecoversFaults(t *testing.T) {
	g := graph.Layered(6, 6, 3, 5, nil)
	want := groundTruth(t, g)
	for _, interval := range []int{1, 2, 4} {
		plan := fault.NewPlan()
		for _, k := range fault.SelectTasks(g, fault.AnyTask, 5, 11) {
			plan.Add(k, fault.AfterCompute, 1)
		}
		rec := core.NewRecorder(g)
		res, stats, err := NewCheckpoint(rec, core.Config{Workers: 3, Plan: plan, Timeout: testTimeout}, interval).Run()
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if d := rec.Diff(want); d != "" {
			t.Fatalf("interval %d diverged: %s", interval, d)
		}
		if stats.Rollbacks == 0 {
			t.Fatalf("interval %d: faults caused no rollback", interval)
		}
		if res.ReexecutedTasks <= 0 {
			t.Fatalf("interval %d: rollback re-executed nothing", interval)
		}
	}
}

// TestCheckpointCostDominatesSelective is the paper's §II argument in
// miniature: for the same faults, collective rollback re-executes far more
// work than selective recovery.
func TestCheckpointCostDominatesSelective(t *testing.T) {
	g := graph.Layered(8, 8, 3, 9, nil)
	mkPlan := func() *fault.Plan {
		p := fault.NewPlan()
		for _, k := range fault.SelectTasks(g, fault.AnyTask, 6, 17) {
			p.Add(k, fault.AfterCompute, 1)
		}
		return p
	}
	ck, _, err := NewCheckpoint(g, core.Config{Workers: 2, Plan: mkPlan(), Timeout: testTimeout}, 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := core.NewFT(g, core.Config{Workers: 2, Plan: mkPlan(), Timeout: testTimeout}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ft.ReexecutedTasks != 6 {
		t.Fatalf("selective recovery re-executed %d, want exactly the 6 failed tasks", ft.ReexecutedTasks)
	}
	if ck.ReexecutedTasks <= ft.ReexecutedTasks {
		t.Fatalf("checkpoint re-executed %d, selective %d — comparator should cost more",
			ck.ReexecutedTasks, ft.ReexecutedTasks)
	}
}

func TestCheckpointIntervalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("interval 0 should panic")
		}
	}()
	NewCheckpoint(graph.Diamond(nil), core.Config{}, 0)
}

func TestBuildWaves(t *testing.T) {
	g := graph.Diamond(nil)
	order, _ := graph.TopoOrder(g)
	waves := buildWaves(g, order)
	if len(waves) != 3 {
		t.Fatalf("diamond has %d waves, want 3", len(waves))
	}
	if len(waves[0]) != 1 || len(waves[1]) != 2 || len(waves[2]) != 1 {
		t.Fatalf("wave sizes %d/%d/%d", len(waves[0]), len(waves[1]), len(waves[2]))
	}
}
