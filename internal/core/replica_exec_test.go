package core

import (
	"fmt"
	"testing"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/replica"
)

func replicateAll(g graph.Spec) *replica.Set {
	return replica.Select(g, replica.Policy{Budget: 1})
}

func TestSelectiveReplicationFaultFree(t *testing.T) {
	for name, g := range syntheticGraphs() {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", name, p), func(t *testing.T) {
				res := verifyFT(t, g, Config{Workers: p, Replicate: replicateAll(g)})
				props := graph.Analyze(g)
				if res.Metrics.Computes != int64(props.Tasks) {
					t.Fatalf("Computes = %d, want %d", res.Metrics.Computes, props.Tasks)
				}
				if res.ReexecutedTasks != 0 {
					t.Fatalf("ReexecutedTasks = %d, want 0 (shadows must not count)", res.ReexecutedTasks)
				}
				if res.Metrics.ShadowComputes != int64(props.Tasks) {
					t.Fatalf("ShadowComputes = %d, want %d", res.Metrics.ShadowComputes, props.Tasks)
				}
				if res.Metrics.ReplicatedTasks != int64(props.Tasks) {
					t.Fatalf("ReplicatedTasks = %d, want %d", res.Metrics.ReplicatedTasks, props.Tasks)
				}
				if res.Metrics.SDCDetected != 0 {
					t.Fatalf("spurious SDC detections: %v", res.Metrics)
				}
				// The paper's resource-utilization argument (§VII): replication
				// executes every task twice before any fault, FT alone once.
				ft, all := runFT(t, g, Config{Workers: p}).Metrics, res.Metrics
				if ft.Computes+ft.ShadowComputes != int64(props.Tasks) ||
					all.Computes+all.ShadowComputes != 2*int64(props.Tasks) {
					t.Fatalf("executions: FT alone %d, replicate-all %d, want %d and 2·%d",
						ft.Computes+ft.ShadowComputes, all.Computes+all.ShadowComputes, props.Tasks, props.Tasks)
				}
			})
		}
	}
}

func TestSDCDetectedAndRecovered(t *testing.T) {
	g := graph.Layered(6, 8, 3, 11, nil)
	set := replicateAll(g)
	victims := fault.SelectTasks(g, fault.AnyTask, 3, 7)
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			for _, pool := range pools {
				t.Run(pool, func(t *testing.T) {
					plan := fault.NewPlan() // a plan fires once: one per run
					for _, k := range victims {
						plan.Add(k, fault.SDC, 1)
					}
					res := verifyFTOn(t, pool, g, Config{Workers: p, Plan: plan, Replicate: set})
					m := res.Metrics
					if m.SDCInjected != int64(len(victims)) {
						t.Fatalf("SDCInjected = %d, want %d", m.SDCInjected, len(victims))
					}
					if m.SDCDetected != m.SDCInjected {
						t.Fatalf("SDCDetected = %d, want %d (full replication must catch every SDC)",
							m.SDCDetected, m.SDCInjected)
					}
					if m.SDCMissed != 0 {
						t.Fatalf("SDCMissed = %d, want 0", m.SDCMissed)
					}
					if m.Recoveries < int64(len(victims)) {
						t.Fatalf("Recoveries = %d, want >= %d (each detection re-executes)",
							m.Recoveries, len(victims))
					}
				})
			}
		})
	}
}

func TestSDCMissedWithoutReplication(t *testing.T) {
	g := graph.Chain(10, nil)
	want, cleanSink := groundTruth(t, g, 0)
	_ = want
	plan := fault.NewPlan().Add(4, fault.SDC, 1)
	res := runFT(t, g, Config{Workers: 2, Plan: plan})
	m := res.Metrics
	if m.SDCInjected != 1 || m.SDCMissed != 1 || m.SDCDetected != 0 {
		t.Fatalf("SDC accounting = injected %d detected %d missed %d, want 1/0/1",
			m.SDCInjected, m.SDCDetected, m.SDCMissed)
	}
	// Negative control: the corruption must actually propagate to the sink,
	// otherwise the detection experiments prove nothing.
	if len(res.Sink) == len(cleanSink) {
		same := true
		for i := range res.Sink {
			if res.Sink[i] != cleanSink[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("undetected SDC did not corrupt the sink output")
		}
	}
}

func TestSelectiveCoverageBoundary(t *testing.T) {
	// Inject SDC on one covered and one uncovered task; exactly the covered
	// one must be detected.
	g := graph.Layered(5, 6, 3, 3, nil)
	set := replica.Select(g, replica.Policy{Budget: 0.5})
	var covered, uncovered graph.Key = -1, -1
	for _, k := range fault.SelectTasks(g, fault.AnyTask, graph.Analyze(g).Tasks, 1) {
		if set.Contains(k) && covered < 0 {
			covered = k
		}
		if !set.Contains(k) && uncovered < 0 {
			uncovered = k
		}
	}
	if covered < 0 || uncovered < 0 {
		t.Fatalf("budget 0.5 did not split the tasks: covered=%d uncovered=%d", covered, uncovered)
	}
	plan := fault.NewPlan().Add(covered, fault.SDC, 1).Add(uncovered, fault.SDC, 1)
	res := runFT(t, g, Config{Workers: 4, Plan: plan, Replicate: set})
	m := res.Metrics
	if m.SDCInjected != 2 || m.SDCDetected != 1 || m.SDCMissed != 1 {
		t.Fatalf("SDC accounting = injected %d detected %d missed %d, want 2/1/1",
			m.SDCInjected, m.SDCDetected, m.SDCMissed)
	}
}

func TestReplicationComposesWithDetectedFaults(t *testing.T) {
	// Replication and classic detected-fault recovery must coexist: storm
	// before/after-compute faults onto a fully replicated run and verify
	// the output still matches the sequential reference.
	g := graph.Layered(6, 8, 3, 21, nil)
	set := replicateAll(g)
	plan := fault.PlanCount(g, fault.AnyTask, fault.AfterCompute, 6, 5)
	for _, k := range fault.SelectTasks(g, fault.AnyTask, 4, 9) {
		if plan.Len() < 10 {
			plan.Add(k, fault.BeforeCompute, 1)
		}
	}
	res := verifyFT(t, g, Config{Workers: 4, Plan: plan, Replicate: set})
	if res.Metrics.Recoveries == 0 {
		t.Fatalf("no recoveries despite %d planned faults", plan.Len())
	}
}
