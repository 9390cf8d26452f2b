package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/trace"
)

const testTimeout = 30 * time.Second

// groundTruth runs the spec sequentially and returns the per-task outputs.
func groundTruth(t *testing.T, spec graph.Spec, retention int) (map[graph.Key][]float64, []float64) {
	t.Helper()
	rec := NewRecorder(spec)
	seq := NewSequential(rec, retention)
	res, err := seq.Run()
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return rec.Outputs(), res.Sink
}

// runFT runs the spec under the FT executor and fails the test on error.
func runFT(t *testing.T, spec graph.Spec, cfg Config) *Result {
	t.Helper()
	return runFTOn(t, "sched", spec, cfg)
}

// runFTOn is runFT on the named pool (pools).
func runFTOn(t *testing.T, pool string, spec graph.Spec, cfg Config) *Result {
	t.Helper()
	cfg.Timeout = testTimeout
	cfg.VerifyChecksums = true
	res, err := runPool(pool, NewFT(spec, cfg))
	if err != nil {
		t.Fatalf("FT run: %v", err)
	}
	return res
}

// verifyFT runs FT and checks every task's recorded output against the
// sequential ground truth (Theorem 1, per-task form).
func verifyFT(t *testing.T, spec graph.Spec, cfg Config) *Result {
	t.Helper()
	return verifyFTOn(t, "sched", spec, cfg)
}

// verifyFTOn is verifyFT on the named pool (pools).
func verifyFTOn(t *testing.T, pool string, spec graph.Spec, cfg Config) *Result {
	t.Helper()
	want, _ := groundTruth(t, spec, cfg.Retention)
	rec := NewRecorder(spec)
	res := runFTOn(t, pool, rec, cfg)
	if d := rec.Diff(want); d != "" {
		t.Fatalf("output diverged from sequential: %s", d)
	}
	return res
}

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

func TestFTFaultFree(t *testing.T) {
	for name, g := range syntheticGraphs() {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", name, p), func(t *testing.T) {
				res := verifyFT(t, g, Config{Workers: p})
				props := graph.Analyze(g)
				if res.Tasks != props.Tasks {
					t.Fatalf("Tasks = %d, want %d", res.Tasks, props.Tasks)
				}
				if res.Metrics.Computes != int64(props.Tasks) {
					t.Fatalf("Computes = %d, want %d (no re-execution without faults)",
						res.Metrics.Computes, props.Tasks)
				}
				if res.Metrics.Recoveries != 0 || res.Metrics.Resets != 0 {
					t.Fatalf("spurious recovery activity: %v", res.Metrics)
				}
			})
		}
	}
}

func TestFTFaultFreeWithReuse(t *testing.T) {
	// The version chain under retention 1 is the paper's reuse scenario;
	// without faults there must be no spurious recoveries (the spec's
	// dependences protect the reuse).
	g := graph.VersionChain(10, nil)
	for _, p := range []int{1, 3} {
		res := verifyFT(t, g, Config{Workers: p, Retention: 1})
		if res.Metrics.Recoveries != 0 {
			t.Fatalf("P=%d: reuse caused %d recoveries without faults", p, res.Metrics.Recoveries)
		}
	}
}

// TestFTEverySingleFault injects one fault at a time, on every task, at
// every lifetime point, and verifies the exact per-task outputs.
func TestFTEverySingleFault(t *testing.T) {
	for name, g := range syntheticGraphs() {
		props := graph.Analyze(g)
		if props.Tasks > 70 {
			continue // keep the exhaustive sweep fast
		}
		want, _ := groundTruth(t, g, 0)
		for _, point := range []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify} {
			for _, key := range graph.Enumerate(g) {
				if point == fault.AfterNotify && key == g.Sink() {
					continue // nothing consumes the sink: by design not recovered
				}
				t.Run(fmt.Sprintf("%s/%v/task%d", name, point, key), func(t *testing.T) {
					for _, pool := range pools {
						t.Run(pool, func(t *testing.T) {
							plan := fault.NewPlan().Add(key, point, 1)
							rec := NewRecorder(g)
							res := runFTOn(t, pool, rec, Config{Workers: 2, Plan: plan})
							if d := rec.Diff(want); d != "" {
								t.Fatalf("diverged: %s", d)
							}
							if res.Metrics.InjectionsFired != 1 {
								t.Fatalf("injections fired = %d, want 1", res.Metrics.InjectionsFired)
							}
						})
					}
				})
			}
		}
	}
}

// TestFTAllTasksFail injects an after-compute fault on every non-sink task
// simultaneously.
func TestFTAllTasksFail(t *testing.T) {
	for name, g := range syntheticGraphs() {
		t.Run(name, func(t *testing.T) {
			plan := fault.NewPlan()
			n := 0
			for _, key := range graph.Enumerate(g) {
				if key == g.Sink() {
					continue
				}
				plan.Add(key, fault.AfterCompute, 1)
				n++
			}
			res := verifyFT(t, g, Config{Workers: 4, Plan: plan})
			if res.Metrics.InjectionsFired != int64(n) {
				t.Fatalf("fired %d, want %d", res.Metrics.InjectionsFired, n)
			}
			if res.Metrics.Recoveries < int64(n) {
				t.Fatalf("recoveries = %d, want >= %d", res.Metrics.Recoveries, n)
			}
		})
	}
}

// TestFTRecursiveRecovery exercises Guarantee 6: tasks fail again while
// being recovered, several times.
func TestFTRecursiveRecovery(t *testing.T) {
	g := graph.Layered(5, 6, 3, 17, nil)
	want, _ := groundTruth(t, g, 0)
	for _, lives := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("lives=%d", lives), func(t *testing.T) {
			for _, pool := range pools {
				t.Run(pool, func(t *testing.T) {
					plan := fault.NewPlan()
					keys := fault.SelectTasks(g, fault.AnyTask, 6, int64(lives))
					for _, k := range keys {
						plan.Add(k, fault.AfterCompute, lives)
					}
					rec := NewRecorder(g)
					res := runFTOn(t, pool, rec, Config{Workers: 3, Plan: plan})
					if d := rec.Diff(want); d != "" {
						t.Fatalf("diverged: %s", d)
					}
					wantFired := int64(len(keys) * lives)
					if res.Metrics.InjectionsFired != wantFired {
						t.Fatalf("fired %d, want %d", res.Metrics.InjectionsFired, wantFired)
					}
				})
			}
		})
	}
}

// TestFTGuarantee1AtMostOnceRecovery asserts that each incarnation is
// recovered at most once, via the recover spans, one per replaceTask:
// replaceTask assigns strictly increasing life numbers per key, so a
// duplicate (key, life) would mean two recoveries raced for the same
// incarnation.
func TestFTGuarantee1AtMostOnceRecovery(t *testing.T) {
	g := graph.Layered(6, 8, 3, 23, nil)
	plan := fault.NewPlan()
	for _, k := range fault.SelectTasks(g, fault.AnyTask, 20, 9) {
		plan.Add(k, fault.AfterCompute, 2)
	}
	cfg := Config{Workers: 4, Plan: plan, Spans: trace.NewSpans("test", 1<<16)}
	verifyFT(t, g, cfg)
	seen := map[string]int{}
	for _, sp := range cfg.Spans.Snapshot() {
		if sp.Name == "recover" {
			seen[fmt.Sprintf("%d/%d", sp.Task, sp.Life)]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("incarnation %s created %d times", id, n)
		}
	}
}

// TestFTPaperScenario reproduces §II's walkthrough on the Figure 1 graph
// with reuse: task C writes version 1 of A's block; B fails after compute.
// Recovery of B must cascade to A (whose output C overwrote) and still
// produce the correct sink value.
func TestFTPaperScenario(t *testing.T) {
	g := graph.PaperExample(true, nil)
	want, _ := groundTruth(t, g, 1)
	const B = 1
	plan := fault.NewPlan().Add(B, fault.AfterNotify, 1)
	rec := NewRecorder(g)
	res := runFT(t, rec, Config{Workers: 2, Retention: 1, Plan: plan})
	if d := rec.Diff(want); d != "" {
		t.Fatalf("diverged: %s", d)
	}
	_ = res
}

// TestFTCascadingReexecution: on the version chain with retention 1, a
// fault on the last writer forces recomputation of earlier versions — the
// paper's re-execution chain (§VI-C). The late reader of the corrupted
// version observes it and triggers the cascade.
func TestFTCascadingReexecution(t *testing.T) {
	const n = 8
	g := graph.VersionChain(n, nil)
	want, _ := groundTruth(t, g, 1)
	// Writer n-1 produces the last version; its reader (2n-2... reader of
	// version i is task n+i) consumes it during compute.
	plan := fault.NewPlan().Add(graph.Key(n-1), fault.AfterNotify, 1)
	rec := NewRecorder(g)
	res := runFT(t, rec, Config{Workers: 1, Retention: 1, Plan: plan})
	if d := rec.Diff(want); d != "" {
		t.Fatalf("diverged: %s", d)
	}
	if res.Metrics.Recoveries == 0 {
		t.Fatal("expected at least one recovery")
	}
	_ = want
}

// TestFTOverwriteCascade forces the overwritten-version path explicitly: a
// mid-chain writer fails after notify, and by the time its failure is
// observed, later versions have replaced its output.
func TestFTOverwriteCascade(t *testing.T) {
	const n = 10
	g := graph.VersionChain(n, nil)
	want, _ := groundTruth(t, g, 1)
	for mid := 1; mid < n; mid += 3 {
		t.Run(fmt.Sprintf("writer%d", mid), func(t *testing.T) {
			plan := fault.NewPlan().Add(graph.Key(mid), fault.AfterNotify, 1)
			rec := NewRecorder(g)
			res := runFT(t, rec, Config{Workers: 2, Retention: 1, Plan: plan})
			if d := rec.Diff(want); d != "" {
				t.Fatalf("diverged: %s", d)
			}
			_ = res
		})
	}
}

// TestFTMixedPoints scatters faults of all three kinds across the graph.
func TestFTMixedPoints(t *testing.T) {
	g := graph.Layered(7, 7, 3, 31, nil)
	want, _ := groundTruth(t, g, 0)
	points := []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify}
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, pool := range pools {
				t.Run(pool, func(t *testing.T) {
					plan := fault.NewPlan()
					keys := fault.SelectTasks(g, fault.AnyTask, 15, seed)
					for i, k := range keys {
						plan.Add(k, points[i%len(points)], 1+i%3)
					}
					rec := NewRecorder(g)
					runFTOn(t, pool, rec, Config{Workers: 4, Plan: plan})
					if d := rec.Diff(want); d != "" {
						t.Fatalf("diverged: %s", d)
					}
				})
			}
		})
	}
}

// TestFTBeforeComputeLosesNoWork: before-compute faults must not re-execute
// any user compute beyond the one per task (the failed incarnation never
// ran its compute).
func TestFTBeforeComputeLosesNoWork(t *testing.T) {
	g := graph.Chain(30, nil)
	plan := fault.NewPlan()
	for k := 5; k < 25; k += 5 {
		plan.Add(graph.Key(k), fault.BeforeCompute, 1)
	}
	res := verifyFT(t, g, Config{Workers: 2, Plan: plan})
	if res.ReexecutedTasks != 0 {
		t.Fatalf("before-compute faults re-executed %d computes, want 0", res.ReexecutedTasks)
	}
	if res.Metrics.Recoveries != 4 {
		t.Fatalf("recoveries = %d, want 4", res.Metrics.Recoveries)
	}
}

// TestFTAfterComputeReexecutesExactlyFailed: with single-assignment
// storage, each after-compute fault costs exactly one re-execution.
func TestFTAfterComputeReexecutesExactlyFailed(t *testing.T) {
	g := graph.Layered(6, 6, 2, 41, nil)
	plan := fault.NewPlan()
	keys := fault.SelectTasks(g, fault.AnyTask, 10, 3)
	for _, k := range keys {
		plan.Add(k, fault.AfterCompute, 1)
	}
	res := verifyFT(t, g, Config{Workers: 1, Plan: plan})
	if res.ReexecutedTasks != int64(len(keys)) {
		t.Fatalf("re-executed %d, want %d", res.ReexecutedTasks, len(keys))
	}
}

func TestFTSinkFaults(t *testing.T) {
	g := graph.Diamond(nil)
	for _, point := range []fault.Point{fault.BeforeCompute, fault.AfterCompute} {
		plan := fault.NewPlan().Add(g.Sink(), point, 1)
		res := verifyFT(t, g, Config{Workers: 2, Plan: plan})
		if res.Metrics.Recoveries != 1 {
			t.Fatalf("%v on sink: recoveries = %d, want 1", point, res.Metrics.Recoveries)
		}
	}
	// After-notify on the sink is by design unrecoverable (no consumer):
	// the run completes but the sink output is unreadable.
	plan := fault.NewPlan().Add(g.Sink(), fault.AfterNotify, 1)
	_, err := NewFT(graph.Diamond(nil), Config{Workers: 1, Plan: plan, Timeout: testTimeout}).Run()
	if err == nil {
		t.Fatal("expected sink-output-unreadable error")
	}
}

func TestFTSourceFaults(t *testing.T) {
	g := graph.Tree(4, nil)
	want, _ := groundTruth(t, g, 0)
	plan := fault.NewPlan()
	// All leaves (sources) fail after compute.
	total := (1 << 5) - 1
	for k := total / 2; k < total; k++ {
		plan.Add(graph.Key(k), fault.AfterCompute, 1)
	}
	rec := NewRecorder(g)
	runFT(t, rec, Config{Workers: 4, Plan: plan})
	if d := rec.Diff(want); d != "" {
		t.Fatalf("diverged: %s", d)
	}
}

func TestFTResultFields(t *testing.T) {
	g := graph.Chain(5, nil)
	res := runFT(t, g, Config{Workers: 1})
	if res.Elapsed <= 0 {
		t.Fatal("non-positive elapsed time")
	}
	if len(res.Sink) != 1 || res.Sink[0] != 5 {
		t.Fatalf("sink = %v, want [5]", res.Sink)
	}
	if res.String() == "" || res.Metrics.String() == "" {
		t.Fatal("empty result strings")
	}
	if _, ok := NewFT(g, Config{}).tasks.Load(0); ok {
		t.Fatal("a fresh executor holds a task descriptor")
	}
}

// TestFTTimeout: a compute that sleeps long enough trips the watchdog of
// either executor, and the error carries the stuck tasks.
func TestFTTimeout(t *testing.T) {
	g := graph.NewStatic(func(key graph.Key, vals [][]float64) []float64 {
		time.Sleep(200 * time.Millisecond)
		return []float64{1}
	})
	g.AddTaskAuto(0)
	g.SetSink(0)
	cfg := Config{Workers: 1, Timeout: 10 * time.Millisecond}
	for name, run := range map[string]func() (*Result, error){
		"FT":     NewFT(g, cfg).Run,
		"NABBIT": NewBaseline(g, cfg).Run,
	} {
		_, err := run()
		if !errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "1 incomplete task(s)") {
			t.Errorf("%s: err = %v, want ErrTimeout with the stuck task", name, err)
		}
	}
}

// TestFTStress hammers a moderately sized graph with many faults across
// many seeds and worker counts.
func TestFTStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := graph.Layered(8, 10, 4, 77, nil)
	want, _ := groundTruth(t, g, 0)
	points := []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify}
	for seed := int64(0); seed < 10; seed++ {
		plan := fault.NewPlan()
		keys := fault.SelectTasks(g, fault.AnyTask, 30, seed)
		for i, k := range keys {
			plan.Add(k, points[(i+int(seed))%3], 1+i%2)
		}
		rec := NewRecorder(g)
		runFT(t, rec, Config{Workers: 1 + int(seed)%4, Plan: plan})
		if d := rec.Diff(want); d != "" {
			t.Fatalf("seed %d diverged: %s", seed, d)
		}
	}
}
