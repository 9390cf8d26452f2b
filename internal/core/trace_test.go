package core

import (
	"testing"
	"time"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/trace"
)

// runSpanned runs g under FT, with hooks h, with a span recorder and returns
// the spans the executor emitted, in emission order, with the run's result.
func runSpanned(t *testing.T, g graph.Spec, cfg Config, h hooks) ([]trace.Span, *Result) {
	t.Helper()
	cfg.Spans = trace.NewSpans("test", 1<<16)
	cfg.SpanCtx = trace.SpanContext{Trace: trace.NewTraceID()}
	cfg.Timeout = testTimeout
	e := NewFT(g, cfg)
	e.hooks = h
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Spans.Snapshot(), res
}

// TestTraceFaultFreeRun checks the spans of a clean execution: one compute
// span per task, none of them failed, and no injection or recovery.
func TestTraceFaultFreeRun(t *testing.T) {
	g := graph.Layered(4, 5, 2, 3, nil)
	spans, res := runSpanned(t, g, Config{Workers: 2}, hooks{})
	computed := map[int64]bool{}
	for _, sp := range spans {
		switch {
		case sp.Name != "compute":
			t.Fatalf("unexpected %s span in a fault-free run: %+v", sp.Name, sp)
		case sp.Arg != 0 || computed[sp.Task]:
			t.Fatalf("compute span %+v: failed, or the task's second", sp)
		}
		computed[sp.Task] = true
	}
	if props := graph.Analyze(g); len(computed) != props.Tasks || int64(len(spans)) != res.Metrics.Computes {
		t.Fatalf("%d compute spans over %d tasks; want one per task (%d) and per compute (%d)",
			len(spans), len(computed), props.Tasks, res.Metrics.Computes)
	}
}

// TestTraceRecoverySequence checks the causal order of the spans of a single
// after-compute fault: the injection into life 0, the compute it failed, the
// recovery into life 1 and that incarnation's successful compute.
func TestTraceRecoverySequence(t *testing.T) {
	const victim = 4
	plan := fault.NewPlan().Add(victim, fault.AfterCompute, 1)
	spans, _ := runSpanned(t, graph.Chain(10, nil), Config{Workers: 2, Plan: plan}, hooks{})
	var hist []trace.Span
	for _, sp := range spans {
		if sp.Task == victim {
			hist = append(hist, sp)
		}
	}
	want := []struct {
		name      string
		life, arg int64
	}{{"inject", 0, 1}, {"compute", 0, 1}, {"recover", 1, 0}, {"compute", 1, 0}}
	if len(hist) != len(want) {
		t.Fatalf("victim's spans %+v, want %v", hist, want)
	}
	// Life 1's compute may be stolen and finish before the recovering
	// worker emits the recover span: compare it apart from the order.
	if hist[2].Name == "compute" {
		hist[2], hist[3] = hist[3], hist[2]
	}
	for i, w := range want {
		if sp := hist[i]; sp.Name != w.name || int64(sp.Life) != w.life || sp.Arg != w.arg {
			t.Fatalf("victim's span %d = %+v, want %s of life %d with arg %d", i, sp, w.name, w.life, w.arg)
		}
	}
}

// TestTracePaperWalkthrough reproduces §II on the Figure 1 graph with reuse
// (C overwrites A's block). B fails after notifying; the run must mark an
// overwritten version and recover B.
func TestTracePaperWalkthrough(t *testing.T) {
	const B = 1
	var hookRecovered bool
	plan := fault.NewPlan().Add(B, fault.AfterNotify, 1)
	spans, res := runSpanned(t, graph.PaperExample(true, nil), Config{Workers: 1, Retention: 1, Plan: plan},
		hooks{onRecover: func(key graph.Key, _ int) { hookRecovered = hookRecovered || key == B }})
	if res.Metrics.OverwriteMarks < 1 {
		t.Fatalf("no overwritten version marked: %+v", res.Metrics)
	}
	spanRecovered := false
	for _, sp := range spans {
		spanRecovered = spanRecovered || sp.Name == "recover" && sp.Task == B
	}
	if !spanRecovered || !hookRecovered {
		t.Fatalf("B recovered: recover span %v, onRecover %v", spanRecovered, hookRecovered)
	}
}

// TestTraceDisabledCostsNothing just exercises the nil-recorder path end to end.
func TestTraceDisabledCostsNothing(t *testing.T) {
	g := graph.Diamond(nil)
	res, err := NewFT(g, Config{Workers: 1, Timeout: 5 * time.Second}).Run()
	if err != nil || res.Metrics.Computes != 4 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}
