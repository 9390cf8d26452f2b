// Command ftgraph executes a single benchmark task graph once and reports
// the run's timing, scheduler statistics, and recovery metrics. It is the
// workhorse for ad-hoc experiments:
//
//	ftgraph -app LU -n 512 -b 32 -p 4
//	ftgraph -app FW -n 192 -b 16 -p 2 -faults 50 -point after-compute -type v=rand
//	ftgraph -app SW -n 1024 -b 64 -executor baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/apps/chol"
	"ftdag/internal/apps/fw"
	"ftdag/internal/apps/lcs"
	"ftdag/internal/apps/lu"
	"ftdag/internal/apps/sw"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/trace"
)

var makers = map[string]apps.Maker{
	"LCS":      lcs.New,
	"SW":       sw.New,
	"FW":       fw.New,
	"LU":       lu.New,
	"Cholesky": chol.New,
}

func main() {
	var (
		app      = flag.String("app", "LU", "benchmark: LCS, SW, FW, LU, Cholesky")
		n        = flag.Int("n", 512, "problem size N (matrix/sequence dimension)")
		b        = flag.Int("b", 32, "tile size B (must divide N)")
		p        = flag.Int("p", 1, "worker count P")
		seed     = flag.Int64("seed", 1, "input generation seed")
		executor = flag.String("executor", "ft", "executor: ft, baseline, seq")
		faults   = flag.Int("faults", 0, "number of faults to inject (ft only)")
		point    = flag.String("point", "after-compute", "injection point: before-compute, after-compute, after-notify")
		taskType = flag.String("type", "v=rand", "task type: v=0, v=last, v=rand, any")
		lives    = flag.Int("lives", 1, "incarnations to corrupt per fault (recursive-recovery stress)")
		fseed    = flag.Int64("fseed", 7, "fault-site selection seed")
		verify   = flag.Bool("verify", true, "verify the sink against the reference implementation")
		timeout  = flag.Duration("timeout", 10*time.Minute, "watchdog")
		traceCap = flag.Int("trace", 0, "record the last N executor spans and print them as a Chrome/Perfetto trace (ft only)")
		planFile = flag.String("plan", "", "load the fault plan from this JSON file (overrides -faults)")
		savePlan = flag.String("saveplan", "", "write the generated fault plan to this JSON file for replay")
	)
	flag.Parse()

	mk, ok := makers[*app]
	if !ok {
		fatalf("unknown -app %q", *app)
	}
	a, err := mk(apps.Config{N: *n, B: *b, Seed: *seed})
	if err != nil {
		fatalf("%v", err)
	}
	props := graph.Analyze(a.Spec())
	fmt.Printf("%s N=%d B=%d: %v retention=%d\n", a.Name(), *n, *b, props, a.Retention())

	var plan *fault.Plan
	if *planFile != "" {
		data, err := os.ReadFile(*planFile)
		if err != nil {
			fatalf("%v", err)
		}
		plan = fault.NewPlan()
		if err := json.Unmarshal(data, plan); err != nil {
			fatalf("parsing %s: %v", *planFile, err)
		}
		fmt.Printf("loaded %d planned faults from %s\n", plan.Len(), *planFile)
	} else if *faults > 0 {
		pt, err := parsePoint(*point)
		if err != nil {
			fatalf("%v", err)
		}
		ty, err := parseType(*taskType)
		if err != nil {
			fatalf("%v", err)
		}
		plan = fault.NewPlan()
		for _, k := range fault.SelectTasks(a.Spec(), ty, *faults, *fseed) {
			plan.Add(k, pt, *lives)
		}
		fmt.Printf("injecting %d faults: %v, %v, lives=%d\n", plan.Len(), pt, ty, *lives)
	}
	if *savePlan != "" && plan != nil {
		data, err := json.MarshalIndent(plan, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*savePlan, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("saved fault plan to %s\n", *savePlan)
	}

	spans := trace.NewSpans("ftgraph", *traceCap) // nil (tracing off) when the capacity is < 1
	cfg := core.Config{Workers: *p, Retention: a.Retention(), Plan: plan, Timeout: *timeout,
		Spans: spans, SpanCtx: trace.SpanContext{Trace: trace.NewTraceID()}}
	var res *core.Result
	switch *executor {
	case "ft":
		res, err = core.NewFT(a.Spec(), cfg).Run()
	case "baseline":
		if plan != nil {
			fatalf("the baseline executor cannot run with faults")
		}
		res, err = core.NewBaseline(a.Spec(), cfg).Run()
	case "seq":
		res, err = core.NewSequential(a.Spec(), a.Retention()).Run()
	default:
		fatalf("unknown -executor %q", *executor)
	}
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("elapsed: %v\n", res.Elapsed)
	fmt.Printf("tasks: %d, computes: %d, re-executed: %d\n", res.Tasks, res.Metrics.Computes, res.ReexecutedTasks)
	fmt.Printf("recoveries: %d, resets: %d, injected: %d, overwrite-marks: %d\n",
		res.Metrics.Recoveries, res.Metrics.Resets, res.Metrics.InjectionsFired, res.Metrics.OverwriteMarks)
	fmt.Printf("sched: %v\n", res.Sched)
	fmt.Printf("store: writes=%d reads=%d evictions=%d retained=%dB\n",
		res.Store.Writes, res.Store.Reads, res.Store.Evictions, res.Store.BytesRetained)
	if *verify {
		if err := a.VerifySink(res.Sink); err != nil {
			fatalf("verification FAILED: %v", err)
		}
		fmt.Println("verification: OK (result matches reference implementation)")
	}
	if spans != nil {
		kept := spans.Snapshot()
		fmt.Printf("--- last %d executor spans ---\n", len(kept))
		if err := trace.MergeSpans(kept).WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}
}

func parsePoint(s string) (fault.Point, error) {
	switch s {
	case "before-compute":
		return fault.BeforeCompute, nil
	case "after-compute":
		return fault.AfterCompute, nil
	case "after-notify":
		return fault.AfterNotify, nil
	}
	return 0, fmt.Errorf("unknown -point %q", s)
}

func parseType(s string) (fault.TaskType, error) {
	switch s {
	case "v=0":
		return fault.V0, nil
	case "v=last":
		return fault.VLast, nil
	case "v=rand":
		return fault.VRand, nil
	case "any":
		return fault.AnyTask, nil
	}
	return 0, fmt.Errorf("unknown -type %q", s)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftgraph: "+format+"\n", args...)
	os.Exit(1)
}
