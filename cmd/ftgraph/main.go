// Command ftgraph executes a single benchmark task graph once and reports
// the run's timing, scheduler statistics, and recovery metrics — or, with
// -inspect, reports the graph's structure without running it. It is the
// workhorse for ad-hoc experiments:
//
//	ftgraph -app LU -n 512 -b 32 -p 4
//	ftgraph -app FW -n 192 -b 16 -p 2 -faults 50 -point after-compute -type v=rand
//	ftgraph -app SW -n 1024 -b 64 -executor baseline
//	ftgraph -app LU -n 512 -b 32 -inspect -validate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/harness"
	"ftdag/internal/trace"
)

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
		inspect  = flag.Bool("inspect", false, "print the graph's structure (Table I's T, E, S, degrees, task types) instead of running it")
		validate = flag.Bool("validate", false, "with -inspect, also check that predecessors and successors mirror each other (slow on big graphs)")
	)
	flag.Parse()

	a, err := harness.MakeApp(*app, apps.Config{N: *n, B: *b, Seed: *seed})
	if err != nil {
		fatalf("%v", err)
	}
	props := graph.Analyze(a.Spec())
	if *inspect {
		fmt.Printf("%s N=%d B=%d (retention %d)\n", a.Name(), *n, *b, a.Retention())
		printStructure(a.Spec(), props, *validate)
		return
	}
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

// printStructure prints the Table I quantities of spec (T, E, S), its
// degrees and in-degree histogram, and its task-type population (v=0 and
// v=last), and with validate checks its structure.
func printStructure(spec graph.Spec, props graph.Props, validate bool) {
	fmt.Printf("  tasks (T):          %d\n", props.Tasks)
	fmt.Printf("  dependences (E):    %d\n", props.Edges)
	fmt.Printf("  critical path (S):  %d\n", props.CriticalPath)
	fmt.Printf("  max in/out degree:  %d / %d\n", props.MaxInDegree, props.MaxOutDegree)
	fmt.Printf("  source tasks:       %d\n", props.Sources)
	fmt.Printf("  sink key:           %d\n", spec.Sink())

	hist := map[int]int{}
	for _, k := range graph.Enumerate(spec) {
		hist[len(spec.Predecessors(k))]++
	}
	fmt.Printf("  in-degree histogram:")
	for d := 0; d <= props.MaxInDegree; d++ {
		if c := hist[d]; c > 0 {
			fmt.Printf(" %d:%d", d, c)
		}
	}
	fmt.Println()

	v0 := fault.SelectTasks(spec, fault.V0, props.Tasks, 1)
	vlast := fault.SelectTasks(spec, fault.VLast, props.Tasks, 1)
	fmt.Printf("  v=0 tasks:          %d (%.1f%%)\n", len(v0), 100*float64(len(v0))/float64(props.Tasks))
	fmt.Printf("  v=last tasks:       %d (%.1f%%)\n", len(vlast), 100*float64(len(vlast))/float64(props.Tasks))

	if validate {
		if err := graph.Validate(spec); err != nil {
			fatalf("validation FAILED: %v", err)
		}
		fmt.Println("  validation:         OK")
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
