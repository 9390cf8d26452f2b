package harness

import (
	"fmt"
	"text/tabwriter"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/stats"
	"ftdag/internal/trace"
)

// Table1 prints the benchmark configuration table (paper Table I): problem
// size N, block size B, total tasks T, total dependences E, and critical
// path length S for each benchmark.
func (h *Harness) Table1() error {
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(h.opts.Out, "== Table I: benchmark configurations ==")
	fmt.Fprintln(w, "\tLCS\tLU\tCholesky\tFW\tSW")
	row := func(label string, f func(name string) string) {
		fmt.Fprintf(w, "%s", label)
		for _, name := range AppNames {
			fmt.Fprintf(w, "\t%s", f(name))
		}
		fmt.Fprintln(w)
	}
	row("N", func(n string) string { c := h.opts.Sizes[n]; return fmt.Sprintf("%dx%d", c.N, c.N) })
	row("B", func(n string) string { c := h.opts.Sizes[n]; return fmt.Sprintf("%dx%d", c.B, c.B) })
	row("T", func(n string) string { return fmt.Sprint(h.Props(n).Tasks) })
	row("E", func(n string) string { return fmt.Sprint(h.Props(n).Edges) })
	row("S", func(n string) string { return fmt.Sprint(h.Props(n).CriticalPath) })
	return w.Flush()
}

// Fig4Row is one point of a speedup curve.
type Fig4Row struct {
	App      string
	P        int
	Baseline float64 // speedup of the non-FT version
	FT       float64 // speedup of the FT version
}

// Fig4 measures speedup of the baseline and fault-tolerant executors
// (paper Figure 4): for each benchmark and core count, speedup is the
// sequential execution time divided by the parallel execution time. The
// paper's machine had 44 usable cores; this host's numbers are reported as
// measured.
func (h *Harness) Fig4() ([]Fig4Row, error) {
	fmt.Fprintln(h.opts.Out, "== Figure 4: speedup without faults (baseline vs FT) ==")
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tP\tbaseline-speedup\tFT-speedup\tbaseline-t\tFT-t")
	var rows []Fig4Row
	for _, name := range AppNames {
		seq, err := h.SeqTime(name)
		if err != nil {
			return nil, err
		}
		for _, p := range h.sortedCores() {
			var bt, ft []float64
			for r := 0; r < h.opts.Runs; r++ {
				bres, err := h.RunBaseline(name, p)
				if err != nil {
					return nil, err
				}
				bt = append(bt, bres.Elapsed.Seconds())
				fres, err := h.RunFT(name, core.Config{Workers: p}, h.opts.Verify && r == 0)
				if err != nil {
					return nil, err
				}
				ft = append(ft, fres.Elapsed.Seconds())
			}
			bm, fm := stats.Summarize(bt).Mean, stats.Summarize(ft).Mean
			row := Fig4Row{
				App:      name,
				P:        p,
				Baseline: stats.Speedup(seq.Seconds(), bm),
				FT:       stats.Speedup(seq.Seconds(), fm),
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.1fms\t%.1fms\n",
				name, p, row.Baseline, row.FT, bm*1000, fm*1000)
		}
	}
	return rows, w.Flush()
}

// OverheadRow is one recovery-overhead measurement.
type OverheadRow struct {
	App       string
	Scenario  string
	Point     fault.Point
	Type      fault.TaskType
	Count     int     // injected faults
	Overhead  float64 // mean overhead % over paired fault-free runs
	Std       float64 // std of the per-pair overhead percentages
	ReexecAvg float64
}

// measureOverhead runs one fault scenario Runs times, pairing every faulty
// run with a fresh fault-free run so that slow drift in machine state (GC,
// frequency scaling, cache temperature) cancels out of the overhead
// percentage. It returns the mean and standard deviation of the per-pair
// overheads, plus the mean re-execution count.
func (h *Harness) measureOverhead(name string, workers int, point fault.Point, typ fault.TaskType, count int) (mean, std, reexec float64, err error) {
	var overs, reex []float64
	for r := 0; r < h.opts.Runs; r++ {
		baseRes, err := h.RunFT(name, core.Config{Workers: workers}, false)
		if err != nil {
			return 0, 0, 0, err
		}
		plan := fault.PlanCount(h.App(name).Spec(), typ, point, count, h.opts.Seed+int64(r))
		res, err := h.RunFT(name, core.Config{Workers: workers, Plan: plan}, h.opts.Verify && r == 0)
		if err != nil {
			return 0, 0, 0, err
		}
		overs = append(overs, stats.OverheadPercent(res.Elapsed.Seconds(), baseRes.Elapsed.Seconds()))
		reex = append(reex, float64(res.ReexecutedTasks))
	}
	s := stats.Summarize(overs)
	return s.Mean, s.Std, stats.Summarize(reex).Mean, nil
}

// Fig5a measures recovery overhead for a fixed scaled fault count at the
// before-compute and after-compute points across the three task types
// (paper Figure 5a: 512 task re-executions ≈ 0.78% of tasks).
func (h *Harness) Fig5a() ([]OverheadRow, error) {
	fmt.Fprintln(h.opts.Out, "== Figure 5a: overhead, fixed count (512-equivalent), by time and task type ==")
	return h.overheadGrid(
		[]fault.Point{fault.BeforeCompute, fault.AfterCompute},
		[]fault.TaskType{fault.V0, fault.VRand, fault.VLast},
		func(name string) (int, string) {
			c := h.ScaledCount(name, 512)
			return c, fmt.Sprintf("512-eq(%d)", c)
		})
}

// Fig5b measures recovery overhead when 2% and 5% of all tasks fail
// (paper Figure 5b; v=rand only, as in the paper).
func (h *Harness) Fig5b() ([]OverheadRow, error) {
	fmt.Fprintln(h.opts.Out, "== Figure 5b: overhead, 2% and 5% of tasks, v=rand ==")
	var rows []OverheadRow
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tscenario\tpoint\tcount\toverhead%\treexec")
	for _, name := range AppNames {
		t := h.Props(name).Tasks
		for _, frac := range []float64{0.02, 0.05} {
			target := int(float64(t)*frac + 0.5)
			count, err := h.CalibrateCount(name, fault.AfterCompute, fault.VRand, target)
			if err != nil {
				return nil, err
			}
			for _, pt := range []fault.Point{fault.BeforeCompute, fault.AfterCompute} {
				over, std, re, err := h.measureOverhead(name, h.opts.Workers, pt, fault.VRand, count)
				if err != nil {
					return nil, err
				}
				row := OverheadRow{
					App: name, Scenario: fmt.Sprintf("%.0f%%", frac*100),
					Point: pt, Type: fault.VRand, Count: count,
					Overhead: over, Std: std, ReexecAvg: re,
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%.2f±%.2f\t%.0f\n",
					name, row.Scenario, pt, count, over, std, re)
			}
		}
	}
	return rows, w.Flush()
}

func (h *Harness) overheadGrid(points []fault.Point, types []fault.TaskType, countOf func(string) (int, string)) ([]OverheadRow, error) {
	var rows []OverheadRow
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tscenario\tpoint\ttype\tcount\toverhead%\treexec")
	for _, name := range AppNames {
		count, label := countOf(name)
		for _, ty := range types {
			for _, pt := range points {
				over, std, re, err := h.measureOverhead(name, h.opts.Workers, pt, ty, count)
				if err != nil {
					return nil, err
				}
				row := OverheadRow{
					App: name, Scenario: label, Point: pt, Type: ty,
					Count: count, Overhead: over, Std: std, ReexecAvg: re,
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%d\t%.2f±%.2f\t%.0f\n",
					name, label, pt, ty, count, over, std, re)
			}
		}
	}
	return rows, w.Flush()
}

// Table2Row summarises the re-executed-task distribution of an after-notify
// scenario.
type Table2Row struct {
	App     string
	Type    fault.TaskType
	Count   int
	Summary stats.Summary
}

// Table2 measures the actual number of re-executed tasks when faults are
// injected in the after-notify phase (paper Table II): unlike the compute
// phases, the impact depends on how many consumers had already used the
// corrupted output and on cascading version recomputation, so the paper
// reports avg/min/max/std over repetitions.
func (h *Harness) Table2() ([]Table2Row, error) {
	fmt.Fprintln(h.opts.Out, "== Table II: re-executed tasks, after-notify faults (512-equivalent) ==")
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\ttype\tinjected\tavg\tmin\tp50\tp95\tp99\tmax\tstd")
	var rows []Table2Row
	for _, name := range AppNames {
		count := h.ScaledCount(name, 512)
		for _, ty := range []fault.TaskType{fault.V0, fault.VLast, fault.VRand} {
			var reex []int64
			for r := 0; r < h.opts.Runs; r++ {
				plan := fault.PlanCount(h.App(name).Spec(), ty, fault.AfterNotify, count, h.opts.Seed+int64(r))
				res, err := h.RunFT(name, core.Config{Workers: h.opts.Workers, Plan: plan}, h.opts.Verify && r == 0)
				if err != nil {
					return nil, err
				}
				reex = append(reex, res.ReexecutedTasks)
			}
			s := stats.SummarizeInts(reex)
			rows = append(rows, Table2Row{App: name, Type: ty, Count: count, Summary: s})
			fmt.Fprintf(w, "%s\t%v\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				name, ty, count, s.Mean, s.Min, s.P50, s.P95, s.P99, s.Max, s.Std)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	cp, err := h.CriticalPaths()
	if err != nil {
		return nil, err
	}
	return rows, h.csvCriticalPath(cp)
}

// CriticalPathRow is one app's span-walk critical-path summary.
type CriticalPathRow struct {
	App        string
	Spans      int   // spans retained by the run's recorder
	Recoveries int   // recover spans among them
	PathLen    int   // spans on the critical path (incl. the run root)
	PathUS     int64 // summed duration of the path's spans
	RunUS      int64 // wall-clock duration of the whole run
	Tail       string
}

// CriticalPaths runs one traced v=rand after-notify execution per app and
// walks span parent links back from the latest-finishing executor span —
// the same extractor the router applies to merged cluster traces in
// /debug/cluster-trace/{id}. It is reported next to Table II because the
// tail of that chain names the operation (almost always a recovery or a
// cascaded recompute) that determined when the faulted run finished, the
// causal view of the re-execution counts the table quantifies.
func (h *Harness) CriticalPaths() ([]CriticalPathRow, error) {
	fmt.Fprintln(h.opts.Out, "-- critical path: span walk over one traced v=rand run per app --")
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tspans\trecoveries\tpath\tpath_ms\trun_ms\ttail span")
	var rows []CriticalPathRow
	for _, name := range AppNames {
		count := h.ScaledCount(name, 512)
		plan := fault.PlanCount(h.App(name).Spec(), fault.VRand, fault.AfterNotify, count, h.opts.Seed)
		// The ring comfortably holds every span of a bench-sized run;
		// if a larger size wraps it, the walk still works because only
		// the most recent spans can sit on the path's tail.
		sp := trace.NewSpans("harness", 1<<16)
		ctx := trace.SpanContext{Trace: trace.NewTraceID(), Span: sp.NextID()}
		start := time.Now()
		if _, err := h.RunFT(name, core.Config{Workers: h.opts.Workers, Plan: plan, Spans: sp, SpanCtx: ctx, SpanJob: -1}, false); err != nil {
			return nil, err
		}
		run := time.Since(start)
		spans := sp.ForTrace(ctx.Trace)
		recoveries := 0
		for _, s := range spans {
			if s.Name == "recover" {
				recoveries++
			}
		}
		// Walk the executor spans first, then prepend the run root (which
		// every executor span parents to). Walking with the root included
		// would start at the root itself — it finishes last by definition.
		path := trace.CriticalPath(spans)
		path = append([]trace.Span{{
			Trace: ctx.Trace, ID: ctx.Span, Name: "ft-run", Proc: "harness", Note: name,
			Start: start.UnixMicro(), Dur: run.Microseconds(), Job: -1, Task: -1,
		}}, path...)
		var pathUS int64
		for _, s := range path[1:] {
			pathUS += s.Dur
		}
		tail := path[len(path)-1]
		tailDesc := fmt.Sprintf("%s(task %d, life %d)", tail.Name, tail.Task, tail.Life)
		rows = append(rows, CriticalPathRow{
			App: name, Spans: len(spans), Recoveries: recoveries,
			PathLen: len(path), PathUS: pathUS, RunUS: run.Microseconds(), Tail: tailDesc,
		})
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.2f\t%.2f\t%s\n",
			name, len(spans), recoveries, len(path), float64(pathUS)/1e3,
			float64(run.Microseconds())/1e3, tailDesc)
	}
	return rows, w.Flush()
}

// Fig6 measures recovery overhead for after-notify faults: the fixed
// 512-equivalent count on each task type, plus 2% and 5% on v=rand (paper
// Figure 6).
func (h *Harness) Fig6() ([]OverheadRow, error) {
	fmt.Fprintln(h.opts.Out, "== Figure 6: overhead, after-notify faults ==")
	var rows []OverheadRow
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tscenario\ttype\tcount\toverhead%\treexec")
	for _, name := range AppNames {
		t := h.Props(name).Tasks
		type sc struct {
			label string
			ty    fault.TaskType
			count int
		}
		c512 := h.ScaledCount(name, 512)
		c2, err := h.CalibrateCount(name, fault.AfterNotify, fault.VRand, int(float64(t)*0.02+0.5))
		if err != nil {
			return nil, err
		}
		c5, err := h.CalibrateCount(name, fault.AfterNotify, fault.VRand, int(float64(t)*0.05+0.5))
		if err != nil {
			return nil, err
		}
		scenarios := []sc{
			{fmt.Sprintf("512-eq(%d)", c512), fault.V0, c512},
			{fmt.Sprintf("512-eq(%d)", c512), fault.VRand, c512},
			{fmt.Sprintf("512-eq(%d)", c512), fault.VLast, c512},
			{fmt.Sprintf("2%%(%d inj)", c2), fault.VRand, c2},
			{fmt.Sprintf("5%%(%d inj)", c5), fault.VRand, c5},
		}
		for _, s := range scenarios {
			over, std, re, err := h.measureOverhead(name, h.opts.Workers, fault.AfterNotify, s.ty, s.count)
			if err != nil {
				return nil, err
			}
			row := OverheadRow{
				App: name, Scenario: s.label, Point: fault.AfterNotify,
				Type: s.ty, Count: s.count, Overhead: over, Std: std, ReexecAvg: re,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%.2f±%.2f\t%.0f\n",
				name, s.label, s.ty, s.count, over, std, re)
		}
	}
	return rows, w.Flush()
}

// Fig7Row is one point of the recovery-scalability sweep.
type Fig7Row struct {
	App      string
	P        int
	Scenario string
	Overhead float64
}

// Fig7 measures recovery overhead as the worker count varies, for the fixed
// 512-equivalent count (a) and for 5% of tasks (b), with after-compute
// faults on v=rand tasks (paper Figure 7).
func (h *Harness) Fig7() ([]Fig7Row, error) {
	fmt.Fprintln(h.opts.Out, "== Figure 7: recovery overhead vs cores (after-compute, v=rand) ==")
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tP\tscenario\toverhead%")
	var rows []Fig7Row
	for _, name := range AppNames {
		c512 := h.ScaledCount(name, 512)
		c5, err := h.CalibrateCount(name, fault.AfterCompute, fault.VRand,
			int(float64(h.Props(name).Tasks)*0.05+0.5))
		if err != nil {
			return nil, err
		}
		for _, sc := range []struct {
			label string
			count int
		}{
			{fmt.Sprintf("512-eq(%d)", c512), c512},
			{fmt.Sprintf("5%%(%d inj)", c5), c5},
		} {
			for _, p := range h.sortedCores() {
				over, std, _, err := h.measureOverhead(name, p, fault.AfterCompute, fault.VRand, sc.count)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig7Row{App: name, P: p, Scenario: sc.label, Overhead: over})
				fmt.Fprintf(w, "%s\t%d\t%s\t%.2f±%.2f\n", name, p, sc.label, over, std)
			}
		}
	}
	return rows, w.Flush()
}

// FixedCounts measures the paper's small constant-count scenarios (1, 8, 64
// task re-executions; §VI-B reports no statistically significant overhead).
func (h *Harness) FixedCounts() ([]OverheadRow, error) {
	fmt.Fprintln(h.opts.Out, "== Fixed small fault counts (1, 8, 64), after-compute, v=rand ==")
	var rows []OverheadRow
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tcount\toverhead%\treexec")
	for _, name := range AppNames {
		for _, count := range []int{1, 8, 64} {
			if count >= h.Props(name).Tasks/4 {
				continue
			}
			over, std, re, err := h.measureOverhead(name, h.opts.Workers, fault.AfterCompute, fault.VRand, count)
			if err != nil {
				return nil, err
			}
			rows = append(rows, OverheadRow{
				App: name, Scenario: fmt.Sprint(count), Point: fault.AfterCompute,
				Type: fault.VRand, Count: count, Overhead: over, Std: std, ReexecAvg: re,
			})
			fmt.Fprintf(w, "%s\t%d\t%.2f±%.2f\t%.0f\n", name, count, over, std, re)
		}
	}
	return rows, w.Flush()
}

// Experiment names accepted by Run.
var Experiments = []string{"table1", "fig4", "fig5a", "fig5b", "table2", "fig6", "fig7", "counts", "theory", "comparators", "replication", "retention"}

// Run executes the named experiment ("all" for the full suite).
func (h *Harness) Run(name string) error {
	start := time.Now()
	var err error
	switch name {
	case "table1":
		if err = h.Table1(); err == nil {
			err = h.csvTable1()
		}
	case "fig4":
		var rows []Fig4Row
		if rows, err = h.Fig4(); err == nil {
			err = h.csvFig4(rows)
		}
	case "fig5a":
		var rows []OverheadRow
		if rows, err = h.Fig5a(); err == nil {
			err = h.csvOverheads("fig5a", rows)
		}
	case "fig5b":
		var rows []OverheadRow
		if rows, err = h.Fig5b(); err == nil {
			err = h.csvOverheads("fig5b", rows)
		}
	case "table2":
		var rows []Table2Row
		if rows, err = h.Table2(); err == nil {
			err = h.csvTable2(rows)
		}
	case "fig6":
		var rows []OverheadRow
		if rows, err = h.Fig6(); err == nil {
			err = h.csvOverheads("fig6", rows)
		}
	case "fig7":
		var rows []Fig7Row
		if rows, err = h.Fig7(); err == nil {
			err = h.csvFig7(rows)
		}
	case "counts":
		var rows []OverheadRow
		if rows, err = h.FixedCounts(); err == nil {
			err = h.csvOverheads("counts", rows)
		}
	case "theory":
		var rows []TheoryRow
		if rows, err = h.Theory(); err == nil {
			err = h.csvTheory(rows)
		}
	case "comparators":
		var rows []ComparatorRow
		if rows, err = h.Comparators(); err == nil {
			err = h.csvComparators(rows)
		}
	case "replication":
		var rows []ReplicationRow
		if rows, err = h.Replication(); err == nil {
			err = h.csvReplication(rows)
		}
	case "retention":
		var rows []RetentionRow
		if rows, err = h.Retention(); err == nil {
			err = h.csvRetention(rows)
		}
	case "all":
		for _, e := range Experiments {
			if err = h.Run(e); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("harness: unknown experiment %q (have %v, or \"all\")", name, Experiments)
	}
	if err == nil {
		fmt.Fprintf(h.opts.Out, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return err
}
