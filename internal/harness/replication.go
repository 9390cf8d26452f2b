package harness

import (
	"fmt"
	"text/tabwriter"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/replica"
	"ftdag/internal/stats"
)

// ReplicationBudgets are the selective-replication budget points of the
// overhead-vs-coverage sweep (0% → 100% of tasks replicated).
var ReplicationBudgets = []float64{0, 0.25, 0.5, 0.75, 1.0}

// ReplicationRow is one point of the overhead-vs-coverage sweep: one app at
// one replication budget, measuring both what the budget costs (overhead
// versus a paired unreplicated run) and what it buys (the fraction of
// injected silent corruptions the replicas catch).
type ReplicationRow struct {
	App     string
	Budget  float64
	Covered int // tasks the selection policy replicates at this budget
	Tasks   int
	// CleanTime / Overhead / Std: fault-free seconds at this budget and the
	// mean ± std overhead percentage over paired unreplicated runs.
	CleanTime float64
	Overhead  float64
	Std       float64
	// Shadows is the mean shadow computes per run (the overhead's cause).
	Shadows float64
	// SDCInjected/SDCDetected/DetectionRate: silent corruptions injected
	// across the whole graph, how many the covered set caught, and the
	// resulting detection rate (the coverage the budget actually buys).
	SDCInjected   float64
	SDCDetected   float64
	DetectionRate float64
}

// Replication sweeps the selective-replication budget from 0% to 100% for
// every app: the overhead-vs-coverage trade-off curve that motivates
// selective (rather than full) replication as an SDC recovery strategy.
func (h *Harness) Replication() ([]ReplicationRow, error) {
	fmt.Fprintln(h.opts.Out, "== Replication: overhead vs SDC coverage across budgets ==")
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tbudget\tcovered\tclean-t\toverhead%\tshadows\tsdc-rate")
	var rows []ReplicationRow
	for _, name := range AppNames {
		a := h.App(name)
		tasks := h.Props(name).Tasks
		nv := tasks / 8
		if nv > 16 {
			nv = 16
		}
		if nv < 2 {
			nv = 2
		}
		for _, budget := range ReplicationBudgets {
			set := replica.Select(a.Spec(), replica.Policy{Budget: budget})
			var overs, clean, shadows []float64
			var injected, detected int64
			for r := 0; r < h.opts.Runs; r++ {
				base, err := h.RunFT(name, core.Config{Workers: h.opts.Workers}, false)
				if err != nil {
					return nil, err
				}
				res, err := h.RunFT(name, core.Config{Workers: h.opts.Workers, Replicate: set}, h.opts.Verify && r == 0)
				if err != nil {
					return nil, err
				}
				clean = append(clean, res.Elapsed.Seconds())
				overs = append(overs, stats.OverheadPercent(res.Elapsed.Seconds(), base.Elapsed.Seconds()))
				shadows = append(shadows, float64(res.Metrics.ShadowComputes))

				// Storm silent corruptions across the whole graph (not just
				// the covered set): the detection rate then measures the
				// coverage this budget actually buys.
				plan := fault.NewPlan()
				for _, k := range fault.SelectTasks(a.Spec(), fault.AnyTask, nv, h.opts.Seed+int64(r)) {
					plan.Add(k, fault.SDC, 1)
				}
				sres, err := h.RunFT(name, core.Config{Workers: h.opts.Workers, Plan: plan, Replicate: set}, false)
				if err != nil {
					return nil, err
				}
				injected += sres.Metrics.SDCInjected
				detected += sres.Metrics.SDCDetected
			}
			rate := 0.0
			if injected > 0 {
				rate = float64(detected) / float64(injected)
			}
			s := stats.Summarize(overs)
			row := ReplicationRow{
				App: name, Budget: budget, Covered: set.Len(), Tasks: tasks,
				CleanTime: stats.Summarize(clean).Mean, Overhead: s.Mean, Std: s.Std,
				Shadows:     stats.Summarize(shadows).Mean,
				SDCInjected: float64(injected), SDCDetected: float64(detected), DetectionRate: rate,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%s\t%.0f%%\t%d/%d\t%.1fms\t%.1f±%.1f\t%.0f\t%.2f\n",
				name, budget*100, row.Covered, tasks, row.CleanTime*1000, row.Overhead, row.Std, row.Shadows, rate)
		}
	}
	return rows, w.Flush()
}

// csvReplication exports the overhead-vs-coverage sweep.
func (h *Harness) csvReplication(rows []ReplicationRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.App, ftoa(r.Budget), itoa(r.Covered), itoa(r.Tasks),
			ftoa(r.CleanTime), ftoa(r.Overhead), ftoa(r.Std), ftoa(r.Shadows),
			ftoa(r.SDCInjected), ftoa(r.SDCDetected), ftoa(r.DetectionRate),
		}
	}
	return h.writeCSV("replication",
		[]string{"app", "budget", "covered", "tasks", "clean_s", "overhead_pct", "std",
			"shadow_computes", "sdc_injected", "sdc_detected", "detection_rate"}, out)
}
