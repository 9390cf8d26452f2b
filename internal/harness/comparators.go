package harness

import (
	"fmt"
	"text/tabwriter"

	"ftdag/internal/comparators"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/replica"
	"ftdag/internal/stats"
)

// ComparatorRow is one row of the recovery-scheme comparison (an extension
// beyond the paper's figures, quantifying the §I–II and §VII arguments
// against collective checkpoint/restart and replication).
type ComparatorRow struct {
	App        string
	Scheme     string
	CleanTime  float64 // fault-free seconds (mean)
	CleanOver  float64 // fault-free overhead % vs the FT scheduler
	FaultyTime float64 // seconds with the fault scenario (mean)
	Reexecuted float64 // mean re-executed computes under faults
	Replicas   float64 // mean tasks dual-executed under the faulty scenario
	SDCRate    float64 // detected / injected silent corruptions (0 when undetectable)
}

// Comparators benchmarks the FT scheduler against the checkpoint/restart
// executor and against itself with every task replicated (dual modular
// redundancy: the budget-1 point of task-level replication) and with the
// selective 25 % — fault-free and under the 512-equivalent after-compute
// scenario. The faulty plan also carries a handful of silent corruptions, so
// each row reports how many tasks the scheme dual-executed and what fraction
// of the SDCs that redundancy caught (detected faults alone catch none of
// them).
func (h *Harness) Comparators() ([]ComparatorRow, error) {
	fmt.Fprintln(h.opts.Out, "== Recovery-scheme comparison: selective (FT) vs checkpoint/restart vs replication ==")
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tscheme\tclean-t\tclean-over%\tfaulty-t\treexec\treplicas\tsdc-rate")
	var rows []ComparatorRow
	for _, name := range AppNames {
		a := h.App(name)
		count := h.ScaledCount(name, 512)
		mkPlan := func(seed int64) *fault.Plan {
			p := fault.PlanCount(a.Spec(), fault.VRand, fault.AfterCompute, count, seed)
			// A few silent corruptions on tasks the detected-fault plan does
			// not already claim (Plan.Add overwrites per key).
			taken := make(map[graph.Key]bool, p.Len())
			for _, k := range p.Keys() {
				taken[k] = true
			}
			for _, k := range fault.SelectTasks(a.Spec(), fault.AnyTask, 8, seed+9931) {
				if !taken[k] {
					p.Add(k, fault.SDC, 1)
				}
			}
			return p
		}
		selective := replica.Select(a.Spec(), replica.Policy{Budget: 0.25})
		full := replica.Select(a.Spec(), replica.Policy{Budget: 1})

		type runner func(plan *fault.Plan) (*core.Result, error)
		schemes := []struct {
			name string
			run  runner
		}{
			{"ft-selective", func(plan *fault.Plan) (*core.Result, error) {
				return core.NewFT(a.Spec(), core.Config{
					Workers: h.opts.Workers, Retention: a.Retention(), Plan: plan,
				}).Run()
			}},
			{"checkpoint", func(plan *fault.Plan) (*core.Result, error) {
				res, _, err := comparators.NewCheckpoint(a.Spec(), core.Config{
					Workers: h.opts.Workers, Plan: plan,
				}, 4).Run()
				return res, err
			}},
			{"replication", func(plan *fault.Plan) (*core.Result, error) {
				return core.NewFT(a.Spec(), core.Config{
					Workers: h.opts.Workers, Retention: a.Retention(), Plan: plan,
					Replicate: full,
				}).Run()
			}},
			{"ft-replicate-selective", func(plan *fault.Plan) (*core.Result, error) {
				return core.NewFT(a.Spec(), core.Config{
					Workers: h.opts.Workers, Retention: a.Retention(), Plan: plan,
					Replicate: selective,
				}).Run()
			}},
		}

		var ftClean float64
		for _, sc := range schemes {
			var clean, faulty, reex, repl []float64
			var injected, detected int64
			for r := 0; r < h.opts.Runs; r++ {
				cres, err := sc.run(nil)
				if err != nil {
					return nil, fmt.Errorf("%s/%s clean: %w", name, sc.name, err)
				}
				clean = append(clean, cres.Elapsed.Seconds())
				fres, err := sc.run(mkPlan(h.opts.Seed + int64(r)))
				if err != nil {
					return nil, fmt.Errorf("%s/%s faulty: %w", name, sc.name, err)
				}
				faulty = append(faulty, fres.Elapsed.Seconds())
				reex = append(reex, float64(fres.ReexecutedTasks))
				repl = append(repl, float64(fres.Metrics.ReplicatedTasks))
				injected += fres.Metrics.SDCInjected
				detected += fres.Metrics.SDCDetected
			}
			cm := stats.Summarize(clean).Mean
			if sc.name == "ft-selective" {
				ftClean = cm
			}
			rate := 0.0
			if injected > 0 {
				rate = float64(detected) / float64(injected)
			}
			row := ComparatorRow{
				App:        name,
				Scheme:     sc.name,
				CleanTime:  cm,
				CleanOver:  stats.OverheadPercent(cm, ftClean),
				FaultyTime: stats.Summarize(faulty).Mean,
				Reexecuted: stats.Summarize(reex).Mean,
				Replicas:   stats.Summarize(repl).Mean,
				SDCRate:    rate,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%s\t%s\t%.1fms\t%.1f\t%.1fms\t%.0f\t%.0f\t%.2f\n",
				name, sc.name, row.CleanTime*1000, row.CleanOver, row.FaultyTime*1000,
				row.Reexecuted, row.Replicas, row.SDCRate)
		}
	}
	return rows, w.Flush()
}
