package harness

import (
	"fmt"
	"text/tabwriter"

	"ftdag/internal/core"
	"ftdag/internal/graph"
)

// TheoryRow compares a measured execution against the §V analysis.
type TheoryRow struct {
	App      string
	P        int
	T1       float64 // sequential time (seconds)
	TInf     float64 // span under the uniform cost model (seconds)
	Greedy   float64 // T1/P + T∞, the classic greedy-scheduling bound
	Measured float64 // mean FT time at P workers (seconds)
	Ratio    float64 // Measured / Greedy
}

// Theory instantiates the paper's §V analysis for each benchmark: it
// estimates per-task cost as the sequential time divided by the task count
// (the kernels are near-uniform by construction), computes the work and
// span terms, and compares the measured fault-free FT execution against the
// T1/P + T∞ greedy bound that Theorem 2 refines. On hardware with ≥ P
// cores the ratio stays O(1); on an oversubscribed host it degrades toward
// P because the workers time-share one core — the table reports what it
// measures.
func (h *Harness) Theory() ([]TheoryRow, error) {
	fmt.Fprintln(h.opts.Out, "== §V theory check: measured time vs T1/P + T∞ ==")
	w := tabwriter.NewWriter(h.opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tP\tT1\tT∞\tT1/P+T∞\tmeasured\tratio\tTheorem2-units")
	var rows []TheoryRow
	for _, name := range AppNames {
		seq, err := h.SeqTime(name)
		if err != nil {
			return nil, err
		}
		props := h.Props(name)
		perTask := seq.Seconds() / float64(props.Tasks)
		cost := func(graph.Key) float64 { return perTask }
		t1, tinf := graph.WorkSpan(h.App(name).Spec(), cost)
		for _, p := range h.sortedCores() {
			var ts []float64
			for r := 0; r < h.opts.Runs; r++ {
				res, err := h.RunFT(name, core.Config{Workers: p}, false)
				if err != nil {
					return nil, err
				}
				ts = append(ts, res.Elapsed.Seconds())
			}
			mean := 0.0
			for _, t := range ts {
				mean += t
			}
			mean /= float64(len(ts))
			greedy := t1/float64(p) + tinf
			bound := graph.TheoremBound(h.App(name).Spec(), p, 1, graph.UnitCost)
			row := TheoryRow{
				App: name, P: p, T1: t1, TInf: tinf,
				Greedy: greedy, Measured: mean, Ratio: mean / greedy,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%s\t%d\t%.3fs\t%.4fs\t%.3fs\t%.3fs\t%.2f\t%.0f\n",
				name, p, t1, tinf, greedy, mean, row.Ratio, bound.Total())
		}
	}
	return rows, w.Flush()
}
