// Comparison: the same task graph and the same soft errors handled three
// ways — selective localized recovery (this library's fault-tolerant
// scheduler), collective checkpoint/restart, and dual-modular redundancy.
//
// The example quantifies the paper's positioning arguments on a live run:
// checkpointing pays synchronization and copying even without faults and
// rolls back healthy work when one task fails; replication pays the whole
// computation twice, always; selective recovery pays almost nothing without
// faults and re-executes only what was lost.
//
// Note: the checkpoint executor lives in the library's internals as a
// comparator for the benchmark harness; this example drives it through
// `go run`, so it imports it directly. Dual-modular redundancy is the same
// fault-tolerant scheduler with every task in its replica set.
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"

	"ftdag"
	"ftdag/internal/comparators"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/replica"
)

func main() {
	// A layered workload: 12 layers × 24 tasks, each task folding its
	// predecessors with a little arithmetic to give the kernels weight.
	g := graph.Layered(12, 24, 4, 2024, func(key graph.Key, vals [][]float64) []float64 {
		acc := float64(key)
		for i := 0; i < 20000; i++ {
			acc += float64(i%7) * 1e-9
		}
		for _, v := range vals {
			acc += v[0] * 1e-6
		}
		return []float64{acc}
	})
	props := ftdag.Analyze(g)
	fmt.Println("workload:", props)

	const faults = 8
	mkPlan := func() *fault.Plan {
		p := fault.NewPlan()
		for _, k := range fault.SelectTasks(g, fault.AnyTask, faults, 99) {
			p.Add(k, fault.AfterCompute, 1)
		}
		return p
	}

	fmt.Printf("%-22s %12s %12s %10s\n", "scheme", "clean", "with faults", "reexec")

	// Selective recovery (the paper's contribution).
	clean, err := ftdag.Run(g, ftdag.Config{Workers: 4})
	check(err)
	faulty, err := ftdag.Run(g, ftdag.Config{Workers: 4, Plan: mkPlan()})
	check(err)
	mustEqual(clean.Sink, faulty.Sink)
	fmt.Printf("%-22s %12v %12v %10d\n", "ft-selective", clean.Elapsed.Round(10e3), faulty.Elapsed.Round(10e3), faulty.ReexecutedTasks)

	// Collective checkpoint/restart.
	ckClean, ckCleanStats, err := comparators.NewCheckpoint(g, ftdag.Config{Workers: 4}, 3).Run()
	check(err)
	ckFaulty, ckStats, err := comparators.NewCheckpoint(g, ftdag.Config{Workers: 4, Plan: mkPlan()}, 3).Run()
	check(err)
	mustEqual(clean.Sink, ckFaulty.Sink)
	fmt.Printf("%-22s %12v %12v %10d   (%d checkpoints, %d rollbacks)\n",
		"checkpoint/restart", ckClean.Elapsed.Round(10e3), ckFaulty.Elapsed.Round(10e3),
		ckFaulty.ReexecutedTasks, ckCleanStats.Checkpoints, ckStats.Rollbacks)

	// Dual-modular redundancy.
	all := replica.Select(g, replica.Policy{Budget: 1})
	rClean, err := ftdag.Run(g, ftdag.Config{Workers: 4, Replicate: all})
	check(err)
	rFaulty, err := ftdag.Run(g, ftdag.Config{Workers: 4, Plan: mkPlan(), Replicate: all})
	check(err)
	mustEqual(clean.Sink, rFaulty.Sink)
	fmt.Printf("%-22s %12v %12v %10d   (%d shadow computes fault-free, 2x base work)\n",
		"replication (DMR)", rClean.Elapsed.Round(10e3), rFaulty.Elapsed.Round(10e3),
		rFaulty.ReexecutedTasks, rClean.Metrics.ShadowComputes)

	fmt.Println("\nall three schemes produced identical results; selective recovery")
	fmt.Printf("re-executed %d tasks for %d faults, checkpointing re-executed %d,\n",
		faulty.ReexecutedTasks, faults, ckFaulty.ReexecutedTasks)
	fmt.Println("and replication executed every task twice before any fault happened.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustEqual(a, b []float64) {
	if len(a) != len(b) || a[0] != b[0] {
		log.Fatalf("results differ: %v vs %v", a, b)
	}
}
