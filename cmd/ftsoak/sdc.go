// SDC soak: storms selective-replication jobs with silent-data-corruption
// injections and fails unless detection is airtight. Every victim task is
// chosen from the job's replica-covered set, so a correct detector catches
// 100% of the injections: each job must report detected == injected and
// missed == 0, every sink must match the sequential reference (the detected
// corruption was re-executed away), and at the end the metrics registry's
// ftdag_sdc_*_total counters must reconcile exactly with the per-job sums.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/replica"
	"ftdag/internal/service"
)

// sdcBudgets are the selective budgets the soak cycles through. All are high
// enough that Select covers at least a few tasks on the soak's graph sizes.
var sdcBudgets = []float64{0.25, 0.5, 0.75, 1.0}

func runSDCSoak(seed int64, iters, workers int, timeout time.Duration, verbose bool) {
	fmt.Printf("ftsoak: sdc soak seed=%d iters=%d\n", seed, iters)
	rng := rand.New(rand.NewSource(seed))
	srv, books := meteredServer(workers, 2, iters+4)

	var jobsRun, injected, detected, replicated int64
	for i := 0; i < iters; i++ {
		sc := newScenario(rng, 3, 4, 4, 5)
		budget := sdcBudgets[i%len(sdcBudgets)]
		set := replica.Select(sc.g, replica.Policy{Budget: budget})

		// Victims come from the covered set (sink excluded, matching
		// fault.SelectTasks), so the budget always dominates the injected
		// fraction and full detection is the hard requirement, not a hope.
		var pool []graph.Key
		for _, k := range set.Keys() {
			if k != sc.g.Sink() {
				pool = append(pool, k)
			}
		}
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		n := 1 + rng.Intn(3)
		if n > len(pool) {
			n = len(pool)
		}
		plan := fault.NewPlan()
		for _, k := range pool[:n] {
			plan.Add(k, fault.SDC, 1)
		}

		spec := verifiedJob(fmt.Sprintf("sdc-%d", sc.gseed), sc.g, sc.want, plan, timeout)
		spec.Recovery, spec.ReplicaBudget = service.RecoverReplicateSelective, budget
		h, err := srv.Submit(spec)
		if err != nil {
			fail(sc.gseed, plan, fmt.Errorf("submit: %w", err))
		}
		res, err := h.Wait()
		if err != nil {
			fail(sc.gseed, plan, err)
		}
		m := res.Metrics
		if m.SDCInjected != int64(n) {
			fail(sc.gseed, plan, fmt.Errorf("sdc: %d injections fired, planned %d", m.SDCInjected, n))
		}
		if m.SDCDetected != m.SDCInjected || m.SDCMissed != 0 {
			fail(sc.gseed, plan, fmt.Errorf(
				"sdc: budget %.2f covered every victim yet detection leaked: injected=%d detected=%d missed=%d",
				budget, m.SDCInjected, m.SDCDetected, m.SDCMissed))
		}
		jobsRun++
		injected += m.SDCInjected
		detected += m.SDCDetected
		replicated += m.ReplicatedTasks
		if verbose {
			fmt.Printf("iter %d: graph %dx%d seed=%d budget=%.2f replicated=%d sdc=%d/%d OK\n",
				i+1, sc.layers, sc.width, sc.gseed, budget, m.ReplicatedTasks, m.SDCDetected, m.SDCInjected)
		}
	}
	srv.Close()

	// Registry reconciliation: the scrape-level counters must agree exactly
	// with the per-job sums — a detection that happened but was not
	// accounted (or vice versa) is a failure even if every sink verified.
	books.mustMove("ftdag_sdc_injected_total", injected)
	books.mustMove("ftdag_sdc_detected_total", detected)
	books.mustMove("ftdag_sdc_missed_total", 0)
	books.mustMove("ftdag_replicated_tasks_total", replicated)
	if detected != injected {
		fail(0, nil, fmt.Errorf("sdc: %d detections for %d injections", detected, injected))
	}
	fmt.Printf("ftsoak: PASS (sdc) — %d jobs, %d SDCs injected on covered tasks, %d detected, 0 missed, 0 divergences\n",
		jobsRun, injected, detected)
}
