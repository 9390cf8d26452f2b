// What the in-process modes (one-shot, -service, -sdc) and the crash jobs
// share: a random layered graph with its sequential ground truth, a
// Recorder-wrapped spec whose Verify holds every task's output to it, a
// random fault storm, and the registry-against-per-job-sums ledger.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
)

// truth runs g sequentially under a Recorder: every task's fault-free output.
func truth(g graph.Spec) (map[graph.Key][]float64, error) {
	rec := core.NewRecorder(g)
	if _, err := core.NewSequential(rec, 0).Run(); err != nil {
		return nil, err
	}
	return rec.Outputs(), nil
}

// verified wraps spec in a Recorder and returns it with the check — the
// shape of JobSpec.Verify — that every task's recorded output equals want.
func verified(spec graph.Spec, want map[graph.Key][]float64) (*core.Recorder, func(*core.Result) error) {
	rec := core.NewRecorder(spec)
	return rec, func(*core.Result) error {
		if d := rec.Diff(want); d != "" {
			return fmt.Errorf("output divergence: %s", d)
		}
		return nil
	}
}

// scenario is one random layered graph and its ground truth.
type scenario struct {
	gseed         uint64
	layers, width int
	g             graph.Spec
	want          map[graph.Key][]float64
}

// newScenario draws, in this order, the graph seed, layers from
// [minL, minL+spanL), width from [minW, minW+spanW) and max-in from [1, 3].
func newScenario(rng *rand.Rand, minL, spanL, minW, spanW int) scenario {
	sc := scenario{gseed: rng.Uint64() | 1, layers: minL + rng.Intn(spanL), width: minW + rng.Intn(spanW)}
	sc.g = graph.Layered(sc.layers, sc.width, 1+rng.Intn(3), sc.gseed, nil)
	var err error
	if sc.want, err = truth(sc.g); err != nil {
		fail(sc.gseed, nil, fmt.Errorf("sequential: %w", err))
	}
	return sc
}

// storm plans faults on fewer than half the tasks, each at a random one of
// points and failing one to three times in a row.
func (sc scenario) storm(rng *rand.Rand, points ...fault.Point) *fault.Plan {
	plan := fault.NewPlan()
	n := rng.Intn(sc.layers * sc.width / 2)
	for _, k := range fault.SelectTasks(sc.g, fault.AnyTask, n, rng.Int63()) {
		plan.Add(k, points[rng.Intn(len(points))], 1+rng.Intn(3))
	}
	return plan
}

// verifiedJob is spec under plan as a service job that holds every task's
// output to want.
func verifiedJob(name string, spec graph.Spec, want map[graph.Key][]float64, plan *fault.Plan, timeout time.Duration) service.JobSpec {
	rec, verify := verified(spec, want)
	return service.JobSpec{Name: name, Spec: rec, Plan: plan, VerifyChecksums: true, Deadline: timeout, Verify: verify}
}

// ledger holds a registry to the per-job results: a soak sums what its jobs
// reported and each counter must have moved by exactly that.
type ledger struct {
	reg *metrics.Registry
	pre map[string]float64 // name+labels → value when the ledger was opened
}

// meteredServer starts a service on a fresh registry with an open ledger.
func meteredServer(workers, concurrent, queued int) (*service.Server, ledger) {
	reg := metrics.NewRegistry()
	srv := service.New(service.Config{Workers: workers, MaxConcurrentJobs: concurrent, MaxQueuedJobs: queued, Registry: reg})
	l := ledger{reg: reg, pre: make(map[string]float64)}
	for _, s := range reg.Gather() {
		l.pre[s.Name+s.Labels] = s.Value
	}
	return srv, l
}

func (l ledger) mustMove(name string, want int64) {
	got, ok := l.reg.Value(name)
	if !ok || int64(got)-int64(l.pre[name]) != want {
		fail(0, nil, fmt.Errorf("metric accounting: %s moved by %v, want %d", name, got-l.pre[name], want))
	}
}
