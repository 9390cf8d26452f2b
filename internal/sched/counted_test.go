package sched_test

import (
	"testing"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
)

// TestSchedCountsStayPrivate pins the scheduler's rows of EXPERIMENTS.md's
// "shared-line atomic RMWs per task" table at zero, counted by the pairs
// themselves: over a fault-free FT run of a layered DAG on one worker, the one
// write to a pair that is not the executing worker's own is the root Submit —
// every spawn was added to, and every job counted done in, the worker's pair,
// which is what Stats reads (TestStatsAreThePairs).
func TestSchedCountsStayPrivate(t *testing.T) {
	g := graph.Layered(60, 32, 3, 17, nil)
	pool := sched.NewPool(1)
	res, err := core.NewFT(g, core.Config{Workers: 1, Timeout: 30 * time.Second}).RunOn(pool)
	if err != nil {
		t.Fatal(err)
	}
	if external := pool.ExternalAdded(); external != 1 {
		t.Fatalf("%d jobs were added to the shared external pair, want 1 (the root Submit)", external)
	}
	s := pool.Close()
	if s.Jobs != s.Spawns+1 {
		t.Fatalf("worker pair: %d added, %d done; want done = added + the root", s.Spawns, s.Jobs)
	}
	if int(s.Spawns) < res.Tasks {
		t.Fatalf("%d spawns for %d tasks: the run did not go through the pool", s.Spawns, res.Tasks)
	}
}
