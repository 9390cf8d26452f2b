package sched_test

import (
	"testing"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
)

// TestSchedCountsStayPrivate pins the scheduler's rows of EXPERIMENTS.md's
// "shared-line atomic RMWs per task" table at zero, and a grouped job at two
// counts, counted by the pairs themselves: over a fault-free FT run of a
// layered DAG on one worker — every job of it in the run's group — the pool's
// worker pair is never written, its external pair takes the group's one hold
// (Submit) and its release, and Stats, folded from the group's pairs at the
// release, has every spawn added to and every job counted done in the
// worker's pair of the group's tally: one add and one done per job, where
// they used to be two of each (TestStatsAreThePairs).
func TestSchedCountsStayPrivate(t *testing.T) {
	g := graph.Layered(60, 32, 3, 17, nil)
	pool := sched.NewPool(1)
	res, err := core.NewFT(g, core.Config{Workers: 1, Timeout: 30 * time.Second}).RunOn(pool)
	if err != nil {
		t.Fatal(err)
	}
	wa, wd, ea, ed := pool.Pairs()
	if wa != 0 || wd != 0 {
		t.Fatalf("the pool's worker pair counted %d added, %d done for a grouped run, want 0 and 0", wa, wd)
	}
	if ea != 1 || ed != 1 {
		t.Fatalf("the pool's external pair: %d added, %d done; want 1 and 1 (the group's hold)", ea, ed)
	}
	s := pool.Close()
	if s.Jobs != s.Spawns+1 {
		t.Fatalf("group's worker pair: %d added, %d done; want done = added + the root", s.Spawns, s.Jobs)
	}
	if int(s.Spawns) < res.Tasks {
		t.Fatalf("%d spawns for %d tasks: the run did not go through the pool", s.Spawns, res.Tasks)
	}
}
