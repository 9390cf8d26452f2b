package sched_test

import (
	"testing"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
)

// TestSchedCountsStayPrivate pins the scheduler's rows of the "shared-line
// atomic read-modify-writes per task" table (perf row "Quiescence without a
// shared counter", `git show bf78316:EXPERIMENTS.md`) at zero, and a grouped
// job at two counts, counted by the pairs themselves: over a fault-free run
// of a layered DAG on one worker, by either executor — every job of it in the
// run's group — the pool's worker pair is never written, its external pair
// takes the group's one hold (Submit) and its release, and Stats, folded
// from the group's pairs at the release, has every spawn added to and every
// job counted done in the worker's pair of the group's tally: one add and one
// done per job, where they used to be two of each (TestStatsAreThePairs).
func TestSchedCountsStayPrivate(t *testing.T) {
	g := graph.Layered(60, 32, 3, 17, nil)
	cfg := core.Config{Workers: 1, Timeout: 30 * time.Second}
	for name, runOn := range map[string]func(*sched.Pool) (*core.Result, error){
		"FT":     core.NewFT(g, cfg).RunOn,
		"NABBIT": core.NewBaseline(g, cfg).RunOn,
	} {
		pool := sched.NewPool(1)
		res, err := runOn(pool)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wa, wd, ea, ed := pool.Pairs()
		if wa != 0 || wd != 0 {
			t.Fatalf("%s: the pool's worker pair counted %d added, %d done for a grouped run, want 0 and 0", name, wa, wd)
		}
		if ea != 1 || ed != 1 {
			t.Fatalf("%s: the pool's external pair: %d added, %d done; want 1 and 1 (the group's hold)", name, ea, ed)
		}
		s := pool.Close()
		if s.Jobs != s.Spawns+1 {
			t.Fatalf("%s: group's worker pair: %d added, %d done; want done = added + the root", name, s.Spawns, s.Jobs)
		}
		if int(s.Spawns) < res.Tasks {
			t.Fatalf("%s: %d spawns for %d tasks: the run did not go through the pool", name, s.Spawns, res.Tasks)
		}
	}
}
