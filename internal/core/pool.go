package core

import (
	"errors"
	"fmt"
	"time"

	"ftdag/internal/block"
	"ftdag/internal/sched"
)

// This file is the executor's one seam onto a scheduler. Fig. 2 and Fig. 3
// ask of a work-stealing pool only what worker, job and group declare, so the
// same executor runs on the production pool (internal/sched), bound below,
// and on the tests' central-queue pool (pool_test.go).

// worker is the pool worker a job runs on. Its id picks a metrics block, and
// is a field because an ID method called through an interface there cost
// ≈ 3 % of finegrain_dag's makespan. sw is the production pool's worker, where
// spawns land; any other pool leaves it nil.
type worker struct {
	id int
	sw *sched.Worker
}

// job is a unit of work the executor spawns: task.go's three job types and a
// replicated task's shadow (replicaJoin).
type job interface{ run(w worker, arg int) }

// group is one run's work on a pool: abort and quiescence see exactly the
// jobs submitted or spawned through it, even on a pool shared with other
// runs. Wait, Abort and Aborted mean what sched.Group's do.
type group interface {
	submit(j job)                   // run j from outside the pool
	spawn(w worker, j job, arg int) // run j from a job on w, on w's own queue where there is one
	spawnAvoiding(w worker, j job)  // run j on any worker but w (worker 0 on a one-worker pool)
	Wait()
	Abort()
	Aborted() bool
}

// schedGroup is a run's group on the production pool, where every job type
// runs as a sched.Runner (the Run methods below): a spawn passes the task
// descriptor, and allocates nothing.
type schedGroup struct{ g *sched.Group }

func (s schedGroup) submit(j job) { s.g.Submit(func(w *sched.Worker) { j.run(worker{w.ID(), w}, 0) }) }
func (s schedGroup) spawn(w worker, j job, arg int) {
	s.g.SpawnRunner(w.sw, j.(sched.Runner), arg)
}
func (s schedGroup) spawnAvoiding(w worker, j job) {
	s.g.SpawnAvoiding(w.sw, func(w *sched.Worker) { j.run(worker{w.ID(), w}, 0) })
}
func (s schedGroup) Wait()         { s.g.Wait() }
func (s schedGroup) Abort()        { s.g.Abort() }
func (s schedGroup) Aborted() bool { return s.g.Aborted() }

func (j *exploreJob[S]) Run(w *sched.Worker, arg int)  { j.run(worker{w.ID(), w}, arg) }
func (j *traverseJob[S]) Run(w *sched.Worker, arg int) { j.run(worker{w.ID(), w}, arg) }
func (j *drainJob[S]) Run(w *sched.Worker, arg int)    { j.run(worker{w.ID(), w}, arg) }

// Result summarises one task graph execution.
type Result struct {
	// Sink is the output data block of the sink task.
	Sink []float64
	// Elapsed is the wall-clock execution time (graph traversal only,
	// excluding construction).
	Elapsed time.Duration
	// Tasks is the number of distinct tasks inserted into the task
	// table (≥ T; recovery replaces in place so this equals T when the
	// whole graph was reached).
	Tasks int
	// ReexecutedTasks is Computes − Tasks: the number of task
	// executions beyond the first, the quantity Table II reports.
	ReexecutedTasks int64
	Metrics         Metrics
	Sched           sched.Stats
	Store           block.Stats
}

func (r *Result) String() string {
	return fmt.Sprintf("elapsed=%v tasks=%d reexec=%d %v", r.Elapsed, r.Tasks, r.ReexecutedTasks, r.Metrics)
}

// Run executes the task graph to completion on a private pool of
// cfg.Workers workers and returns the result.
func (e *exec[S]) Run() (*Result, error) {
	pool := sched.NewPool(e.cfg.workers())
	res, err := e.RunOn(pool)
	if err != nil && errors.Is(err, ErrTimeout) {
		// Workers may be stuck inside a slow user compute, and Close waits
		// for them: close in the background, so the pool's workers exit once
		// the compute returns. Only a compute that never returns pins them.
		go pool.Close()
		return res, err
	}
	stats := pool.Close()
	if res != nil {
		res.Sched = stats
	}
	return res, err
}

// RunOn executes the task graph on a caller-owned pool, which may be shared
// with other concurrent executions. The run schedules all of its work
// through a private sched.Group, so Config.Cancel and Config.Timeout abort
// only this execution — the pool stays healthy and reusable. The caller
// keeps responsibility for closing the pool; Result.Sched is left zero here
// because a shared pool's counters are not attributable to one run (Run
// fills it for the single-run case).
func (e *exec[S]) RunOn(pool *sched.Pool) (*Result, error) {
	g := pool.NewGroup()
	if e.cfg.Spans != nil && e.cfg.SpanCtx.Valid() {
		// Steals of this run's tasks appear in its distributed trace.
		g.SetSpan(e.cfg.SpanCtx, e.cfg.SpanJob)
	}
	return e.runOn(schedGroup{g})
}
