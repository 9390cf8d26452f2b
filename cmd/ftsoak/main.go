// Command ftsoak stress-tests the fault-tolerant scheduler for a wall-clock
// budget: each iteration builds a random layered task graph, runs it
// sequentially for ground truth, then replays it under the FT scheduler with
// a random fault storm (random points, task types, repeat-failure counts,
// worker counts) and verifies every task's output. Any divergence, hang, or
// error aborts with a reproduction recipe (graph seed + fault plan JSON).
//
// The -service mode routes the same scenarios through the multi-job
// execution service instead of one-shot executors: batches of concurrent
// jobs share one long-lived pool, and every job's full output is verified,
// checking Theorem 1 end-to-end under multi-tenant load.
//
// The -crash mode soaks the durable journaled service instead: a child
// server process is repeatedly SIGKILLed at random points (-cycles kills,
// or until a run finishes early) and restarted from the same -data-dir
// (with one deliberately corrupted journal tail along the way), and every
// job is verified across restarts against its sequential reference digest.
//
// The -cluster mode soaks the shard layer: three child backends behind an
// in-process router, a standby mirroring the busiest backend's WAL over
// /journal/stream, one SIGKILL mid-storm, and every job — including the
// dead backend's re-routed shard and the promoted standby's replay — must
// still fold to its sequential reference digest.
//
//	ftsoak -duration 30s
//	ftsoak -duration 5m -maxworkers 8 -v
//	ftsoak -duration 1m -service -jobs 4
//	ftsoak -crash -cycles 8 -crashjobs 12
//	ftsoak -cluster -crashjobs 12
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/service"
)

func main() {
	var (
		duration   = flag.Duration("duration", 30*time.Second, "how long to soak")
		seed       = flag.Int64("seed", time.Now().UnixNano(), "master seed (printed for reproduction)")
		maxWorkers = flag.Int("maxworkers", 4, "maximum worker count per iteration")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-run hang watchdog")
		verbose    = flag.Bool("v", false, "print every iteration")
		useService = flag.Bool("service", false, "submit scenarios through the multi-job Server on one shared pool")
		jobs       = flag.Int("jobs", 4, "concurrent jobs per batch in -service mode")
		crash      = flag.Bool("crash", false, "kill-and-restart soak of the journaled service (spawns child processes)")
		cycles     = flag.Int("cycles", 8, "SIGKILL cycles in -crash mode before letting a run finish (a clean finish ends the loop early)")
		clusterM   = flag.Bool("cluster", false, "node-kill soak of the shard layer: 3 backends, router, standby failover (spawns child processes)")
		blackbox   = flag.Bool("blackbox", false, "with -cluster: assert every SIGKILLed child leaves a parseable black box and the merged cluster trace spans router + >= 2 backends")
		sdc        = flag.Bool("sdc", false, "storm selective-replication jobs with silent data corruptions and require exact detection accounting")
		sdcIters   = flag.Int("sdciters", 24, "jobs to run in -sdc mode")
		crashJobs  = flag.Int("crashjobs", 12, "total jobs the crash/cluster soak must complete")
		crashChild = flag.Bool("crashchild", false, "internal: run as a crash-soak child server")
		clustChild = flag.Bool("clusterchild", false, "internal: run as a cluster-soak backend node")
		dataDir    = flag.String("datadir", "", "internal: child journal directory")
	)
	flag.Parse()

	var childErr error
	switch {
	case *crashChild:
		childErr = runCrashChild(*dataDir, *seed, *crashJobs, *maxWorkers, *timeout)
	case *clustChild:
		childErr = runClusterChild(*dataDir, *maxWorkers, *timeout)
	case *crash:
		runCrashSoak(*seed, *cycles, *crashJobs, *maxWorkers, *timeout, *verbose)
	case *clusterM:
		runClusterSoak(*seed, *crashJobs, *maxWorkers, *timeout, *verbose, *blackbox)
	case *sdc:
		runSDCSoak(*seed, *sdcIters, *maxWorkers, *timeout, *verbose)
	default:
		fmt.Printf("ftsoak: seed=%d duration=%v\n", *seed, *duration)
		rng := rand.New(rand.NewSource(*seed))
		deadline := time.Now().Add(*duration)
		if *useService {
			soakService(rng, deadline, *maxWorkers, *jobs, *timeout, *verbose)
		} else {
			soakOnce(rng, deadline, *maxWorkers, *timeout, *verbose)
		}
	}
	if childErr != nil {
		fmt.Fprintf(os.Stderr, "ftsoak child: %v\n", childErr)
		os.Exit(1)
	}
}

// soakOnce is the one-shot mode: each iteration runs one random scenario
// under its own FT executor, with a storm over all three fault points.
func soakOnce(rng *rand.Rand, deadline time.Time, maxWorkers int, timeout time.Duration, verbose bool) {
	var iters, faultsInjected, recoveries int64
	for time.Now().Before(deadline) {
		iters++
		sc := newScenario(rng, 2, 6, 2, 8)
		plan := sc.storm(rng, fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify)
		workers := 1 + rng.Intn(maxWorkers)
		rec, verify := verified(sc.g, sc.want)
		res, err := core.NewFT(rec, core.Config{
			Workers:         workers,
			Plan:            plan,
			Timeout:         timeout,
			VerifyChecksums: true,
		}).Run()
		if err == nil {
			err = verify(res)
		}
		if err != nil {
			fail(sc.gseed, plan, err)
		}
		faultsInjected += res.Metrics.InjectionsFired
		recoveries += res.Metrics.Recoveries
		if verbose {
			fmt.Printf("iter %d: graph %dx%d seed=%d workers=%d faults=%d recoveries=%d reexec=%d OK\n",
				iters, sc.layers, sc.width, sc.gseed, workers,
				res.Metrics.InjectionsFired, res.Metrics.Recoveries, res.ReexecutedTasks)
		}
	}
	fmt.Printf("ftsoak: PASS — %d iterations, %d faults injected, %d recoveries, 0 divergences\n",
		iters, faultsInjected, recoveries)
}

// soakService drives random graph × fault-storm scenarios through the
// multi-job execution service in concurrent batches: every job gets its own
// Recorder spec and is verified task-by-task against a sequential ground
// truth, so any cross-job interference on the shared pool (a Theorem 1
// violation under multi-tenancy) is caught immediately.
func soakService(rng *rand.Rand, deadline time.Time, workers, batch int, timeout time.Duration, verbose bool) {
	srv, books := meteredServer(workers, batch, 2*batch)
	var batches, jobsRun, faultsInjected, recoveries int64
	for time.Now().Before(deadline) {
		batches++
		type pending struct {
			gseed uint64
			plan  *fault.Plan
			h     *service.Handle
		}
		ps := make([]pending, 0, batch)
		for i := 0; i < batch; i++ {
			sc := newScenario(rng, 2, 6, 2, 8)
			// Compute-point faults only: each firing is detected at the
			// faulted task itself and costs exactly one recovery, so the
			// post-soak scrape can assert recoveries == injections. (An
			// AfterNotify fault is detected downstream and re-arms tasks via
			// resets, breaking that 1:1 accounting; the one-shot soak above
			// still covers it.)
			plan := sc.storm(rng, fault.BeforeCompute, fault.AfterCompute)
			h, err := srv.Submit(verifiedJob(fmt.Sprintf("soak-%d", sc.gseed), sc.g, sc.want, plan, timeout))
			if err != nil {
				fail(sc.gseed, plan, fmt.Errorf("submit: %w", err))
			}
			ps = append(ps, pending{sc.gseed, plan, h})
		}
		for _, p := range ps {
			res, err := p.h.Wait()
			if err != nil {
				fail(p.gseed, p.plan, err)
			}
			// The recovery audit, job by job: a miss names the graph and
			// plan that reproduce it, which the sums below cannot.
			if m := res.Metrics; m.Recoveries != m.InjectionsFired {
				fail(p.gseed, p.plan, fmt.Errorf("job %d: %d recoveries for %d fired injections", p.h.ID(), m.Recoveries, m.InjectionsFired))
			}
			jobsRun++
			faultsInjected += res.Metrics.InjectionsFired
			recoveries += res.Metrics.Recoveries
			if verbose {
				fmt.Printf("batch %d job %d: seed=%d faults=%d recoveries=%d reexec=%d OK\n",
					batches, p.h.ID(), p.gseed,
					res.Metrics.InjectionsFired, res.Metrics.Recoveries, res.ReexecutedTasks)
			}
		}
	}
	stats := srv.Close()
	fmt.Printf("ftsoak: PASS (service) — %d batches, %d jobs, %d faults injected, %d recoveries, 0 divergences\n",
		batches, jobsRun, faultsInjected, recoveries)
	fmt.Printf("ftsoak: shared pool: %v\n", stats)

	// Final scrape diff: the soak doubles as a metric-accounting check. The
	// registry's global counters must agree with the per-job results summed
	// above, and — with the storm restricted to compute points — every fired
	// injection must account for exactly one recovery.
	fmt.Println("ftsoak: /metrics scrape diff (post - pre):")
	for _, s := range books.reg.Gather() {
		if d := s.Value - books.pre[s.Name+s.Labels]; d != 0 {
			fmt.Printf("  %s%s %+g\n", s.Name, s.Labels, d)
		}
	}
	books.mustMove("ftdag_injections_fired_total", faultsInjected)
	books.mustMove("ftdag_recoveries_total", recoveries)
	books.mustMove("ftdag_jobs_succeeded_total", jobsRun)
	if recoveries != faultsInjected {
		fail(0, nil, fmt.Errorf("metric accounting: %d recoveries for %d fired injections", recoveries, faultsInjected))
	}
	fmt.Printf("ftsoak: metric accounting OK — recoveries_total == injections fired == %d\n", faultsInjected)
}

func fail(gseed uint64, plan *fault.Plan, err error) {
	fmt.Fprintf(os.Stderr, "ftsoak: FAILURE: %v\n", err)
	fmt.Fprintf(os.Stderr, "  graph seed: %d\n", gseed)
	if plan != nil {
		if data, jerr := json.MarshalIndent(plan, "  ", "  "); jerr == nil {
			fmt.Fprintf(os.Stderr, "  fault plan: %s\n", data)
		}
	}
	os.Exit(1)
}
