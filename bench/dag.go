package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"ftdag/internal/block"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/replica"
	"ftdag/internal/sched"
	"ftdag/internal/stats"
)

// dagItem is one task graph of a workload's DAG set, with the sequential
// reference digest every execution of it is checked against.
type dagItem struct {
	name      string // app name, reported when a digest mismatches
	spec      graph.Spec
	retention int
	repeat    int    // executions per rep
	want      string // journal.Digest of the sequential run's sink
	tasks     int
	repl      *replica.Set              // set when the workload replicates
	plan      func(rep int) *fault.Plan // nil: this item is never faulted
	request   map[string]any            // service workload: the POST /jobs body
}

// execConfig is one way of executing the DAG set.
type execConfig struct {
	baseline  bool // plain NABBIT (core.NewBaseline) instead of the FT executor
	verify    bool // FT with VerifyChecksums
	replicate bool // FT with the item's replica set
	faults    bool // FT under the item's fault plan
}

// hangWatchdog bounds one execution; a run that exceeds it is a failed
// operation (Lemma 3 says a correct executor always drains).
const hangWatchdog = 60 * time.Second

// reference computes the item's sequential digest and task count.
func (it *dagItem) reference() error {
	res, err := core.NewSequential(it.spec, it.retention).Run()
	if err != nil {
		return fmt.Errorf("%s sequential reference: %w", it.name, err)
	}
	it.want = journal.Digest(res.Sink)
	it.tasks = res.Tasks
	return nil
}

// counts are the executor, scheduler and store counters of a set of runs.
type counts struct {
	tasks int64
	m     core.Metrics
	reex  int64
	s     sched.Stats
	b     block.Stats
}

func (c *counts) add(res *core.Result) {
	c.tasks += int64(res.Tasks)
	c.reex += res.ReexecutedTasks
	m, r := &c.m, res.Metrics
	m.Computes += r.Computes
	m.Recoveries += r.Recoveries
	m.Resets += r.Resets
	m.Registrations += r.Registrations
	m.Notifications += r.Notifications
	m.InjectionsFired += r.InjectionsFired
	m.ReplicatedTasks += r.ReplicatedTasks
	m.ShadowComputes += r.ShadowComputes
	s, q := &c.s, res.Sched
	s.Spawns += q.Spawns
	s.Steals += q.Steals
	s.FailedSteals += q.FailedSteals
	s.Parks += q.Parks
	s.IdleTime += q.IdleTime
	b, t := &c.b, res.Store
	b.Writes += t.Writes
	b.Reads += t.Reads
	b.Evictions += t.Evictions
	b.CorruptReads += t.CorruptReads
	b.MissingReads += t.MissingReads
	if t.BytesRetained > b.BytesRetained {
		b.BytesRetained = t.BytesRetained
	}
}

// runSet executes every item of the set once (times its repeat) under cfg and
// returns the summed wall time of the executions. Plans are built before the
// clock starts. Every execution is a checked operation.
func (e *env) runSet(items []dagItem, cfg execConfig, rep int, rec *recorder, into *counts, jobMS *[]float64) time.Duration {
	var total time.Duration
	for i := range items {
		it := &items[i]
		for r := 0; r < it.repeat; r++ {
			c := core.Config{Workers: e.nproc, Retention: it.retention, VerifyChecksums: cfg.verify, Timeout: hangWatchdog}
			if cfg.replicate {
				c.Replicate = it.repl
			}
			if cfg.faults && it.plan != nil {
				c.Plan = it.plan(rep*it.repeat + r)
			}
			spec := it.spec
			if rec != nil {
				spec = tracedSpec{spec, rec}
			}
			var res *core.Result
			var err error
			start := time.Now()
			if cfg.baseline {
				res, err = core.NewBaseline(spec, c).Run()
			} else {
				res, err = core.NewFT(spec, c).Run()
			}
			dur := time.Since(start)
			total += dur
			switch {
			case err != nil:
				e.tally.fail(it.name, err.Error())
				continue
			case journal.Digest(res.Sink) != it.want:
				e.tally.fail(it.name, "sink digest differs from the sequential reference")
			default:
				e.tally.ok()
			}
			if into != nil {
				into.add(res)
			}
			if jobMS != nil {
				*jobMS = append(*jobMS, ms(dur))
			}
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dagMeasure is what the measured reps of a DAG set yield.
type dagMeasure struct {
	reps      int
	primaryMS []float64 // wall time of the set under the primary config, per rep, at the reference host's speed
	rawMS     []float64 // the same as measured
	speed     []float64 // host speed of each rep (calibration before and after it)
	refMS     []float64 // same under the reference config
	ratio     []float64 // primary ÷ reference, same inputs, same rep
	allocMB   []float64 // TotalAlloc delta of the primary run, per rep
	peakRSSMB []float64 // peak resident set during the primary run, per rep
	jobMS     []float64 // every single primary execution
	tracedMS  []float64 // traced primary run, per rep (trace only)
	traceOver []float64 // traced ÷ untraced primary, same rep (trace only)
	gcPauseMS float64   // GC pause total over the window
	traced    counts    // counters of the traced runs (trace only)
	spans     layerTotals
	tasksRep  int   // tasks of one rep of the set
	rssErr    error // the first failure to read a rep's peak resident set
}

// measureDAG runs reps of the set for the window: the reference config (when
// there is one) and the primary config in the same rep, in alternating order
// so drift and order effects cancel; a traced rep of the primary is added
// when tracing. The first warm-up reps are run and dropped. A collection
// before each run gives every variant the same heap to start from.
func (e *env) measureDAG(ctx context.Context, items []dagItem, primary execConfig, reference *execConfig, window time.Duration) dagMeasure {
	var m dagMeasure
	for i := range items {
		m.tasksRep += items[i].tasks * items[i].repeat
	}
	warmup, minReps := warmupReps, 3
	if e.o.smoke {
		warmup, minReps = 0, 1
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pauseStart := ms0.PauseTotalNs
	var spansStart layerTotals
	if e.rec != nil {
		spansStart = e.rec.totals()
	}
	begin := time.Now()
	cal := e.cal.run()
	for rep := 0; ctx.Err() == nil; rep++ {
		measured := rep >= warmup
		if measured && m.reps >= minReps && time.Since(begin) >= window {
			break
		}
		var jobs *[]float64 // per-job times are kept for measured reps only
		if measured {
			jobs = &m.jobMS
		}
		var pri, ref time.Duration
		var alloc, rss float64
		runPrimary := func() {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			rssErr := resetSelfPeakRSS()
			pri = e.runSet(items, primary, rep, nil, nil, jobs)
			runtime.ReadMemStats(&ms1)
			alloc = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
			if rssErr == nil {
				rss, rssErr = peakRSSMB(os.Getpid())
			}
			if rssErr != nil && m.rssErr == nil {
				m.rssErr = rssErr
			}
		}
		runReference := func() {
			if reference != nil {
				runtime.GC()
				ref = e.runSet(items, *reference, rep, nil, nil, nil)
			}
		}
		if rep%2 == 0 {
			runReference()
			runPrimary()
		} else {
			runPrimary()
			runReference()
		}
		next := e.cal.run()
		speed := hostSpeed(cal, next)
		cal = next
		if !measured {
			continue
		}
		m.reps++
		m.primaryMS = append(m.primaryMS, ms(pri)*speed)
		m.rawMS = append(m.rawMS, ms(pri))
		m.speed = append(m.speed, speed)
		m.allocMB = append(m.allocMB, alloc)
		m.peakRSSMB = append(m.peakRSSMB, rss)
		if reference != nil {
			m.refMS = append(m.refMS, ms(ref))
			m.ratio = append(m.ratio, float64(pri)/float64(ref))
		}
		if e.rec != nil {
			runtime.GC()
			traced := e.runSet(items, primary, rep, e.rec, &m.traced, nil)
			m.tracedMS = append(m.tracedMS, ms(traced))
			m.traceOver = append(m.traceOver, float64(traced)/float64(pri))
		}
	}
	runtime.ReadMemStats(&ms1)
	m.gcPauseMS = float64(ms1.PauseTotalNs-pauseStart) / 1e6
	if e.rec != nil {
		m.spans = e.rec.totals().sub(spansStart)
	}
	return m
}

// dagEndToEnd sets the end-to-end metrics of a DAG workload.
func (e *env) dagEndToEnd(m dagMeasure) {
	makespan := stats.Median(m.primaryMS)
	e.set("makespan_ms", makespan)
	e.set("overhead_ratio", stats.Median(m.ratio))
	e.set("throughput_per_s", float64(m.tasksRep)/(makespan/1000))
	e.set("alloc_mb", stats.Median(m.allocMB))
	e.set("max_rss_mb", stats.Median(m.peakRSSMB))
	fmt.Fprintf(e.report, "per rep: makespan_ms %.1f\n  as measured %.1f\n  host speed %.3f\n  reference_ms as measured %.1f\n",
		m.primaryMS, m.rawMS, m.speed, m.refMS)
	fmt.Fprintf(e.report, "reps %d  makespan_ms p50 %.3f (q1 %.3f q3 %.3f; as measured %.3f)  reference_ms p50 %.3f as measured  overhead_ratio %.4f (base: reference_ms)\n",
		m.reps, makespan, stats.Quantile(m.primaryMS, 0.25), stats.Quantile(m.primaryMS, 0.75), stats.Median(m.rawMS),
		stats.Median(m.refMS), stats.Median(m.ratio))
}
