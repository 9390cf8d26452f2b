package core

import (
	"errors"
	"fmt"
	"time"

	"ftdag/internal/block"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/replica"
	"ftdag/internal/trace"
)

// Config configures an executor run.
type Config struct {
	// Workers is the number of scheduler workers P (default 1).
	Workers int
	// Retention is the block store's version retention K: 0 retains all
	// versions (single-assignment), 1 is the memory-reuse configuration,
	// 2 is the two-version configuration the paper uses for
	// Floyd-Warshall.
	Retention int
	// Plan is the fault-injection plan (nil: no faults).
	Plan *fault.Plan
	// VerifyChecksums additionally validates block checksums on every
	// read (block.WithVerification).
	VerifyChecksums bool
	// Timeout bounds the run; 0 means no bound. A correct FT execution
	// always drains (Lemma 3), so tests set this as a hang watchdog.
	Timeout time.Duration
	// Cancel, when non-nil, aborts the run cooperatively (between tasks)
	// as soon as it is closed; Run then returns ErrCancelled.
	Cancel <-chan struct{}
	// Spans, when non-nil, is the process-wide distributed-trace recorder:
	// the executor emits compute, fault-injection, recovery, and
	// replica-digest-join spans into it under SpanCtx's trace, so one
	// cluster trace links what every process did to a job. Nil disables
	// span emission at a cost of one pointer check per site.
	Spans *trace.Spans
	// SpanCtx positions this run in a distributed trace: executor spans
	// parent to SpanCtx.Span (typically the service's job-run span).
	SpanCtx trace.SpanContext
	// SpanJob is the service-assigned job ID stamped on executor spans.
	SpanJob int64
	// TimeLatency makes the run time each FT compute and recovery into its
	// per-worker shards of the two latency histograms (LiveTally's Latency,
	// which Observe's families read). Off, it costs one branch per site.
	TimeLatency bool
	// Replicate selects the tasks to execute twice on distinct workers
	// with digest comparison at the join (internal/replica). Nil (or an
	// empty set) disables replication; a full set is dual modular
	// redundancy. On digest disagreement the task is invalidated and
	// re-executed through the ordinary FT-NABBIT recovery machinery.
	Replicate *replica.Set
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c Config) newStore() *block.Store {
	var opts []block.Option
	if c.VerifyChecksums {
		opts = append(opts, block.WithVerification())
	}
	return block.NewStore(c.Retention, opts...)
}

// ErrHung reports that the scheduler drained without completing the sink —
// this would contradict Lemma 3 and indicates an executor bug (or an
// injected fault on the sink's after-notify phase, which by design has no
// observer).
var ErrHung = errors.New("core: execution quiesced without completing the sink")

// ErrTimeout reports that the configured watchdog expired.
var ErrTimeout = errors.New("core: execution timed out")

// ErrCancelled reports that Config.Cancel fired before the run completed.
var ErrCancelled = errors.New("core: execution cancelled")

// FT is the fault-tolerant dynamic task graph executor of Figures 2 and 3.
// One FT value executes one graph once; construct a new one per run.
type FT = exec[ftState]

// Baseline is the original (non-fault-tolerant) NABBIT scheduler — the
// non-shaded portions of Figure 2, which is what the executor is when its
// descriptors hold no shaded state. It has no life numbers, bit vectors,
// recovery table, poisoning checks, fault plan, replicas or spans, and
// therefore pays none of their costs; Figure 4 compares it against the FT
// executor in the absence of faults.
type Baseline = exec[nabbitState]

// NewFT returns a fault-tolerant executor for the spec.
func NewFT(spec graph.Spec, cfg Config) *FT {
	return &FT{
		spec:  spec,
		cfg:   cfg,
		store: cfg.newStore(),
		plan:  cfg.Plan,
		met:   newMetrics(cfg.workers()),
	}
}

// NewBaseline returns a non-fault-tolerant executor for the spec. Without
// recovery nothing could act on an injected fault or a replica's digest
// mismatch, so a fault plan or a replica set is a programming error.
func NewBaseline(spec graph.Spec, cfg Config) *Baseline {
	if cfg.Plan.Len() > 0 {
		panic("core: baseline executor cannot run with a fault plan")
	}
	if cfg.Replicate.Len() > 0 {
		panic("core: baseline executor cannot replicate tasks")
	}
	return &Baseline{spec: spec, cfg: cfg, store: cfg.newStore(), met: newMetrics(cfg.workers())}
}

// LiveMetrics snapshots the executor's counters mid-run. Safe to call
// concurrently with the execution (the counters are atomics, summed over the
// workers' blocks); serves the live-introspection endpoints.
func (e *exec[S]) LiveMetrics() Metrics { return e.met.snapshot() }

// LiveTally is every count of the run as it stands — LiveMetrics, Result.Store
// and the latency histograms — for a registry's families (Observe). Safe to
// call concurrently with the execution; no count it reads ever goes down.
func (e *exec[S]) LiveTally() Tally {
	return Tally{Metrics: e.met.snapshot(), Store: e.met.storeStats(e.store), Latency: e.met.latency()}
}

// TasksDiscovered returns the number of task descriptors inserted so far —
// a live progress indicator that converges on the graph's task count.
func (e *exec[S]) TasksDiscovered() int { return e.tasks.Len() }

// runOn executes the task graph as group g of a pool: it submits the sink's
// exploration and waits, in one select, for the group's quiescence,
// Config.Cancel and Config.Timeout. However the run ends, its store and its
// workers' caches hand their buffers to the shared free list on the way out
// (block.Store.Release, block.Cache.Release), once the sink has been copied
// out; a compute that a cancel or a timeout leaves running then reads
// ErrNotRetained, and takes and frees its buffers through the shared list.
func (e *exec[S]) runOn(g group) (*Result, error) {
	defer e.met.release()
	defer e.store.Release()
	start := time.Now()
	e.group = g
	sink, _ := e.insertIfAbsent(e.spec.Sink())
	g.submit((*exploreJob[S])(sink))
	done := make(chan struct{})
	go func() { g.Wait(); close(done) }() // Wait returns on Abort too
	var timeout <-chan time.Time
	if e.cfg.Timeout > 0 {
		timer := time.NewTimer(e.cfg.Timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-done:
	case <-e.cfg.Cancel:
		g.Abort()
		return nil, ErrCancelled
	case <-timeout:
		g.Abort() // stop scheduling further traversal work
		return nil, fmt.Errorf("%w after %v\n%s", ErrTimeout, e.cfg.Timeout, e.DumpStuck(16))
	}
	elapsed := time.Since(start)

	st, ok := e.tasks.Load(e.spec.Sink())
	if !ok || st.Status() != Completed {
		return nil, ErrHung
	}
	res := &Result{
		Elapsed: elapsed,
		Tasks:   e.tasks.Len(),
		Metrics: e.met.snapshot(),
		Store:   e.met.storeStats(e.store),
	}
	res.ReexecutedTasks = res.Metrics.Computes - int64(res.Tasks)
	data, err := st.slot.Read(st.out.Version, nil, nil)
	if err != nil {
		// Only possible when a fault was injected on the sink's
		// after-notify phase: nothing consumes the sink, so nothing
		// recovers it (paper §IV: "a failed task whose successors
		// already have been computed is not recovered").
		return res, fmt.Errorf("core: sink output unreadable: %w", err)
	}
	res.Sink = data
	return res, nil
}
