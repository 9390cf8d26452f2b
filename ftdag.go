// Package ftdag is a fault-tolerant dynamic task graph scheduler, a Go
// implementation of "Fault-Tolerant Dynamic Task Graph Scheduling" (Kurt,
// Krishnamoorthy, K. Agrawal, G. Agrawal — SC 2014).
//
// A task graph is described by a Spec: integer task keys, ordered
// predecessor/successor functions, a sink task that transitively depends on
// everything, a data-block version produced by each task, and a compute
// function. The scheduler expands the graph dynamically from the sink and
// executes it with randomized work stealing (the NABBIT algorithm,
// Agrawal–Leiserson–Sukha 2010). The fault-tolerant executor augments the
// traversal so that detectable soft errors — corrupted task descriptors and
// corrupted or overwritten data-block versions — are recovered selectively
// and locally: only the threads that need a failed task participate in its
// recovery, each failed incarnation is recovered at most once, and the
// execution provably produces the same result as a fault-free run.
//
// # Quick start
//
//	g := ftdag.NewGraph(nil)                 // default demo kernel
//	g.AddTaskAuto(0).AddTaskAuto(1).AddTaskAuto(2)
//	g.AddEdge(0, 1).AddEdge(0, 2)
//	g.AddTaskAuto(3).AddEdge(1, 3).AddEdge(2, 3)
//	g.SetSink(3)
//	res, err := ftdag.Run(g, ftdag.Config{Workers: 4})
//
// To inject faults (for resilience testing), attach a Plan:
//
//	plan := ftdag.NewPlan().Add(1, ftdag.AfterCompute, 1)
//	res, err := ftdag.Run(g, ftdag.Config{Workers: 4, Plan: plan})
//
// The result is identical; the run's Metrics record the recovery work.
package ftdag

import (
	"ftdag/internal/block"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/service"
)

// Core model types. See the internal/graph package for full documentation.
type (
	// Key identifies a task (the paper's int64 task key).
	Key = graph.Key
	// Spec describes a dynamic task graph.
	Spec = graph.Spec
	// Context is the block-access interface handed to Compute.
	Context = graph.Context
	// BlockRef names one version of one data block.
	BlockRef = block.Ref
	// BlockID identifies a logical data block.
	BlockID = block.ID
	// BlockRun names strided words of a block version, for ReadPredAt.
	BlockRun = block.Run
	// Graph is an explicitly constructed Spec with builder methods.
	Graph = graph.Static
	// ComputeFunc is the kernel type used by Graph.
	ComputeFunc = graph.ComputeFunc
	// Props summarises a graph's static structure (T, E, S, degree).
	Props = graph.Props
)

// Execution types. See the internal/core package.
type (
	// Config configures an execution (workers, retention, plan, timeout).
	Config = core.Config
	// Result summarises one execution.
	Result = core.Result
	// Metrics are the executor counters of a run.
	Metrics = core.Metrics
	// Status is a task's execution status.
	Status = core.Status
)

// Fault-injection types. See the internal/fault package.
type (
	// Plan maps task keys to planned fault injections.
	Plan = fault.Plan
	// Point is a fault-injection point in a task's lifetime.
	Point = fault.Point
	// TaskType classifies tasks by produced block version.
	TaskType = fault.TaskType
	// FaultError attributes a detected error to a task incarnation.
	FaultError = fault.Error
)

// Task lifetime injection points (paper §VI-B).
const (
	BeforeCompute = fault.BeforeCompute
	AfterCompute  = fault.AfterCompute
	AfterNotify   = fault.AfterNotify
)

// Task-type selectors for fault injection (paper §VI-B).
const (
	AnyTask = fault.AnyTask
	V0      = fault.V0
	VLast   = fault.VLast
	VRand   = fault.VRand
)

// Task statuses (paper §III).
const (
	Visited   = core.Visited
	Computed  = core.Computed
	Completed = core.Completed
)

// Multi-job execution service types. See the internal/service package.
// A Service owns one long-lived work-stealing pool and multiplexes many
// concurrent task-graph jobs onto it, with bounded admission, per-job
// deadlines/cancellation, fault plans, and retrievable metrics/traces.
type (
	// Service is a long-lived multi-job execution server.
	Service = service.Server
	// ServiceConfig sizes a Service (workers, queue bound, concurrency).
	ServiceConfig = service.Config
	// JobSpec describes one job submitted to a Service.
	JobSpec = service.JobSpec
	// JobHandle is the caller's reference to a submitted job.
	JobHandle = service.Handle
	// JobStatus is a point-in-time job snapshot.
	JobStatus = service.Status
	// JobState is a job's lifecycle state.
	JobState = service.State
	// ServiceSnapshot aggregates a Service's observability counters.
	ServiceSnapshot = service.Snapshot
)

// Durable-journal types. See the internal/journal package. A Journal is an
// append-only, segmented, checksummed write-ahead log plus snapshot store
// for the service's job lifecycle: attach one via ServiceConfig.Journal
// (with a ServiceConfig.Rebuild callback) and the service survives crashes
// — finished jobs come back queryable, unfinished jobs are re-enqueued, and
// a torn or corrupted journal tail is truncated with a warning at the next
// open instead of refusing to boot.
type (
	// Journal is a durable write-ahead log of job lifecycle records.
	Journal = journal.Journal
	// JournalOptions configures OpenJournal (directory, segment size,
	// snapshot retention, fsync policy).
	JournalOptions = journal.Options
	// JournalStats counts appends, fsyncs, rotations, and snapshots.
	JournalStats = journal.Stats
)

// Job lifecycle states.
const (
	JobQueued    = service.Queued
	JobRunning   = service.Running
	JobSucceeded = service.Succeeded
	JobFailed    = service.Failed
	JobCancelled = service.Cancelled
)

// Sentinel errors.
var (
	// ErrHung reports quiescence without sink completion.
	ErrHung = core.ErrHung
	// ErrTimeout reports that Config.Timeout expired.
	ErrTimeout = core.ErrTimeout
	// ErrCancelled reports that Config.Cancel fired mid-run.
	ErrCancelled = core.ErrCancelled
	// ErrQueueFull reports that a Service's admission queue is at capacity.
	ErrQueueFull = service.ErrQueueFull
	// ErrServiceClosed reports a Submit after Service.Close.
	ErrServiceClosed = service.ErrClosed
	// ErrDeadlineExceeded reports that a job's deadline expired.
	ErrDeadlineExceeded = service.ErrDeadlineExceeded
)

// NewService starts a multi-job execution service: one shared work-stealing
// pool serving every submitted job, with admission control and per-job
// isolation (cancellation and faults stay local to the job). With
// cfg.Journal set the service is durable: submissions are fsynced before
// they are acknowledged, and NewService replays the journal — restoring
// finished jobs and re-enqueueing unfinished ones via cfg.Rebuild.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenJournal opens (or creates) a durable job journal in opts.Dir,
// replaying any existing snapshot and write-ahead-log segments and
// recovering from a torn tail by truncating it. Pass the journal to
// NewService via ServiceConfig.Journal; the service owns and closes it.
func OpenJournal(opts JournalOptions) (*Journal, error) { return journal.Open(opts) }

// Run executes the task graph with the fault-tolerant work-stealing
// scheduler (Figures 2–3 of the paper) and returns the run's result.
func Run(spec Spec, cfg Config) (*Result, error) {
	return core.NewFT(spec, cfg).Run()
}

// RunBaseline executes the task graph with the original non-fault-tolerant
// NABBIT scheduler. cfg.Plan and cfg.Replicate must be empty.
func RunBaseline(spec Spec, cfg Config) (*Result, error) {
	return core.NewBaseline(spec, cfg).Run()
}

// RunSequential executes the task graph on one thread in topological order
// (T1 measurement and ground-truth generation).
func RunSequential(spec Spec, retention int) (*Result, error) {
	return core.NewSequential(spec, retention).Run()
}

// NewGraph returns an empty explicit graph whose tasks run fn (nil for the
// default demo kernel: output = sum of predecessors' first elements + 1).
func NewGraph(fn ComputeFunc) *Graph { return graph.NewStatic(fn) }

// NewPlan returns an empty fault-injection plan.
func NewPlan() *Plan { return fault.NewPlan() }

// PlanCount plans faults at point on n tasks of the given type, selected
// deterministically from seed.
func PlanCount(spec Spec, typ TaskType, point Point, n int, seed int64) *Plan {
	return fault.PlanCount(spec, typ, point, n, seed)
}

// PlanFraction plans faults at point on the given fraction of all tasks.
func PlanFraction(spec Spec, typ TaskType, point Point, frac float64, seed int64) *Plan {
	return fault.PlanFraction(spec, typ, point, frac, seed)
}

// ReadPredAt fills dst with the words of pred's output that the runs name,
// copying (and, under VerifyChecksums, checking) only those: a tile's
// boundary without a copy of the tile. A Context that cannot serve it
// directly falls back on ReadPred and a gather. See graph.ReadPredAt.
func ReadPredAt(ctx Context, pred Key, dst []float64, runs ...BlockRun) error {
	return graph.ReadPredAt(ctx, pred, dst, runs...)
}

// Validate structurally checks a Spec (predecessor/successor symmetry,
// acyclicity, unique outputs).
func Validate(spec Spec) error { return graph.Validate(spec) }

// Analyze returns the static properties of a Spec: T (tasks), E (edges),
// S (critical path), degrees.
func Analyze(spec Spec) Props { return graph.Analyze(spec) }
