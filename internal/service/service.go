// Package service turns the one-shot fault-tolerant executor into a
// long-lived multi-job execution service: one Server owns one shared
// work-stealing pool (internal/sched) and multiplexes many concurrent
// task-graph jobs onto it.
//
// Each submitted job runs through its own sched.Group, so per-job
// cancellation, deadlines, and quiescence never disturb the pool or the
// other jobs — the service-level analogue of the paper's localized recovery:
// a misbehaving or cancelled job stays local while the rest of the system
// keeps serving work. Admission control is a bounded queue (Submit rejects
// with ErrQueueFull when full) drained by a fixed number of runner
// goroutines (the max-concurrent-jobs bound). Per-job executor metrics and
// the job's trace context remain retrievable from its Handle after
// completion, and Snapshot aggregates scheduler stats, recovery counters, and
// queue depths for observability endpoints (cmd/ftserve).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/sched"
	"ftdag/internal/trace"
)

// Sentinel errors returned by Submit and job completion.
var (
	// ErrQueueFull reports that the admission queue is at capacity.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("service: server closed")
	// ErrDraining reports a Submit while the server is draining for
	// migration (Drain): admission is stopped but the server still serves
	// status queries. Callers should resubmit elsewhere.
	ErrDraining = errors.New("service: server draining")
	// ErrDeadlineExceeded reports that a job's per-job deadline expired
	// before it completed; the job was aborted.
	ErrDeadlineExceeded = errors.New("service: job deadline exceeded")
)

// State is a job's lifecycle state.
type State int

const (
	// Queued: admitted, waiting for a concurrency slot.
	Queued State = iota
	// Running: executing on the shared pool.
	Running
	// Succeeded: completed; the Result is available.
	Succeeded
	// Failed: the executor (or the job's Verify callback) returned an
	// error other than cancellation.
	Failed
	// Cancelled: aborted by Cancel, a deadline, or server Close.
	Cancelled
)

var stateNames = [...]string{
	Queued:    "queued",
	Running:   "running",
	Succeeded: "succeeded",
	Failed:    "failed",
	Cancelled: "cancelled",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// MarshalJSON encodes the state as its lowercase name.
func (s State) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON decodes the lowercase name written by MarshalJSON, so a
// Status round-trips through JSON (the shard router decodes backend
// responses this way).
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stateNames {
		if n == name {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("service: unknown state %q", name)
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Succeeded || s == Failed || s == Cancelled }

// JobSpec describes one task-graph job.
type JobSpec struct {
	// Name labels the job in statuses and logs (free-form).
	Name string
	// Spec is the task graph to execute (required).
	Spec graph.Spec
	// Retention is the block store's version retention K (see
	// core.Config.Retention).
	Retention int
	// Plan is the job's fault-injection plan (nil: no faults).
	Plan *fault.Plan
	// Recovery selects the job's recovery strategy: "" or RecoverFTNabbit
	// (default, detected-fault recovery only), RecoverReplicateAll (every
	// task dual-executed with digest comparison), or
	// RecoverReplicateSelective (only the highest-scored tasks, under
	// ReplicaBudget). Journaled with the submission, so a replayed job
	// re-runs under the same strategy.
	Recovery RecoveryPolicy
	// ReplicaBudget is the fraction of tasks to replicate under
	// RecoverReplicateSelective (0 means DefaultReplicaBudget).
	ReplicaBudget float64
	// VerifyChecksums validates block checksums on every read.
	VerifyChecksums bool
	// Deadline bounds the job's execution time (queue wait excluded);
	// 0 means no deadline. An expired deadline aborts only this job.
	Deadline time.Duration
	// Verify, when non-nil, is called with the result of a successful
	// run; a non-nil error marks the job Failed. It runs on the job's
	// runner goroutine.
	Verify func(*core.Result) error
	// Payload is an opaque serializable description of the job (e.g. the
	// daemon's submission-request JSON). A journaled server persists it
	// with the Submitted record; after a crash, Config.Rebuild turns it
	// back into a runnable JobSpec so the job can be re-enqueued. Jobs
	// without a payload cannot be re-run after a restart and are
	// restored as Failed.
	Payload []byte
	// Span is the distributed-trace position this submission continues
	// (parsed from the FT-Trace header by the HTTP front ends). Zero means
	// the job starts a new trace when the server has a Config.Tracer.
	Span trace.SpanContext
}

// Config configures a Server.
type Config struct {
	// Workers is the shared pool's size (default: GOMAXPROCS).
	Workers int
	// MaxQueuedJobs bounds the admission queue (default 64). A Submit
	// finding the queue full fails with ErrQueueFull.
	MaxQueuedJobs int
	// MaxConcurrentJobs bounds the number of jobs executing at once
	// (default 4); admitted jobs beyond it wait in the queue.
	MaxConcurrentJobs int
	// Journal, when non-nil, makes the server durable: every job state
	// transition is appended to the write-ahead log (the Submitted
	// record is group-commit-fsynced before Submit returns, the terminal
	// record before the outcome is visible), and New
	// replays the journal's state — completed jobs come back queryable
	// with their result digests and metrics, incomplete jobs are
	// re-enqueued and re-run. The server owns the journal from here on
	// and closes it in Close/Shutdown.
	Journal *journal.Journal
	// Rebuild reconstructs a runnable JobSpec from a persisted
	// JobSpec.Payload during replay. Required to re-run incomplete jobs
	// after a crash; without it (or on a rebuild error) such jobs are
	// restored as Failed rather than silently dropped.
	Rebuild func(payload []byte) (JobSpec, error)
	// Logf receives journal-append failures and replay warnings
	// (default log.Printf).
	Logf func(format string, args ...any)
	// Registry, when non-nil, enables observability: New registers
	// scheduler, executor, block-store, journal, and service-lifecycle
	// metrics on it. The counter families read the counts the layers keep
	// anyway at scrape time; every job's execution records into the shared
	// latency histograms. Nil (the default) disables metric collection —
	// the hot paths then cost one pointer check per site.
	Registry *metrics.Registry
	// Tracer, when non-nil, is the process-wide distributed-trace span
	// recorder: submissions mint (or continue, via JobSpec.Span) a trace,
	// and admission, queue wait, execution, and every executor event emit
	// spans into it. The job's span context is journaled with the
	// Submitted record so replay continues the trace. Nil disables span
	// emission — one pointer check per site, same contract as Registry.
	Tracer *trace.Spans
	// Flight, when non-nil, is the black-box flight recorder: job
	// lifecycle transitions are recorded so a crash leaves a causal tail
	// on disk (see trace.Flight). Nil disables it.
	Flight *trace.Flight
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedJobs < 1 {
		c.MaxQueuedJobs = 64
	}
	if c.MaxConcurrentJobs < 1 {
		c.MaxConcurrentJobs = 4
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// job is the server-internal job record. Once terminal it is a record and
// nothing else: publish drops the executor, the graph and the payload
// (spec.Spec, Plan, Verify, Payload), so what a finished job keeps alive
// does not depend on what it computed.
type job struct {
	id int64
	// spec's Spec, Plan, Verify and Payload are written only by publish, on
	// the runner's goroutine and under mu.
	spec      JobSpec
	submitted time.Time
	// span is the job's distributed-trace context: the submission's trace
	// plus the admission span every later span of the job parents to.
	// Journaled with the Submitted record; restored on replay.
	span      trace.SpanContext
	cancel    chan struct{}
	cancelled sync.Once
	done      chan struct{}

	mu          sync.Mutex
	state       State
	started     time.Time
	finished    time.Time
	res         *core.Result
	err         error
	deadlineHit bool
	// exec is the job's executor while Running; status() reads its live
	// counters so listings reflect mid-run progress.
	exec *core.FT
	// sinkDigest summarizes res.Sink for cross-incarnation comparison
	// (set on success, or restored from the journal).
	sinkDigest string
	// restored marks a job reconstructed from the journal at New.
	restored bool
	// shutdownAbort marks a job aborted by Shutdown's grace expiry; its
	// terminal state is NOT journaled, so a restart re-runs it.
	shutdownAbort bool
}

// cancelNow closes the job's cancel channel at most once.
func (j *job) cancelNow() { j.cancelled.Do(func() { close(j.cancel) }) }

// ackDone closes the job's done channel, releasing every Wait/Done waiter:
// the moment the outcome becomes externally observable. On a journaled
// server the terminal record must be durable before this runs; the
// crash-point enumeration (crash_test.go) checks that ordering.
func (j *job) ackDone() { close(j.done) }

// svcObs is the service-lifecycle instrument bundle (nil counters, which
// count nothing, when Config.Registry is nil).
type svcObs struct {
	submitted      *metrics.Counter
	succeeded      *metrics.Counter
	failed         *metrics.Counter
	cancelled      *metrics.Counter
	deadlineMisses *metrics.Counter
}

// Server is a multi-job execution service over one shared pool.
type Server struct {
	cfg   Config
	pool  *sched.Pool
	queue chan *job
	wg    sync.WaitGroup
	obs   svcObs
	// submitWG tracks Submits between admission and enqueue so Close can
	// wait for them before closing the queue channel.
	submitWG sync.WaitGroup
	// jobDurEWMA is the smoothed job execution time in nanoseconds, feeding
	// the Retry-After hint on queue-full rejections (see recovery.go).
	jobDurEWMA atomic.Int64

	mu       sync.Mutex
	closed   bool
	draining bool
	nextID   int64
	jobs     map[int64]*job
	order    []int64 // submission order, for listings
	rejected int64
	inQueue  int // jobs admitted but not yet picked up by a runner
	// running holds the jobs whose Status says Running: a job joins it with
	// that state and leaves it when publish makes it terminal, both under
	// mu. ran is what the executors of the jobs that left counted. The
	// registry's executor, block-store and latency families are the two
	// together (totals).
	running map[*job]struct{}
	ran     core.Tally
}

// New starts a server: one pool of cfg.Workers workers plus
// cfg.MaxConcurrentJobs runner goroutines draining the admission queue.
// With cfg.Journal set, New first replays the journal: terminal jobs are
// restored queryable (state, result digest, metrics), incomplete jobs are
// rebuilt via cfg.Rebuild and re-enqueued ahead of new submissions.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    sched.NewPool(cfg.Workers),
		jobs:    make(map[int64]*job),
		running: make(map[*job]struct{}),
	}
	// Steals of any job's tasks land in that job's distributed trace.
	s.pool.ObserveSpans(cfg.Tracer)
	var reenq []*job
	if cfg.Journal != nil {
		reenq = s.replay(cfg.Journal.State())
	}
	// The queue must absorb every re-enqueued job even when there are
	// more of them than the configured admission bound.
	qcap := cfg.MaxQueuedJobs
	if len(reenq) > qcap {
		qcap = len(reenq)
	}
	s.queue = make(chan *job, qcap)
	for _, j := range reenq {
		s.queue <- j
	}
	s.inQueue = len(reenq)
	if r := cfg.Registry; r != nil {
		s.observe(r)
	}
	s.wg.Add(cfg.MaxConcurrentJobs)
	for i := 0; i < cfg.MaxConcurrentJobs; i++ {
		go s.runner()
	}
	return s
}

// observe wires every layer's metrics into the registry: the shared pool,
// the executor and block-store families over the jobs' tally (totals), the
// journal (if configured), and the service's own lifecycle counters. Called
// from New before the runners start, so no job can race the registration.
func (s *Server) observe(r *metrics.Registry) {
	s.pool.Observe(r)
	core.Observe(r, s.totals)
	if s.cfg.Journal != nil {
		s.cfg.Journal.Observe(r)
	}
	s.obs = svcObs{
		submitted:      r.Counter("ftdag_jobs_submitted_total", "Jobs admitted into the queue."),
		succeeded:      r.Counter("ftdag_jobs_succeeded_total", "Jobs that completed successfully."),
		failed:         r.Counter("ftdag_jobs_failed_total", "Jobs that ended in failure."),
		cancelled:      r.Counter("ftdag_jobs_cancelled_total", "Jobs cancelled by callers, deadlines, or shutdown."),
		deadlineMisses: r.Counter("ftdag_deadline_misses_total", "Jobs aborted because their per-job deadline expired."),
	}
	r.GaugeFunc("ftdag_jobs_running", "Jobs currently executing on the shared pool.",
		func() float64 {
			s.mu.Lock()
			n := len(s.running)
			s.mu.Unlock()
			return float64(n)
		})
	r.GaugeFunc("ftdag_queue_depth", "Jobs admitted but not yet picked up by a runner.",
		func() float64 {
			s.mu.Lock()
			d := s.inQueue
			s.mu.Unlock()
			return float64(d)
		})
	r.CounterFunc("ftdag_jobs_rejected_total", "Submissions rejected by admission control.",
		func() float64 {
			s.mu.Lock()
			n := s.rejected
			s.mu.Unlock()
			return float64(n)
		})
}

// totals is the tally of the jobs this process ran: those that ended, and
// those running as their counts stand. A job moves from one to the other in
// one critical section with counts that only grow, so no family a scrape
// reads from it ever goes down.
func (s *Server) totals() core.Tally {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.ran
	for j := range s.running {
		j.mu.Lock()
		if j.exec != nil {
			t.Add(j.exec.LiveTally())
		}
		j.mu.Unlock()
	}
	return t
}

// Config returns the effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Job returns the handle of a previously submitted job.
func (s *Server) Job(id int64) (*Handle, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return &Handle{j: j}, true
}

// all returns every job in submission order.
func (s *Server) all() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	return js
}

// Jobs returns the status of every job in submission order.
func (s *Server) Jobs() []Status {
	js := s.all()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Snapshot is a point-in-time view of the server for observability.
type Snapshot struct {
	Workers           int         `json:"workers"`
	MaxConcurrentJobs int         `json:"max_concurrent_jobs"`
	QueueDepth        int         `json:"queue_depth"`
	QueueCapacity     int         `json:"queue_capacity"`
	Queued            int         `json:"queued"`
	Running           int         `json:"running"`
	Succeeded         int         `json:"succeeded"`
	Failed            int         `json:"failed"`
	Cancelled         int         `json:"cancelled"`
	Rejected          int64       `json:"rejected"`
	Sched             sched.Stats `json:"sched"`
	// Totals aggregates the executor metrics of every finished job.
	Totals core.Metrics `json:"totals"`
	// ReexecutedTasks sums the finished jobs' re-execution counts (the
	// paper's Table II quantity, service-wide).
	ReexecutedTasks int64 `json:"reexecuted_tasks"`
}

// Snapshot aggregates job states, queue depths, scheduler counters, and
// recovery totals. Safe to call concurrently with running jobs.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	snap := Snapshot{
		Workers:           s.cfg.Workers,
		MaxConcurrentJobs: s.cfg.MaxConcurrentJobs,
		QueueDepth:        s.inQueue,
		QueueCapacity:     cap(s.queue),
		Rejected:          s.rejected,
	}
	s.mu.Unlock()
	for _, j := range s.all() {
		j.mu.Lock()
		switch j.state {
		case Queued:
			snap.Queued++
		case Running:
			snap.Running++
		case Succeeded:
			snap.Succeeded++
		case Failed:
			snap.Failed++
		case Cancelled:
			snap.Cancelled++
		}
		if j.res != nil {
			snap.Totals.Add(j.res.Metrics)
			snap.ReexecutedTasks += j.res.ReexecutedTasks
		}
		j.mu.Unlock()
	}
	snap.Sched = s.pool.StatsSnapshot()
	return snap
}

// Status is an immutable snapshot of one job.
type Status struct {
	ID        int64     `json:"id"`
	Name      string    `json:"name"`
	State     State     `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Recovery / ReplicaBudget report the job's recovery strategy
	// ("ftnabbit" is omitted as the default).
	Recovery      string  `json:"recovery,omitempty"`
	ReplicaBudget float64 `json:"replica_budget,omitempty"`
	// Error is the terminal error message ("" on success or while the
	// job is still queued/running).
	Error string `json:"error,omitempty"`
	// ElapsedMS is the execution time in milliseconds (0 until done).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Tasks / ReexecutedTasks / Metrics come from the job's Result.
	Tasks           int           `json:"tasks,omitempty"`
	ReexecutedTasks int64         `json:"reexecuted_tasks,omitempty"`
	Metrics         *core.Metrics `json:"metrics,omitempty"`
	// SinkDigest is the FNV-1a digest of the job's sink outputs (set on
	// success; survives restarts via the journal).
	SinkDigest string `json:"sink_digest,omitempty"`
	// Restored marks a job reconstructed from the journal after a restart.
	Restored bool `json:"restored,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		Name:      j.spec.Name,
		State:     j.state,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	st.SinkDigest = j.sinkDigest
	st.Restored = j.restored
	if j.spec.Recovery != "" && j.spec.Recovery != RecoverFTNabbit {
		st.Recovery = string(j.spec.Recovery)
		st.ReplicaBudget = j.spec.ReplicaBudget
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.res != nil {
		st.ElapsedMS = float64(j.res.Elapsed) / float64(time.Millisecond)
		st.Tasks = j.res.Tasks
		st.ReexecutedTasks = j.res.ReexecutedTasks
		m := j.res.Metrics
		st.Metrics = &m
	} else if j.state == Running && j.exec != nil {
		// Live mid-run progress: tasks discovered so far and the
		// executor's counters as they stand (atomics; race-free).
		st.ElapsedMS = float64(time.Since(j.started)) / float64(time.Millisecond)
		st.Tasks = j.exec.TasksDiscovered()
		m := j.exec.LiveMetrics()
		st.Metrics = &m
	}
	return st
}

// Handle is the caller's reference to a submitted job.
type Handle struct{ j *job }

// ID returns the job's server-assigned id (1-based, in admission order).
func (h *Handle) ID() int64 { return h.j.id }

// Cancel aborts the job (queued or running); a no-op once terminal.
// Cancellation is cooperative and localized: only this job's scheduled work
// is skipped, the shared pool and all other jobs continue unaffected.
func (h *Handle) Cancel() { h.j.cancelNow() }

// Wait blocks until the job is terminal and returns its result and error.
// The Result may be non-nil alongside an error (e.g. unreadable sink).
func (h *Handle) Wait() (*core.Result, error) {
	<-h.j.done
	h.j.mu.Lock()
	defer h.j.mu.Unlock()
	return h.j.res, h.j.err
}

// Status returns the job's current status snapshot.
func (h *Handle) Status() Status { return h.j.status() }

// Span returns the job's distributed-trace context: its trace and its
// admission span, which every later span of the job parents to. Zero for a
// job admitted by a server without a Config.Tracer.
func (h *Handle) Span() trace.SpanContext { return h.j.span }
