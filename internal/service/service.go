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
// nothing else: publish drops the executor and the graph (spec.Spec, Plan,
// Verify, and the Payload once the journal holds the outcome), so what a
// finished job keeps alive does not depend on what it computed.
type job struct {
	id int64
	// spec's Spec, Plan, Verify and Payload are written only by publish, on
	// the runner's goroutine and under mu (Drain reads Payload under it).
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
// server the terminal record must be durable before this runs — ftlint's
// ackorder analyzer proves that ordering on every path.
//
//lint:durable ack
func (j *job) ackDone() { close(j.done) }

// svcObs is the service-lifecycle instrument bundle (nil when
// Config.Registry is nil).
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
	obs   *svcObs // lifecycle bundle (nil when unobserved)
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
	// running maps each job now executing to its executor; ran is what the
	// executors of the jobs that ended counted, taken when finish learned
	// their outcome. The registry's executor, block-store and latency
	// families are the two together (totals).
	running map[*job]*core.FT
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
		running: make(map[*job]*core.FT),
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
	s.obs = &svcObs{
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
	for _, e := range s.running {
		t.Add(e.LiveTally())
	}
	return t
}

// replay folds the journal's state into the server: terminal jobs become
// queryable records, incomplete jobs are rebuilt for re-execution. Jobs
// that cannot be rebuilt are marked Failed — visibly, and durably so the
// next incarnation does not retry them either. Returns the jobs to
// re-enqueue, in submission order.
func (s *Server) replay(st *journal.State) []*job {
	var reenq []*job
	for _, id := range st.Order {
		js := st.Jobs[id]
		j := &job{
			id:        id,
			submitted: js.SubmittedAt,
			cancel:    make(chan struct{}),
			done:      make(chan struct{}),
			restored:  true,
		}
		j.spec.Name = js.Name
		j.spec.Recovery = RecoveryPolicy(js.Recovery)
		j.spec.ReplicaBudget = js.ReplicaBudget
		switch js.State {
		case journal.Succeeded:
			j.state = Succeeded
			j.started, j.finished = js.StartedAt, js.FinishedAt
			j.sinkDigest = js.SinkDigest
			// The sink data itself is not journaled — only its
			// digest — so the restored Result carries a nil Sink.
			j.res = &core.Result{
				Elapsed:         js.Elapsed,
				Tasks:           js.Tasks,
				ReexecutedTasks: js.ReexecutedTasks,
				Metrics:         js.Metrics,
			}
			//lint:ignore ackorder the terminal state was replayed FROM the fsynced journal; it is durable by construction, there is nothing left to sync before waking waiters
			j.ackDone()
		case journal.Failed, journal.Cancelled:
			if js.State == journal.Failed {
				j.state = Failed
			} else {
				j.state = Cancelled
			}
			j.started, j.finished = js.StartedAt, js.FinishedAt
			if js.Error != "" {
				j.err = errors.New(js.Error)
			}
			//lint:ignore ackorder the terminal state was replayed FROM the fsynced journal; it is durable by construction, there is nothing left to sync before waking waiters
			j.ackDone()
		default: // Submitted or Started: incomplete, re-run it.
			spec, err := s.rebuildSpec(js)
			if err != nil {
				s.failRestored(j, err)
				break
			}
			spec.Name = js.Name
			spec.Payload = js.Payload
			j.spec = spec
			// Re-entering the journaled span context (rather than minting a
			// fresh trace) is what makes a crash-replayed re-execution show
			// up in the job's original cluster trace.
			if ctx, err := trace.ParseHeader(js.Trace); err == nil && ctx.Valid() {
				j.span = ctx
				if tr := s.cfg.Tracer; tr != nil {
					tr.Emit(trace.Span{
						Trace: ctx.Trace, Parent: ctx.Span, Name: "replay-resume",
						Start: time.Now().UnixMicro(), Job: id, Task: -1, Note: js.Name,
					})
				}
			}
			s.cfg.Flight.Emit("replay-resume", js.Name, id, -1, 0, j.span)
			j.state = Queued
			reenq = append(reenq, j)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	s.nextID = st.MaxID
	return reenq
}

// rebuildSpec reconstructs a runnable JobSpec for an incomplete journaled
// job: Config.Rebuild interprets the payload, then the journaled fault-plan
// manifest (the exact injections of the original run) overrides whatever
// plan the rebuild produced.
func (s *Server) rebuildSpec(js *journal.JobState) (JobSpec, error) {
	if s.cfg.Rebuild == nil {
		return JobSpec{}, errors.New("service: no Config.Rebuild to re-run the job after restart")
	}
	if len(js.Payload) == 0 {
		return JobSpec{}, errors.New("service: job was journaled without a payload")
	}
	spec, err := s.cfg.Rebuild(js.Payload)
	if err != nil {
		return JobSpec{}, fmt.Errorf("service: rebuilding job from payload: %w", err)
	}
	if spec.Spec == nil {
		return JobSpec{}, errors.New("service: Rebuild returned a JobSpec without a Spec")
	}
	if len(js.Plan) > 0 {
		plan := fault.NewPlan()
		if err := json.Unmarshal(js.Plan, plan); err != nil {
			return JobSpec{}, fmt.Errorf("service: restoring fault plan: %w", err)
		}
		spec.Plan = plan
	}
	// Like the fault plan, the journaled recovery policy is authoritative:
	// the job must re-run under the strategy it was admitted with, whatever
	// the rebuilt payload says.
	pol, err := ParseRecovery(js.Recovery)
	if err != nil {
		return JobSpec{}, fmt.Errorf("service: restoring recovery policy: %w", err)
	}
	spec.Recovery = pol
	spec.ReplicaBudget = js.ReplicaBudget
	return spec, nil
}

// failRestored marks an unrebuildable job Failed, durably, so it is not
// retried forever across restarts. The Failed record is appended before the
// done channel closes — ackorder caught the original ordering here, which
// acked first and journaled after: a crash in the gap would have left a
// waiter believing in an outcome the next incarnation had no record of.
func (s *Server) failRestored(j *job, cause error) {
	j.state = Failed
	j.err = fmt.Errorf("service: job not recoverable after restart: %w", cause)
	j.finished = time.Now()
	s.cfg.Logf("service: job %d (%s): %v", j.id, j.spec.Name, j.err)
	s.journalAppend(journal.Record{Kind: journal.Failed, ID: j.id, Error: j.err.Error()})
	j.ackDone()
}

// journalAppend best-effort appends a terminal record to the configured
// journal and waits for it to be durable. Append failures are logged, not
// fatal: the in-memory service keeps running, at reduced durability (exactly
// what a disk-full production incident wants). The fsync directive therefore
// asserts the barrier's contract, not a guarantee of success: with no
// journal configured durability is vacuous by configuration, and a logged
// append failure is the documented degraded mode — neither is a protocol
// violation.
//
//lint:durable fsync
func (s *Server) journalAppend(rec journal.Record) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(rec); err != nil {
		s.cfg.Logf("service: journal append (%v, job %d): %v", rec.Kind, rec.ID, err)
	}
}

// journalStarted writes the Started record and waits for nothing: replay
// re-runs a job whose last record is Started exactly as one whose last record
// is Submitted, so recovery never reads a Started the terminal record's
// fsync has not also made durable. It is deliberately no barrier — no fsync
// sits between a job's started and finished stamps.
func (s *Server) journalStarted(j *job) {
	if s.cfg.Journal == nil {
		return
	}
	if _, err := s.cfg.Journal.Write(journal.Record{Kind: journal.Started, ID: j.id}); err != nil {
		s.cfg.Logf("service: journal write (%v, job %d): %v", journal.Started, j.id, err)
	}
}

// Config returns the effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submit admits a job into the queue and returns its handle, or
// ErrQueueFull / ErrClosed without side effects when admission fails.
// On a journaled server the Submitted record is fsynced (group commit)
// before Submit returns: an acknowledged submission survives a crash.
func (s *Server) Submit(spec JobSpec) (*Handle, error) {
	if spec.Spec == nil {
		return nil, errors.New("service: JobSpec.Spec is required")
	}
	pol, err := ParseRecovery(string(spec.Recovery))
	if err != nil {
		return nil, err
	}
	spec.Recovery = pol
	if spec.ReplicaBudget < 0 || spec.ReplicaBudget > 1 {
		return nil, fmt.Errorf("service: replica budget %v out of [0, 1]", spec.ReplicaBudget)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Reserve queue capacity under mu — the journal append below happens
	// outside the lock, so the channel send must be guaranteed not to
	// block by the time we get there.
	if s.inQueue >= cap(s.queue) {
		s.rejected++
		depth := s.inQueue
		s.mu.Unlock()
		return nil, &QueueFullError{Capacity: cap(s.queue), RetryAfter: s.retryAfterHint(depth)}
	}
	j := &job{
		spec:      spec,
		submitted: time.Now(),
		cancel:    make(chan struct{}),
		done:      make(chan struct{}),
		state:     Queued,
	}
	s.nextID++
	j.id = s.nextID
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.inQueue++
	s.submitWG.Add(1)
	s.mu.Unlock()
	defer s.submitWG.Done()

	// Mint the job's trace position before the journal write so the
	// Submitted record carries it: a continuation of the caller's context
	// (FT-Trace header) when one arrived, a fresh trace otherwise. The
	// admission span itself is emitted after the fsync below, so its
	// duration covers the full durable-admission path.
	if tr := s.cfg.Tracer; tr != nil {
		parent := spec.Span
		if !parent.Valid() {
			parent.Trace = trace.NewTraceID()
		}
		j.span = trace.SpanContext{Trace: parent.Trace, Span: tr.NextID()}
	}

	// Write → enqueue → sync → ack. The runner may pick the job up, and
	// even finish it, while the Submitted record's fsync is in flight: the
	// log is one ordered file, so the terminal record's own fsync cannot
	// complete without the Submitted record before it being durable too.
	// A failed write is a failed Submit — the job is unregistered and never
	// enqueued.
	ticket, err := s.journalSubmit(j, spec)
	if err != nil {
		s.unregister(j, true)
		return nil, err
	}
	s.cfg.Flight.Emit("job-submit", spec.Name, j.id, -1, 0, j.span)
	// Capacity was reserved above, so this cannot block; submitWG keeps
	// Close/Shutdown from closing the channel underneath the send.
	s.queue <- j
	// The send made an idle runner runnable on this goroutine's processor,
	// where it would wait out the fsync below: the blocked thread keeps
	// the processor, and an idle one's thread takes tens of microseconds
	// to wake and steal the runner. Yielding first runs the runner — and
	// the job — here, at once, and the fsync after it.
	if s.cfg.Journal != nil {
		runtime.Gosched()
	}
	// Durable before acknowledged. A failed sync is a failed Submit as
	// well, but the job is already the runner's: cancel it and take it out
	// of the tables (the runner gives the queue slot back). The journal is
	// left with a Submitted record of unknown durability — what a failed
	// append has always left — plus whatever the runner manages to add; a
	// failed Submit promises neither a re-run nor its absence.
	if err := s.journalSync(ticket); err != nil {
		j.cancelNow()
		s.unregister(j, false)
		return nil, err
	}
	if tr := s.cfg.Tracer; tr != nil {
		tr.Emit(trace.Span{
			Trace: j.span.Trace, ID: j.span.Span, Parent: spec.Span.Span,
			Name: "submit", Note: spec.Name,
			Start: j.submitted.UnixMicro(), Dur: time.Since(j.submitted).Microseconds(),
			Job: j.id, Task: -1,
		})
	}
	if o := s.obs; o != nil {
		o.submitted.Inc()
	}
	return s.ackSubmit(j), nil
}

// journalSubmit writes the record of a job's admission and returns the
// ticket journalSync waits on. It is no barrier: nothing here touches the
// disk's write-back.
func (s *Server) journalSubmit(j *job, spec JobSpec) (journal.Ticket, error) {
	if s.cfg.Journal == nil {
		return journal.Ticket{}, nil
	}
	rec := journal.Record{
		Kind: journal.Submitted, ID: j.id, Name: spec.Name, Payload: spec.Payload,
		Recovery: string(spec.Recovery), ReplicaBudget: spec.ReplicaBudget,
	}
	if j.span.Valid() {
		rec.Trace = j.span.Header()
	}
	if spec.Plan != nil {
		b, err := json.Marshal(spec.Plan)
		if err != nil {
			return journal.Ticket{}, fmt.Errorf("service: marshaling fault plan: %w", err)
		}
		rec.Plan = b
	}
	t, err := s.cfg.Journal.Write(rec)
	if err != nil {
		return t, fmt.Errorf("service: journaling submission: %w", err)
	}
	return t, nil
}

// journalSync waits until the admission record behind the ticket is durable.
// The directive sits here rather than on the raw journal Sync because the nil
// check is part of the barrier's contract: an unjournaled server has no
// durability to violate.
//
//lint:durable fsync
func (s *Server) journalSync(t journal.Ticket) error {
	if s.cfg.Journal == nil {
		return nil
	}
	if err := s.cfg.Journal.Sync(t); err != nil {
		return fmt.Errorf("service: journaling submission: %w", err)
	}
	return nil
}

// ackSubmit hands out the submission handle — the acknowledgement Submit's
// contract promises survives a crash. ackorder proves every path to it runs
// journalSync first.
//
//lint:durable ack
func (s *Server) ackSubmit(j *job) *Handle { return &Handle{j: j} }

// unregister rolls a failed Submit back out of the server's tables, and —
// unless the job was already enqueued, in which case the runner that picks
// it up does — gives its queue slot back.
func (s *Server) unregister(j *job, freeSlot bool) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if freeSlot {
		s.inQueue--
	}
	s.mu.Unlock()
}

// runner executes queued jobs one at a time; MaxConcurrentJobs runners give
// the concurrency bound. Range drains the queue even after Close, so queued
// jobs still reach a terminal (Cancelled) state.
func (s *Server) runner() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	s.mu.Lock()
	s.inQueue--
	s.mu.Unlock()
	select {
	case <-j.cancel:
		s.finish(j, nil, core.ErrCancelled)
		return
	default:
	}
	j.mu.Lock()
	j.state = Running
	j.started = time.Now()
	j.mu.Unlock()
	// A repeated Started (re-enqueued job that crashed mid-run last
	// incarnation) is benign: journal replay treats it as idempotent.
	s.journalStarted(j)

	// The queue-wait span spans admission → pickup; for a crash-replayed
	// job that interval honestly includes the downtime. The job-run span's
	// ID is minted now so executor spans can parent to it, but the span
	// itself is emitted after the run with its duration filled in.
	tr := s.cfg.Tracer
	var runCtx trace.SpanContext
	if tr != nil && j.span.Valid() {
		tr.Emit(trace.Span{
			Trace: j.span.Trace, Parent: j.span.Span, Name: "queue-wait",
			Start: j.submitted.UnixMicro(), Dur: j.started.Sub(j.submitted).Microseconds(),
			Job: j.id, Task: -1,
		})
		runCtx = trace.SpanContext{Trace: j.span.Trace, Span: tr.NextID()}
	}
	s.cfg.Flight.Emit("job-start", j.spec.Name, j.id, -1, 0, j.span)

	var timer *time.Timer
	if d := j.spec.Deadline; d > 0 {
		timer = time.AfterFunc(d, func() {
			j.mu.Lock()
			j.deadlineHit = true
			j.mu.Unlock()
			j.cancelNow()
		})
	}
	exec := core.NewFT(j.spec.Spec, core.Config{
		// One counter block, latency shard and buffer cache per worker
		// of the shared pool.
		Workers:         s.cfg.Workers,
		Retention:       j.spec.Retention,
		Plan:            j.spec.Plan,
		Replicate:       j.spec.replicateSet(),
		VerifyChecksums: j.spec.VerifyChecksums,
		Cancel:          j.cancel,
		TimeLatency:     s.cfg.Registry != nil,
		Spans:           tr,
		SpanCtx:         runCtx,
		SpanJob:         j.id,
	})
	j.mu.Lock()
	j.exec = exec
	j.mu.Unlock()
	s.mu.Lock()
	s.running[j] = exec
	s.mu.Unlock()
	res, err := exec.RunOn(s.pool)
	if timer != nil {
		timer.Stop()
	}
	if err == nil && j.spec.Verify != nil {
		if verr := j.spec.Verify(res); verr != nil {
			err = fmt.Errorf("service: verification failed: %w", verr)
		}
	}
	if tr != nil && runCtx.Valid() {
		var arg int64
		if err != nil {
			arg = 1
		}
		tr.Emit(trace.Span{
			Trace: runCtx.Trace, ID: runCtx.Span, Parent: j.span.Span, Name: "job-run",
			Start: j.started.UnixMicro(), Dur: time.Since(j.started).Microseconds(),
			Job: j.id, Task: -1, Arg: arg,
		})
	}
	s.finish(j, res, err)
}

// finish moves the job to its terminal state and wakes waiters. On a
// journaled server the terminal record is durable before the state is
// published and before the done channel closes: neither a Wait nor a Status
// poll (what every HTTP client sees) can observe an outcome a crash would
// take back. The job stays Running, with live counters, across the fsync;
// finished is stamped here, when execution ended, so the fsync is in nobody's
// execution time.
func (s *Server) finish(j *job, res *core.Result, err error) {
	finished := time.Now()
	s.mu.Lock()
	if e, ok := s.running[j]; ok {
		s.ran.Add(e.LiveTally())
		delete(s.running, j)
	}
	s.mu.Unlock()
	state := Succeeded
	j.mu.Lock()
	if err != nil {
		if errors.Is(err, core.ErrCancelled) {
			state = Cancelled
			if j.deadlineHit {
				err = ErrDeadlineExceeded
			}
		} else {
			state = Failed
		}
	}
	skipJournal := j.shutdownAbort
	deadlineMiss := j.deadlineHit && state == Cancelled
	started := j.started
	j.mu.Unlock()

	var sinkDigest string
	rec := journal.Record{ID: j.id}
	switch state {
	case Succeeded:
		rec.Kind = journal.Succeeded
		if res != nil {
			sinkDigest = journal.Digest(res.Sink)
			rec.SinkDigest = sinkDigest
			rec.SinkLen = len(res.Sink)
			rec.Elapsed = res.Elapsed
			rec.Tasks = res.Tasks
			rec.ReexecutedTasks = res.ReexecutedTasks
			m := res.Metrics
			rec.Metrics = &m
		}
		if !started.IsZero() {
			s.observeJobDuration(finished.Sub(started))
		}
	case Failed:
		rec.Kind = journal.Failed
		rec.Error = err.Error()
	case Cancelled:
		rec.Kind = journal.Cancelled
		if err != nil {
			rec.Error = err.Error()
		}
	}
	if o := s.obs; o != nil {
		switch state {
		case Succeeded:
			o.succeeded.Inc()
		case Failed:
			o.failed.Inc()
		case Cancelled:
			o.cancelled.Inc()
		}
		if deadlineMiss {
			o.deadlineMisses.Inc()
		}
	}
	// A shutdown-aborted job's end is an artifact of this incarnation
	// stopping, not a property of the job: it stays incomplete in the
	// journal and re-runs on the next boot.
	if skipJournal {
		j.publish(state, res, err, finished, sinkDigest, false)
		//lint:ignore ackorder shutdown-aborted jobs are deliberately unjournaled: the job stays incomplete in the log and re-runs next boot, so there is no record to make durable before waking waiters
		j.ackDone()
		return
	}
	s.journalAppend(rec)
	j.publish(state, res, err, finished, sinkDigest, true)
	s.cfg.Flight.Emit("job-finish", state.String(), j.id, -1, int64(state), j.span)
	j.ackDone()
}

// publish makes the terminal state visible to Status and releases what only
// a running job needs. journaled says the terminal record is in the log: the
// Payload is then the journal's to keep, while an unjournaled (drain- or
// shutdown-aborted) job keeps it for Drain to hand to the router.
func (j *job) publish(state State, res *core.Result, err error, finished time.Time, sinkDigest string, journaled bool) {
	j.mu.Lock()
	j.state, j.res, j.err, j.finished, j.sinkDigest = state, res, err, finished, sinkDigest
	// An abort that arrived after finish had decided to journal the outcome
	// lost the race: the job is finished, not incomplete.
	j.shutdownAbort = !journaled
	j.exec = nil
	j.spec.Spec, j.spec.Plan, j.spec.Verify = nil, nil, nil
	if journaled {
		j.spec.Payload = nil
	}
	j.mu.Unlock()
}

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

// Jobs returns the status of every job in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Close stops the server: no further admissions, queued and running jobs are
// cancelled (journaled as Cancelled — a deliberate, terminal outcome), the
// runners drain, the shared pool shuts down, and the journal (if any) is
// snapshotted and closed. It returns the pool's lifetime scheduler
// statistics. Close is idempotent-hostile by design (like Pool.Close): call
// it once, and never alongside Shutdown.
func (s *Server) Close() sched.Stats {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.submitWG.Wait()
	close(s.queue)
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	for _, j := range js {
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if !terminal {
			j.cancelNow()
		}
	}
	s.wg.Wait()
	stats := s.pool.Close()
	s.closeJournal()
	return stats
}

// Shutdown stops the server gracefully: it is Drain with admission closed
// for good, then Close's teardown. Queued and running jobs get up to grace
// to finish before anything still in flight is aborted WITHOUT a terminal
// journal record — such jobs stay incomplete in the write-ahead log and
// re-run on the next boot. grace <= 0 waits indefinitely (full drain). Like
// Close, call it once; Close and Shutdown are mutually exclusive.
func (s *Server) Shutdown(grace time.Duration) sched.Stats {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if n := len(s.Drain(grace).Incomplete); n > 0 {
		s.cfg.Logf("service: shutdown grace %v expired; %d job(s) aborted, left incomplete for re-run after restart", grace, n)
	}
	close(s.queue)
	s.wg.Wait()
	stats := s.pool.Close()
	s.closeJournal()
	return stats
}

// closeJournal flushes and closes the journal, if one is configured.
func (s *Server) closeJournal() {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Close(); err != nil {
		s.cfg.Logf("service: closing journal: %v", err)
	}
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
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	snap := Snapshot{
		Workers:           s.cfg.Workers,
		MaxConcurrentJobs: s.cfg.MaxConcurrentJobs,
		QueueDepth:        len(s.queue),
		QueueCapacity:     cap(s.queue),
		Rejected:          s.rejected,
	}
	s.mu.Unlock()
	for _, j := range js {
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
