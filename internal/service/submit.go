package service

// Admission: Submit registers a job, journals its Submitted record, enqueues
// it and acknowledges it once the record is durable.

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"ftdag/internal/journal"
	"ftdag/internal/trace"
)

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
	s.obs.submitted.Inc()
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

// journalSync waits until the admission record behind the ticket is durable;
// an unjournaled server has no durability to wait for.
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
// contract promises survives a crash, so every path to it runs journalSync
// first.
func (s *Server) ackSubmit(j *job) *Handle { return &Handle{j: j} }

// unregister rolls a failed Submit back out of the server's tables, and —
// unless the job was already enqueued, in which case the runner that picks
// it up does — gives its queue slot back.
func (s *Server) unregister(j *job, freeSlot bool) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	if freeSlot {
		s.inQueue--
	}
	s.mu.Unlock()
}
