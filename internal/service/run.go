package service

// Run and finish: the runners take jobs off the queue, execute each on the
// shared pool, and make its outcome durable before it becomes visible.

import (
	"errors"
	"fmt"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/journal"
	"ftdag/internal/trace"
)

// journalAppend best-effort appends a terminal record to the configured
// journal and waits for it to be durable. Append failures are logged, not
// fatal: the in-memory service keeps running, at reduced durability (exactly
// what a disk-full production incident wants). A logged append failure is
// that documented degraded mode, not a broken ordering.
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
	s.mu.Lock()
	s.running[j] = struct{}{}
	j.mu.Lock()
	j.state = Running
	j.started = time.Now()
	j.mu.Unlock()
	s.mu.Unlock()
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
	started := j.started
	j.mu.Unlock()

	var sinkDigest string
	rec := journal.Record{ID: j.id}
	switch state {
	case Succeeded:
		s.obs.succeeded.Inc()
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
		s.obs.failed.Inc()
		rec.Kind = journal.Failed
		rec.Error = err.Error()
	case Cancelled:
		s.obs.cancelled.Inc()
		rec.Kind = journal.Cancelled
		if err != nil {
			rec.Error = err.Error()
		}
		if errors.Is(err, ErrDeadlineExceeded) {
			s.obs.deadlineMisses.Inc()
		}
	}
	// A shutdown-aborted job's end is an artifact of this incarnation
	// stopping, not a property of the job: it stays incomplete in the
	// journal and re-runs on the next boot.
	if skipJournal {
		s.publish(j, state, res, err, finished, sinkDigest, false)
		// No record, so nothing to make durable before waking waiters.
		j.ackDone()
		return
	}
	s.journalAppend(rec)
	s.publish(j, state, res, err, finished, sinkDigest, true)
	s.cfg.Flight.Emit("job-finish", state.String(), j.id, -1, int64(state), j.span)
	j.ackDone()
}

// publish makes the terminal state visible to Status and releases what only
// a running job needs; the job leaves s.running, its executor's counts going
// to s.ran, in the same critical section. journaled says the terminal record
// is in the log; a job without one (drain- or shutdown-aborted) stays
// incomplete.
func (s *Server) publish(j *job, state State, res *core.Result, err error, finished time.Time, sinkDigest string, journaled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, j)
	j.mu.Lock()
	if j.exec != nil {
		s.ran.Add(j.exec.LiveTally())
	}
	j.state, j.res, j.err, j.finished, j.sinkDigest = state, res, err, finished, sinkDigest
	// An abort that arrived after finish had decided to journal the outcome
	// lost the race: the job is finished, not incomplete.
	j.shutdownAbort = !journaled
	j.exec = nil
	j.spec.Spec, j.spec.Plan, j.spec.Verify, j.spec.Payload = nil, nil, nil, nil
	j.mu.Unlock()
}
