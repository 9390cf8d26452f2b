package service

// Replay: New folds the journal's state into the server. Finished jobs come
// back as queryable records; incomplete ones are rebuilt from their journaled
// payload, plan and policy and re-enqueued.

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/journal"
	"ftdag/internal/trace"
)

// replay folds the journal's state into the server: terminal jobs become
// queryable records, entering the retention window in the order they
// finished, and incomplete jobs are rebuilt for re-execution. Jobs that
// cannot be rebuilt are marked Failed — visibly, and durably so the next
// incarnation does not retry them either. Returns the jobs to re-enqueue, in
// submission order.
func (s *Server) replay(st *journal.State) []*job {
	ids := st.Finished.IDs()
	finished := len(ids)
	for id, js := range st.Jobs {
		if !js.Terminal() {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids[finished:])
	var reenq []*job
	for _, id := range ids {
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
		switch {
		case js.Terminal():
			j.state = Cancelled
			if js.State == journal.Failed {
				j.state = Failed
			}
			j.started, j.finished = js.StartedAt, js.FinishedAt
			if js.Error != "" {
				j.err = errors.New(js.Error)
			}
			if js.State == journal.Succeeded {
				j.state = Succeeded
				j.sinkDigest = js.SinkDigest
				// The sink data itself is not journaled — only its
				// digest — so the restored Result carries a nil Sink.
				j.res = &core.Result{
					Elapsed:         js.Elapsed,
					Tasks:           js.Tasks,
					ReexecutedTasks: js.ReexecutedTasks,
					Metrics:         js.Metrics,
				}
			}
			// The terminal state was replayed from the fsynced journal: it is
			// durable already, so nothing is left to sync before waking
			// waiters.
			j.ackDone()
		default: // Submitted or Started: incomplete, re-run it.
			spec, err := s.rebuildSpec(js)
			if err != nil {
				s.failRestored(j, err)
				break
			}
			spec.Name = js.Name
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
		if j.state.Terminal() {
			s.retire(id, j.state, j.res)
		}
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
// done channel closes: the original ordering here acked first and journaled
// after, and a crash in the gap would have left a waiter believing in an
// outcome the next incarnation had no record of.
func (s *Server) failRestored(j *job, cause error) {
	j.state = Failed
	j.err = fmt.Errorf("service: job not recoverable after restart: %w", cause)
	j.finished = time.Now()
	s.cfg.Logf("service: job %d (%s): %v", j.id, j.spec.Name, j.err)
	s.journalAppend(journal.Record{Kind: journal.Failed, ID: j.id, Error: j.err.Error()})
	j.ackDone()
}
