package service

import (
	"time"

	"ftdag/internal/sched"
)

// DrainResult reports a Drain: how many in-flight jobs finished within the
// grace and which were checkpointed incomplete for migration.
type DrainResult struct {
	// Completed counts the jobs that were in flight when the drain began
	// and reached a terminal state on this server.
	Completed int `json:"completed"`
	// Incomplete lists the IDs of the jobs aborted at grace expiry. They
	// carry no terminal record in the journal — a restart of this server
	// would re-run them — and a router resubmits its own copy of each
	// elsewhere.
	Incomplete []int64 `json:"incomplete"`
}

// Draining reports whether Drain has stopped admission.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission (Submit fails with ErrDraining) and gives the jobs
// currently queued or running up to grace to finish; grace <= 0 waits
// indefinitely. Jobs still unfinished at expiry are aborted WITHOUT a
// terminal journal record — like Shutdown's grace expiry, they stay
// incomplete in the write-ahead log — and their IDs returned so a router can
// resubmit them to another backend. Unlike Close/Shutdown the server keeps
// running: status queries, metrics, and journal tailing stay live, and the
// pool and journal stay open. Drain is idempotent in effect (a second call
// finds nothing in flight) but not concurrent-safe with Close/Shutdown.
func (s *Server) Drain(grace time.Duration) DrainResult {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	pending := s.unfinished()

	var res DrainResult
	var expire <-chan time.Time
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		expire = t.C
	}
	i := 0
wait:
	for ; i < len(pending); i++ {
		select {
		case <-pending[i].done:
		case <-expire:
			break wait
		}
	}
	res.Completed = i

	// Grace expired: checkpoint the rest as incomplete (no terminal journal
	// record — the shutdownAbort path) and abort them.
	leftovers := pending[i:]
	for _, j := range leftovers {
		j.mu.Lock()
		if !j.state.Terminal() {
			j.shutdownAbort = true
		}
		j.mu.Unlock()
		j.cancelNow()
	}
	for _, j := range leftovers {
		<-j.done
		j.mu.Lock()
		// A job can win the race and finish normally between the expiry
		// and the abort; it counts as completed, not incomplete.
		if j.shutdownAbort && j.state == Cancelled {
			s.cfg.Flight.Emit("drain-checkpoint", j.spec.Name, j.id, -1, 0, j.span)
			res.Incomplete = append(res.Incomplete, j.id)
		} else {
			res.Completed++
		}
		j.mu.Unlock()
	}
	return res
}

// unfinished returns the jobs not yet terminal, in submission order, once the
// Submits under way have registered theirs: the caller has already stopped
// admission (closed or draining), so Submits that passed that check before it
// was set are the only ones left to wait for.
func (s *Server) unfinished() []*job {
	s.submitWG.Wait()
	var out []*job
	for _, j := range s.all() {
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if !terminal {
			out = append(out, j)
		}
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
	for _, j := range s.unfinished() {
		j.cancelNow()
	}
	return s.teardown()
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
	return s.teardown()
}

// teardown is Close's and Shutdown's last step, once every job is terminal or
// on its way there: the runners drain the closed queue, the pool shuts down,
// and the journal (if any) is snapshotted and closed. It returns the pool's
// lifetime scheduler statistics.
func (s *Server) teardown() sched.Stats {
	close(s.queue)
	s.wg.Wait()
	stats := s.pool.Close()
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Close(); err != nil {
			s.cfg.Logf("service: closing journal: %v", err)
		}
	}
	return stats
}
