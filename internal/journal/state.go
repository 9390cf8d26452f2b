package journal

import (
	"cmp"
	"encoding/json"
	"errors"
	"slices"
	"time"

	"ftdag/internal/core"
)

// JobState is the replayed (or snapshotted) condition of one job: the fold
// of every record appended for its ID.
type JobState struct {
	ID      int64           `json:"id"`
	Name    string          `json:"name,omitempty"`
	Payload []byte          `json:"payload,omitempty"`
	Plan    json.RawMessage `json:"plan,omitempty"`
	// Recovery / ReplicaBudget carry the job's recovery policy across
	// restarts (see Record).
	Recovery      string  `json:"recovery,omitempty"`
	ReplicaBudget float64 `json:"replica_budget,omitempty"`
	// Trace carries the job's distributed span context across restarts
	// (see Record.Trace).
	Trace string `json:"trace,omitempty"`
	// State is the kind of the job's latest lifecycle record. Submitted
	// and Started mean the job is incomplete and must be re-run after a
	// restart.
	State       Kind      `json:"state"`
	SubmittedAt time.Time `json:"submitted_at,omitempty"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	Error       string    `json:"error,omitempty"`

	SinkDigest      string        `json:"sink_digest,omitempty"`
	SinkLen         int           `json:"sink_len,omitempty"`
	Elapsed         time.Duration `json:"elapsed_ns,omitempty"`
	Tasks           int           `json:"tasks,omitempty"`
	ReexecutedTasks int64         `json:"reexecuted_tasks,omitempty"`
	Metrics         core.Metrics  `json:"metrics,omitempty"`
}

// Terminal reports whether the job reached a final state.
func (js *JobState) Terminal() bool { return js.State.Terminal() }

// KeepFinished is how many finished jobs stay queryable: the journal's
// state, the service's job table and the router's cache each hold the live
// jobs plus the last KeepFinished to finish, and no other.
const KeepFinished = 1024

// Window is the retention window: the IDs of the last KeepFinished jobs to
// finish, oldest first. The zero value is empty.
type Window struct {
	ids  []int64
	next int // once full, the slot of the oldest ID
}

// Push adds the ID of a job that just finished and returns the one it
// evicts from the window, 0 while the window is not full.
func (w *Window) Push(id int64) (evicted int64) {
	if len(w.ids) < KeepFinished {
		w.ids = append(w.ids, id)
		return 0
	}
	evicted, w.ids[w.next] = w.ids[w.next], id
	w.next = (w.next + 1) % KeepFinished
	return evicted
}

// IDs returns the window's IDs, oldest first.
func (w *Window) IDs() []int64 {
	return append(append(make([]int64, 0, len(w.ids)), w.ids[w.next:]...), w.ids[:w.next]...)
}

// State is the condition of the journaled jobs that are still kept: every
// live job, and the finished ones in the retention window.
type State struct {
	// Jobs maps job ID to its folded state.
	Jobs map[int64]*JobState
	// Finished is the retention window; Jobs holds its jobs and the live
	// ones, nothing else.
	Finished Window
	// MaxID is the highest job ID ever journaled, kept when its job has
	// left the window: a service resuming from this state continues
	// numbering after it, so no ID is handed out twice.
	MaxID int64
}

func newState() *State { return &State{Jobs: make(map[int64]*JobState)} }

// apply folds one record into the state. Replay after a crash can observe
// benign anomalies — a repeated Started from a job that was re-enqueued, or
// a Started whose Submitted fell into a truncated tail — so apply is
// tolerant: records create the job on first sight and later records only
// fill in what they carry.
func (st *State) apply(rec *Record) {
	js, ok := st.Jobs[rec.ID]
	if !ok {
		js = &JobState{ID: rec.ID}
		st.Jobs[rec.ID] = js
		if rec.ID > st.MaxID {
			st.MaxID = rec.ID
		}
	}
	// A terminal state is sticky: a stray lifecycle record replayed after
	// it (possible when a snapshot boundary races a crash) cannot revive
	// the job.
	if js.Terminal() {
		return
	}
	switch rec.Kind {
	case Submitted:
		js.State = Submitted
		js.Name = rec.Name
		js.Payload = rec.Payload
		js.Plan = rec.Plan
		js.Recovery = rec.Recovery
		js.ReplicaBudget = rec.ReplicaBudget
		js.Trace = rec.Trace
		js.SubmittedAt = rec.Time
	case Started:
		js.State = Started
		js.StartedAt = rec.Time
	case Succeeded:
		js.State = Succeeded
		js.FinishedAt = rec.Time
		js.SinkDigest = rec.SinkDigest
		js.SinkLen = rec.SinkLen
		js.Elapsed = rec.Elapsed
		js.Tasks = rec.Tasks
		js.ReexecutedTasks = rec.ReexecutedTasks
		if rec.Metrics != nil {
			js.Metrics = *rec.Metrics
		}
	case Failed, Cancelled:
		js.State = rec.Kind
		js.FinishedAt = rec.Time
		js.Error = rec.Error
	}
	if js.Terminal() {
		st.finish(js)
	}
}

// finish moves a job that reached its terminal state into the retention
// window. Only a replay of an incomplete job reads its payload and plan, so
// they go; the job the window evicts leaves the state.
func (st *State) finish(js *JobState) {
	js.Payload, js.Plan = nil, nil
	delete(st.Jobs, st.Finished.Push(js.ID))
}

// clone deep-copies the state (payload/plan bytes are immutable once
// journaled and are shared, not copied).
func (st *State) clone() *State {
	out := &State{
		Jobs:     make(map[int64]*JobState, len(st.Jobs)),
		Finished: Window{ids: append([]int64(nil), st.Finished.ids...), next: st.Finished.next},
		MaxID:    st.MaxID,
	}
	for id, js := range st.Jobs {
		c := *js
		out.Jobs[id] = &c
	}
	return out
}

// snapshotJSON is the serialized form of a State (snapshot files).
type snapshotJSON struct {
	MaxID int64 `json:"max_id"`
	// Jobs are the live jobs in ID order, then the retention window's,
	// oldest first.
	Jobs []*JobState `json:"jobs"`
}

func (st *State) marshalSnapshot() ([]byte, error) {
	out := snapshotJSON{MaxID: st.MaxID, Jobs: make([]*JobState, 0, len(st.Jobs))}
	for _, js := range st.Jobs {
		if !js.Terminal() {
			out.Jobs = append(out.Jobs, js)
		}
	}
	slices.SortFunc(out.Jobs, func(a, b *JobState) int { return cmp.Compare(a.ID, b.ID) })
	for _, id := range st.Finished.IDs() {
		out.Jobs = append(out.Jobs, st.Jobs[id])
	}
	return json.Marshal(out)
}

// unmarshalSnapshot rebuilds a state from its snapshot. The finished jobs
// pass through the window in the order the snapshot lists them, so one that
// lists every job ever finished, in submission order, loads pruned to the
// last KeepFinished of them.
func unmarshalSnapshot(data []byte) (*State, error) {
	var in snapshotJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	st := newState()
	st.MaxID = in.MaxID
	for _, js := range in.Jobs {
		if js == nil {
			return nil, errors.New("journal: snapshot lists a null job")
		}
		if _, dup := st.Jobs[js.ID]; dup {
			continue
		}
		st.Jobs[js.ID] = js
		if js.ID > st.MaxID {
			st.MaxID = js.ID
		}
		if js.Terminal() {
			st.finish(js)
		}
	}
	return st, nil
}
