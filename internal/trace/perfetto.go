package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// This file merges span sets collected from several processes — the shard
// router plus every backend that touched a trace — into one
// Perfetto-compatible document. Each process becomes one pid row, each
// task one tid lane, and every parent→child edge that crosses the set
// becomes a flow event, so a kill-to-reroute reads as one connected
// timeline in the Perfetto UI.

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// object form understood by about:tracing and Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since the earliest span
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant scope
	ID   string         `json:"id,omitempty"` // flow-event binding id
	Bp   string         `json:"bp,omitempty"` // flow-event binding point
	Args map[string]any `json:"args,omitempty"`
}

// MergedTrace is the document served by the router's
// /debug/cluster-trace/{id} endpoint and, for one job's spans, by a backend's
// /jobs/{id}/trace: Chrome trace events for viewers, the raw merged spans for
// tools (the soak's assertions, the triage matrix), and the critical path.
type MergedTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Spans           []Span        `json:"spans"`
	CriticalPath    []Span        `json:"criticalPath"`
	CriticalPathUS  int64         `json:"criticalPathUs"`
}

// MergeSpans assembles the merged document from span sets gathered across
// processes. Inputs are tolerated hostile: spans with a zero ID are
// dropped, duplicate IDs keep the first occurrence, and parents that
// point outside the set simply produce no flow event.
func MergeSpans(sets ...[]Span) *MergedTrace {
	var spans []Span
	seen := make(map[SpanID]bool)
	for _, set := range sets {
		for _, sp := range set {
			if sp.ID == 0 || seen[sp.ID] {
				continue
			}
			seen[sp.ID] = true
			spans = append(spans, sp)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})

	out := &MergedTrace{DisplayTimeUnit: "ms", Spans: spans}
	if len(spans) == 0 {
		out.Spans = []Span{}
		out.TraceEvents = []chromeEvent{}
		out.CriticalPath = []Span{}
		return out
	}

	// One pid per process, in first-seen order; name the rows. The spans
	// are sorted, so the first starts the timeline.
	pids := make(map[string]int)
	var procs []string
	t0 := spans[0].Start
	for _, sp := range spans {
		if _, ok := pids[sp.Proc]; !ok {
			pids[sp.Proc] = len(pids) + 1
			procs = append(procs, sp.Proc)
		}
	}
	events := make([]chromeEvent, 0, 2*len(spans)+len(pids))
	for _, p := range procs {
		name := p
		if name == "" {
			name = "(unnamed)"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pids[p],
			Args: map[string]any{"name": name},
		})
	}

	byID := make(map[SpanID]Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	tid := func(sp Span) int64 {
		if sp.Task >= 0 {
			return sp.Task + 1
		}
		return 0
	}
	for _, sp := range spans {
		args := map[string]any{
			"span": sp.ID.String(), "trace": sp.Trace.String(),
			"job": sp.Job, "task": sp.Task,
		}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent.String()
		}
		if sp.Note != "" {
			args["note"] = sp.Note
		}
		if sp.Life != 0 {
			args["life"] = sp.Life
		}
		if sp.Arg != 0 {
			args["arg"] = sp.Arg
		}
		ev := chromeEvent{
			Name: sp.Name,
			Ts:   float64(sp.Start - t0),
			Pid:  pids[sp.Proc],
			Tid:  tid(sp),
			Args: args,
		}
		if sp.Dur > 0 {
			ev.Ph, ev.Dur = "X", float64(sp.Dur)
		} else {
			ev.Ph, ev.S = "i", "t"
		}
		events = append(events, ev)
		// A flow event per resolvable parent edge: start at the parent
		// slice, finish at this one. The binding id is the child span —
		// unique, so Perfetto draws one arrow per edge.
		if parent, ok := byID[sp.Parent]; ok {
			events = append(events, chromeEvent{
				Name: "causal", Cat: "trace", Ph: "s", ID: sp.ID.String(),
				Ts: float64(parent.Start - t0), Pid: pids[parent.Proc], Tid: tid(parent),
			}, chromeEvent{
				Name: "causal", Cat: "trace", Ph: "f", Bp: "e", ID: sp.ID.String(),
				Ts: float64(sp.Start - t0), Pid: pids[sp.Proc], Tid: tid(sp),
			})
		}
	}
	out.TraceEvents = events
	out.CriticalPath = CriticalPath(spans)
	for _, sp := range out.CriticalPath {
		out.CriticalPathUS += sp.Dur
	}
	return out
}

// WriteJSON encodes the document as JSON.
func (m *MergedTrace) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(m)
}

// CriticalPath walks span parent links from the latest-finishing span back
// to its root: the causal chain that determined when the trace completed.
// Returned root-first. Cycles (hostile input) terminate the walk.
func CriticalPath(spans []Span) []Span {
	if len(spans) == 0 {
		return []Span{}
	}
	byID := make(map[SpanID]Span, len(spans))
	last := spans[0]
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.End() > last.End() {
			last = sp
		}
	}
	var path []Span
	visited := make(map[SpanID]bool)
	for cur, ok := last, true; ok && !visited[cur.ID]; cur, ok = byID[cur.Parent] {
		visited[cur.ID] = true
		path = append(path, cur)
		if cur.Parent == 0 {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
