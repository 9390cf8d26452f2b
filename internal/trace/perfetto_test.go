package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// mkSpan builds a test span with deterministic IDs.
func mkSpan(tid TraceID, id, parent SpanID, proc, name string, start, dur int64) Span {
	return Span{Trace: tid, ID: id, Parent: parent, Proc: proc, Name: name,
		Start: start, Dur: dur, Job: 1, Task: -1}
}

func TestMergeSpansCrossProcess(t *testing.T) {
	tid := NewTraceID()
	router := []Span{mkSpan(tid, 1, 0, "router", "cluster-submit", 100, 5)}
	b0 := []Span{
		mkSpan(tid, 2, 1, "b0", "job-submit", 110, 0),
		mkSpan(tid, 3, 2, "b0", "job-run", 120, 400),
	}
	b1 := []Span{mkSpan(tid, 4, 1, "b1", "failover-resubmit", 300, 2)}
	m := MergeSpans(router, b0, b1)
	if len(m.Spans) != 4 {
		t.Fatalf("merged %d spans, want 4", len(m.Spans))
	}
	// One process_name metadata event per proc plus one event per span
	// plus one s/f flow pair per resolvable parent edge (3 edges).
	wantEvents := 3 + 4 + 3*2
	if len(m.TraceEvents) != wantEvents {
		t.Fatalf("%d trace events, want %d", len(m.TraceEvents), wantEvents)
	}
	// Critical path: job-run ends last (520) and chains back through
	// job-submit to the router's submit span.
	if len(m.CriticalPath) != 3 {
		t.Fatalf("critical path %+v, want submit→job-submit→job-run", m.CriticalPath)
	}
	if m.CriticalPath[0].Name != "cluster-submit" || m.CriticalPath[2].Name != "job-run" {
		t.Fatalf("critical path order: %q → %q → %q",
			m.CriticalPath[0].Name, m.CriticalPath[1].Name, m.CriticalPath[2].Name)
	}
	if m.CriticalPathUS != 5+0+400 {
		t.Fatalf("CriticalPathUS = %d, want 405", m.CriticalPathUS)
	}
}

// TestMergeSpansHostileInput: zero IDs, duplicate IDs, dangling parents,
// and parent cycles — everything a truncated or corrupted per-backend
// response can smuggle in — must still produce a valid JSON document.
func TestMergeSpansHostileInput(t *testing.T) {
	tid := NewTraceID()
	hostile := []Span{
		mkSpan(tid, 0, 0, "evil", "zero-id", 1, 1),   // dropped
		mkSpan(tid, 5, 6, "evil", "cycle-a", 10, 10), // 5↔6 parent cycle
		mkSpan(tid, 6, 5, "evil", "cycle-b", 10, 11),
		mkSpan(tid, 7, 99, "evil", "dangling-parent", 5, 1),
	}
	dup := []Span{
		mkSpan(tid, 5, 0, "other", "dup-of-5", 50, 1), // duplicate ID: first wins
	}
	m := MergeSpans(hostile, dup)
	if len(m.Spans) != 3 {
		t.Fatalf("merged %d spans, want 3 (zero dropped, dup dropped)", len(m.Spans))
	}
	for _, sp := range m.Spans {
		if sp.Name == "dup-of-5" {
			t.Fatal("duplicate ID replaced the first occurrence")
		}
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Spans       []Span           `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged document is not valid JSON: %v", err)
	}
	// The cycle must terminate the critical-path walk, not hang it.
	if len(m.CriticalPath) == 0 || len(m.CriticalPath) > 2 {
		t.Fatalf("cycle-guarded critical path has %d spans", len(m.CriticalPath))
	}
}

// TestWriteJSONRoundTrip writes one job's executor spans as the document and
// parses it back: a span with a duration is a complete ("X") event, an
// instant an "i", each on its task's lane, with life and arg in its args.
func TestWriteJSONRoundTrip(t *testing.T) {
	tid := NewTraceID()
	spans := []Span{
		{Trace: tid, ID: 1, Proc: "p", Name: "inject", Start: 10, Job: 1, Task: 7, Arg: 1},
		{Trace: tid, ID: 2, Proc: "p", Name: "compute", Start: 5, Dur: 20, Job: 1, Task: 7, Arg: 1},
		{Trace: tid, ID: 3, Proc: "p", Name: "recover", Start: 30, Dur: 2, Job: 1, Task: 7, Life: 1},
	}
	var buf bytes.Buffer
	if err := MergeSpans(spans).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
		Spans           []Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("document is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.Spans) != 3 {
		t.Fatalf("displayTimeUnit %q, %d spans", doc.DisplayTimeUnit, len(doc.Spans))
	}
	// One process_name event, then the spans by start time.
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("trace events: %+v", doc.TraceEvents)
	}
	for i, want := range []struct {
		name, ph  string
		ts, dur   float64
		life, arg float64
	}{{"compute", "X", 0, 20, 0, 1}, {"inject", "i", 5, 0, 0, 1}, {"recover", "X", 25, 2, 1, 0}} {
		e := doc.TraceEvents[i+1]
		life, _ := e.Args["life"].(float64)
		arg, _ := e.Args["arg"].(float64)
		if e.Name != want.name || e.Ph != want.ph || e.Ts != want.ts || e.Dur != want.dur || e.Tid != 8 ||
			life != want.life || arg != want.arg {
			t.Fatalf("event %d = %+v, want %+v on tid 8", i+1, e, want)
		}
	}
}

// TestWriteJSONNamedHostileInput: process labels and notes (the submit span's
// note is the job's name, arbitrary request input) and task keys at the int64
// extremes must leave the document valid JSON that round-trips every valid
// byte of the strings.
func TestWriteJSONNamedHostileInput(t *testing.T) {
	tid := NewTraceID()
	for i, name := range []string{
		`quote " inside`,
		`back\slash and \"both\"`,
		"newline\nand\ttab",
		"non-ASCII: héllo wörld — 日本語 ✓",
		"control \x00\x1f bytes",
		`</script><script>alert(1)</script>`,
	} {
		m := MergeSpans([]Span{
			{Trace: tid, ID: SpanID(2*i + 1), Proc: name, Name: "submit", Note: name, Start: 1, Job: 1, Task: -1},
			{Trace: tid, ID: SpanID(2*i + 2), Proc: name, Name: "compute", Start: 2, Dur: 1, Job: 1, Task: math.MaxInt64 - 1},
			{Trace: tid, ID: SpanID(2*i + 3), Proc: name, Name: "inject", Start: 3, Job: 1, Task: math.MinInt64},
		})
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("name %q: %v", name, err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
			Spans []Span `json:"spans"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("name %q produced invalid JSON: %v\n%s", name, err, buf.String())
		}
		if len(doc.TraceEvents) != 4 || doc.TraceEvents[0].Name != "process_name" {
			t.Fatalf("name %q: events %+v", name, doc.TraceEvents)
		}
		if got := doc.TraceEvents[0].Args["name"]; got != name || doc.Spans[0].Note != name {
			t.Fatalf("name %q round-tripped as %q and %q", name, got, doc.Spans[0].Note)
		}
	}
}

func TestMergeSpansEmpty(t *testing.T) {
	m := MergeSpans(nil, []Span{})
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["traceEvents"] == nil || doc["spans"] == nil || doc["criticalPath"] == nil {
		t.Fatalf("empty merge must keep arrays non-null: %v", doc)
	}
}

func TestCriticalPathSingleAndEmpty(t *testing.T) {
	if p := CriticalPath(nil); len(p) != 0 {
		t.Fatalf("empty input: %+v", p)
	}
	tid := NewTraceID()
	p := CriticalPath([]Span{mkSpan(tid, 9, 42, "p", "lone", 0, 3)})
	if len(p) != 1 || p[0].ID != 9 {
		t.Fatalf("lone span with dangling parent: %+v", p)
	}
}
