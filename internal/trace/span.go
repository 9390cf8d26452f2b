// Package trace records what a process did, for reading after the fact.
// Spans is the process's bounded ring of causal spans: a job's admission,
// queue wait and run, and under the run every executor event — computes,
// injected faults, recoveries, replica digest joins — so one job's spans are
// its lifecycle, and one trace's spans across processes (MergeSpans) are a
// cluster-wide timeline. Flight is the black box of job lifecycle events that
// survives the process.
//
// A span context (128-bit trace ID + 64-bit span ID) is minted by whichever
// process first sees a submission — normally the shard router — and rides the
// FT-Trace HTTP header and the journal's Submitted records, so failover
// resubmission and replay-after-crash *continue* the original trace instead
// of starting a new one.
package trace

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// HeaderName is the HTTP header carrying a span context between
// processes: router → backend on submission and failover resubmission.
const HeaderName = "FT-Trace"

// TraceID is a 128-bit trace identifier. The zero value means "no trace".
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether t is the absent trace ID.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], t.Hi)
	binary.BigEndian.PutUint64(b[8:], t.Lo)
	return hex.EncodeToString(b[:])
}

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) != 32 {
		return TraceID{}, fmt.Errorf("trace: trace id %q: want 32 hex digits", s)
	}
	var b [16]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("trace: trace id %q: %v", s, err)
	}
	return TraceID{Hi: binary.BigEndian.Uint64(b[:8]), Lo: binary.BigEndian.Uint64(b[8:])}, nil
}

// MarshalText encodes the ID as its 32-hex-digit string form, which is also
// its JSON form.
func (t TraceID) MarshalText() ([]byte, error) {
	return []byte(t.String()), nil
}

// UnmarshalText accepts the string form; an empty string is the zero ID.
func (t *TraceID) UnmarshalText(s []byte) error {
	if len(s) == 0 {
		*t = TraceID{}
		return nil
	}
	id, err := ParseTraceID(string(s))
	*t = id
	return err
}

// NewTraceID mints a random 128-bit trace ID (crypto/rand, so IDs minted
// by unrelated processes never collide in practice). It never returns the
// zero ID.
func NewTraceID() TraceID {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, a timestamp-derived ID still distinguishes traces.
		binary.BigEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
	}
	id := TraceID{Hi: binary.BigEndian.Uint64(b[:8]), Lo: binary.BigEndian.Uint64(b[8:])}
	if id.IsZero() {
		id.Lo = 1
	}
	return id
}

// SpanID is a 64-bit span identifier, unique within a trace (process-level
// recorders salt a random base so concurrently-minted IDs from different
// processes do not collide). Zero means "no span".
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(s))
	return hex.EncodeToString(b[:])
}

// ParseSpanID parses the 16-hex-digit form produced by String.
func ParseSpanID(s string) (SpanID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("trace: span id %q: want 16 hex digits", s)
	}
	var b [8]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return 0, fmt.Errorf("trace: span id %q: %v", s, err)
	}
	return SpanID(binary.BigEndian.Uint64(b[:])), nil
}

// MarshalText encodes the ID as its 16-hex-digit string form, which is also
// its JSON form.
func (s SpanID) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText accepts the string form; an empty string is span 0.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*s = 0
		return nil
	}
	id, err := ParseSpanID(string(b))
	*s = id
	return err
}

// SpanContext names a position in a trace: the trace plus the span that
// subsequent work should parent to.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context carries a real trace.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() }

// Header renders the context in FT-Trace wire form:
// "<32 hex trace>-<16 hex span>".
func (c SpanContext) Header() string { return c.Trace.String() + "-" + c.Span.String() }

// ParseHeader parses the FT-Trace wire form. An empty value returns the
// zero (invalid) context with no error, so absent headers need no special
// casing at call sites.
func ParseHeader(s string) (SpanContext, error) {
	if s == "" {
		return SpanContext{}, nil
	}
	if len(s) != 49 || s[32] != '-' {
		return SpanContext{}, fmt.Errorf("trace: header %q: want <32 hex>-<16 hex>", s)
	}
	tid, err := ParseTraceID(s[:32])
	if err != nil {
		return SpanContext{}, err
	}
	sid, err := ParseSpanID(s[33:])
	if err != nil {
		return SpanContext{}, err
	}
	return SpanContext{Trace: tid, Span: sid}, nil
}

// Span is one completed (or instantaneous) operation in a trace. Start is
// wall-clock unix microseconds so spans recorded by different processes
// merge on one timeline; Dur is microseconds (0 = instant). Task is -1 for
// spans not scoped to a single task.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Proc   string  `json:"proc,omitempty"`
	Note   string  `json:"note,omitempty"`
	Start  int64   `json:"start_us"`
	Dur    int64   `json:"dur_us"`
	Job    int64   `json:"job"`
	Task   int64   `json:"task"`
	Life   int     `json:"life,omitempty"`
	Arg    int64   `json:"arg,omitempty"`
}

// End returns the span's end time in unix microseconds.
func (s Span) End() int64 { return s.Start + s.Dur }

// Spans is a process-wide bounded span recorder: a fixed-capacity ring
// shared by every job and subsystem in the process. When full, the oldest
// spans are overwritten. All methods are safe for concurrent use; a nil
// *Spans discards everything, so distributed tracing costs one nil check
// when disabled (the same contract as the nil metrics registry — held by
// internal/metrics' TestDisabledInstrumentsCostNothing).
type Spans struct {
	proc string
	base uint64
	ctr  atomic.Uint64
	ring ring[Span]
}

// NewSpans returns a recorder labelled with the process name, retaining
// the most recent capacity spans. Capacity < 1 means "tracing off": the
// returned recorder is nil and every method is a cheap no-op.
func NewSpans(proc string, capacity int) *Spans {
	if capacity < 1 {
		return nil
	}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return &Spans{proc: proc, base: binary.BigEndian.Uint64(b[:]), ring: ring[Span]{buf: make([]Span, 0, capacity)}}
}

// NewRecorders builds a process's two recorders: the span ring (spans < 1:
// nil, tracing off) and — only with a dataDir to persist under — the flight
// recorder (flight < 1: nil), persisting. They are not connected: spans stay
// in the span ring, and the box holds only the lifecycle events emitted to it,
// the same whether tracing is on or off.
func NewRecorders(proc string, spans, flight int, dataDir string) (*Spans, *Flight, error) {
	s := NewSpans(proc, spans)
	if dataDir == "" {
		return s, nil, nil
	}
	f := NewFlight(proc, flight)
	if err := f.Persist(dataDir); err != nil {
		return nil, nil, err
	}
	return s, f, nil
}

// NextID mints a span ID unique across processes (random per-process base
// plus a counter). Use it when a span's ID must be known — to parent
// children or to cross a process boundary — before the span itself is
// emitted. Returns 0 on a nil recorder.
func (s *Spans) NextID() SpanID {
	if s == nil {
		return 0
	}
	id := SpanID(s.base + s.ctr.Add(1))
	if id == 0 {
		id = SpanID(s.base + s.ctr.Add(1))
	}
	return id
}

// Emit records a span, assigning an ID if sp.ID is zero and stamping the
// recorder's process label. No-op on a nil recorder; the nil path is a
// single inlined branch.
func (s *Spans) Emit(sp Span) {
	if s == nil {
		return
	}
	s.emit(sp)
}

func (s *Spans) emit(sp Span) {
	if sp.ID == 0 {
		sp.ID = s.NextID()
	}
	sp.Proc = s.proc
	s.ring.mu.Lock()
	*s.ring.next() = sp
	s.ring.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (s *Spans) Snapshot() []Span {
	if s == nil {
		return nil
	}
	out, _, _ := s.ring.since(nil, 0)
	return out
}

// ForTrace returns the retained spans belonging to one trace, oldest
// first.
func (s *Spans) ForTrace(id TraceID) []Span {
	var out []Span
	for _, sp := range s.Snapshot() {
		if sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}
