package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Flight is the black-box flight recorder: an always-on, bounded,
// allocation-free ring of a process's job lifecycle events that survives the
// death of the process. Emit writes into preallocated slots under a mutex (no
// allocation, no I/O); a background flusher appends the events emitted since
// its previous write to <dir>/blackbox/<proc>.json every flushEvery, one JSON
// line each, so even a SIGKILL — which no handler can observe — leaves a box
// at most one flush stale, and at worst a torn last line that the reader
// drops. Explicit snapshots (panic, SIGTERM, journal-replay-after-crash)
// append at once, followed by a line with the reason.
//
// The box file is line 1 a header {"proc","pid"}, then event lines in the
// order emitted with no seq missing between them, and reason lines
// {"reason","when_us"}. Once it holds twice the ring's lines, or the ring
// overwrote events no write had reached, it is rewritten from the ring through
// a temp file and a rename; every other write is one append of the new lines
// from storage the recorder reuses, and allocates nothing.
//
// A nil *Flight discards everything: the disabled path is one inlined nil
// check, the same contract as the nil metrics registry and nil *Spans.
type Flight struct {
	proc  string
	ring  ring[FlightEvent]
	limit int // the lines the box may hold after its header: twice the ring

	path string // the box file; "" until Persist
	stop chan struct{}
	done chan struct{}

	// mu serializes writes to the box (the flusher's and explicit
	// snapshots) and guards the state they share.
	mu      sync.Mutex
	file    *os.File      // the box, its offset at the end; nil before the first write and after a failed one
	lines   int           // lines in the file after the header
	written uint64        // the events numbered below this are written, or were overwritten unwritten
	reason  []byte        // the newest reason line, carried over a rewrite so that the box's reason does not depend on when it was rewritten
	fresh   []FlightEvent // staging for the events a write copies out of the ring
	buf     []byte        // staging for the lines a write appends
}

// flushEvery is the write-behind interval: what a SIGKILL can cost the box.
// A variable only so that a test can stop the ticks.
var flushEvery = 50 * time.Millisecond

// FlightEvent is one recorded occurrence. Fields are fixed-size or
// pre-existing strings so Emit never allocates.
type FlightEvent struct {
	Seq    uint64  `json:"seq"`     // the event's position in the ring, filled in when it is written
	WhenUS int64   `json:"when_us"` // unix microseconds
	Kind   string  `json:"kind"`
	Name   string  `json:"name,omitempty"`
	Job    int64   `json:"job,omitempty"`
	Task   int64   `json:"task,omitempty"`
	Arg    int64   `json:"arg,omitempty"`
	Trace  TraceID `json:"trace"`
	Span   SpanID  `json:"span,omitempty"`
}

// BlackBox is a box as ReadBlackBox returns it.
type BlackBox struct {
	Proc    string        `json:"proc"`
	PID     int           `json:"pid"`
	Reason  string        `json:"reason"`  // the newest snapshot's reason; "flush" if none
	WhenUS  int64         `json:"when_us"` // the newest snapshot's time, or else the newest event's
	Seq     uint64        `json:"seq"`     // events emitted up to the newest in the box
	Dropped uint64        `json:"dropped"` // events emitted before the oldest in the box
	Events  []FlightEvent `json:"events"`  // the events in the box, oldest first
}

// NewFlight returns a recorder labelled with the process name, retaining
// the most recent capacity events. Capacity < 1 disables the recorder
// (returns nil).
func NewFlight(proc string, capacity int) *Flight {
	if capacity < 1 {
		return nil
	}
	return &Flight{proc: proc, ring: ring[FlightEvent]{buf: make([]FlightEvent, 0, capacity)}, limit: 2 * capacity}
}

// Emit records an event. Safe for concurrent use; allocation-free; no-op
// on a nil recorder.
func (f *Flight) Emit(kind, name string, job, task, arg int64, ctx SpanContext) {
	if f == nil {
		return
	}
	f.emit(kind, name, job, task, arg, ctx)
}

func (f *Flight) emit(kind, name string, job, task, arg int64, ctx SpanContext) {
	when := time.Now().UnixMicro()
	f.ring.mu.Lock()
	*f.ring.next() = FlightEvent{WhenUS: when, Kind: kind, Name: name,
		Job: job, Task: task, Arg: arg, Trace: ctx.Trace, Span: ctx.Span}
	f.ring.mu.Unlock()
}

func appendEvent(b []byte, e *FlightEvent) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"when_us":`...)
	b = strconv.AppendInt(b, e.WhenUS, 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, e.Kind)
	if e.Name != "" {
		b = append(b, `,"name":`...)
		b = appendJSONString(b, e.Name)
	}
	b = appendOptInt(b, `,"job":`, e.Job)
	b = appendOptInt(b, `,"task":`, e.Task)
	b = appendOptInt(b, `,"arg":`, e.Arg)
	b = append(b, `,"trace":"`...)
	b = appendHex64(appendHex64(b, e.Trace.Hi), e.Trace.Lo)
	if e.Span != 0 {
		b = append(b, `","span":"`...)
		b = appendHex64(b, uint64(e.Span))
	}
	return append(b, `"}`...)
}

func appendOptInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendHex64(b []byte, v uint64) []byte {
	const d = "0123456789abcdef"
	return append(b,
		d[v>>60], d[v>>56&15], d[v>>52&15], d[v>>48&15], d[v>>44&15], d[v>>40&15], d[v>>36&15], d[v>>32&15],
		d[v>>28&15], d[v>>24&15], d[v>>20&15], d[v>>16&15], d[v>>12&15], d[v>>8&15], d[v>>4&15], d[v&15])
}

// appendJSONString appends s as a JSON string literal. Kind and Name can be
// anything — a panic value, a job name from a request body — so quotes,
// backslashes and control bytes are escaped, an invalid UTF-8 byte becomes
// U+FFFD (what encoding/json writes, and what it would make of the raw byte
// on the way back in), and U+2028/U+2029 are escaped for readers that treat
// the box as JavaScript.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0 // s[start:i] needs no escaping and is not yet copied
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), `\u202`...)
			b = append(b, hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// BoxPath returns the black-box file a process named proc persists under
// dataDir (shared vocabulary for writers and collectors like ftsoak).
func BoxPath(dataDir, proc string) string {
	return filepath.Join(dataDir, "blackbox", proc+".json")
}

// Persist starts write-behind persistence under dataDir: the box lands at
// BoxPath(dataDir, proc), and every flushEvery the events emitted since are
// appended to it. An existing box from a previous incarnation of the same
// process is preserved as <proc>-prev.json — it is crash evidence, not ours
// to clobber. Call Close to stop the flusher and write a final snapshot.
func (f *Flight) Persist(dataDir string) error {
	if f == nil {
		return nil
	}
	dir := filepath.Join(dataDir, "blackbox")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: blackbox dir: %w", err)
	}
	path := BoxPath(dataDir, f.proc)
	if _, err := os.Stat(path); err == nil {
		prev := filepath.Join(dir, f.proc+"-prev.json")
		if err := os.Rename(path, prev); err != nil {
			return fmt.Errorf("trace: preserving previous black box: %w", err)
		}
	}
	f.path = path
	f.fresh = make([]FlightEvent, 0, f.limit/2)
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go f.flushLoop(flushEvery)
	return nil
}

func (f *Flight) flushLoop(interval time.Duration) {
	defer close(f.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.flush()
		}
	}
}

// flush is the flusher's write: the events emitted since the previous
// write, if there are any, and no reason line.
func (f *Flight) flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ring.count() != f.written {
		// A failed write must not kill the recorder: the next one
		// rewrites the box, and Close reports the error.
		_ = f.write("")
	}
}

// Snapshot writes the box to disk now, recording why, and returns the
// path. Use for events the flusher cannot wait out: panic, SIGTERM,
// journal-replay-after-crash. No-op ("" path) on a nil or non-persisted
// recorder.
func (f *Flight) Snapshot(reason string) (string, error) {
	if f == nil || f.path == "" {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.write(reason); err != nil {
		return "", err
	}
	return f.path, nil
}

// write appends the events emitted since the previous write, and a reason
// line unless reason is "", or rewrites the box when its turn has come. The
// caller holds mu.
func (f *Flight) write(reason string) error {
	fresh, oldest, total := f.ring.since(f.fresh[:0], f.written)
	// One line more than the events, for a reason line.
	rewrite := f.file == nil || oldest > f.written || f.lines+len(fresh)+1 > f.limit
	if rewrite && oldest < f.written {
		// Not only the new events: every one the ring retains.
		fresh, _, total = f.ring.since(fresh[:0], 0)
	}
	f.fresh = fresh
	b := f.buf[:0]
	if rewrite {
		b = append(b, `{"proc":`...)
		b = appendJSONString(b, f.proc)
		b = append(b, `,"pid":`...)
		b = append(strconv.AppendInt(b, int64(os.Getpid()), 10), "}\n"...)
	}
	for i := range fresh {
		fresh[i].Seq = total - uint64(len(fresh)-i)
		b = append(appendEvent(b, &fresh[i]), '\n')
	}
	lines := len(fresh)
	if reason != "" {
		line := len(b)
		b = append(b, `{"reason":`...)
		b = appendJSONString(b, reason)
		b = append(b, `,"when_us":`...)
		b = append(strconv.AppendInt(b, time.Now().UnixMicro(), 10), "}\n"...)
		f.reason = append(f.reason[:0], b[line:]...)
		lines++
	} else if rewrite && len(f.reason) > 0 {
		b = append(b, f.reason...)
		lines++
	}
	f.buf = b
	if rewrite {
		return f.replace(b, total, lines)
	}
	if _, err := f.file.Write(b); err != nil {
		// The file may end in part of a line now: start it over.
		_ = f.file.Close()
		f.file = nil
		return err
	}
	f.written, f.lines = total, f.lines+lines
	return nil
}

// replace makes data, which holds the events up to total and lines lines
// after its header, the whole box: through a temp file renamed over the box,
// so a reader sees the old box or the new one and never part of either. The
// temp file stays open as the box the next writes append to. The caller holds
// mu.
func (f *Flight) replace(data []byte, total uint64, lines int) error {
	tmp, err := os.Create(f.path + ".tmp")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = os.Rename(tmp.Name(), f.path)
	}
	if err != nil {
		_ = tmp.Close()
		return err
	}
	if f.file != nil {
		_ = f.file.Close() // the replaced box: nothing of it is still to be written
	}
	f.file, f.written, f.lines = tmp, total, lines
	return nil
}

// Close stops the flusher and writes a final snapshot with the given
// reason (e.g. "shutdown", "sigterm"). Safe on a nil or non-persisted
// recorder; safe to call once.
func (f *Flight) Close(reason string) error {
	if f == nil {
		return nil
	}
	if f.stop != nil {
		close(f.stop)
		<-f.done
		f.stop = nil
	}
	_, err := f.Snapshot(reason)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.file != nil {
		if cerr := f.file.Close(); err == nil {
			err = cerr
		}
		f.file = nil
	}
	return err
}

// ReadBlackBox parses a box written by Persist/Snapshot. A last line without
// its newline is what a SIGKILL mid-append leaves, and is dropped — the rule
// journal replay applies to a torn tail; any other line that does not parse,
// a missing or incomplete header, and a seq missing between two events make
// the box an error.
func ReadBlackBox(path string) (*BlackBox, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	header, rest, _ := bytes.Cut(data, []byte{'\n'})
	var h struct {
		Proc string `json:"proc"`
		PID  int    `json:"pid"`
	}
	if err := json.Unmarshal(header, &h); err != nil {
		return nil, fmt.Errorf("trace: black box %s: header: %w", path, err)
	}
	if h.Proc == "" || h.PID == 0 {
		return nil, fmt.Errorf("trace: black box %s: header without proc and pid", path)
	}
	box := &BlackBox{Proc: h.Proc, PID: h.PID, Reason: "flush"}
	reasoned := false
	for n := 2; len(rest) > 0; n++ {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		var l struct {
			FlightEvent
			Reason *string `json:"reason"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("trace: black box %s: line %d: %w", path, n, err)
		}
		if l.Reason != nil {
			box.Reason, box.WhenUS, reasoned = *l.Reason, l.WhenUS, true
			continue
		}
		if k := len(box.Events); k > 0 && l.Seq != box.Events[k-1].Seq+1 {
			return nil, fmt.Errorf("trace: black box %s: line %d: seq %d follows %d", path, n, l.Seq, box.Events[k-1].Seq)
		}
		box.Events = append(box.Events, l.FlightEvent)
	}
	if k := len(box.Events); k > 0 {
		box.Dropped, box.Seq = box.Events[0].Seq, box.Events[k-1].Seq+1
		if !reasoned {
			box.WhenUS = box.Events[k-1].WhenUS
		}
	}
	return box, nil
}
