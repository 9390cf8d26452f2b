package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Flight is the black-box flight recorder: an always-on, bounded,
// allocation-free ring of structured events that survives the death of
// its process. Emit writes into preallocated slots under a mutex (no
// allocation, no I/O); a background flusher snapshots the ring to
// <dir>/blackbox/<proc>.json every interval via atomic rename, so even a
// SIGKILL — which no handler can observe — leaves a parseable box at most
// one flush interval stale. Explicit snapshots (panic, SIGTERM,
// journal-replay-after-crash) write immediately with the reason recorded.
// A flush encodes only the events emitted since the previous one — the
// encoding of those still in the ring is kept (see encode) — into storage the
// recorder reuses, so a steady-state flush costs the new events plus one file
// write, and allocates nothing but what the os package needs to create and
// rename the file.
//
// A nil *Flight discards everything: the disabled path is one inlined nil
// check, the same contract as the nil metrics registry and nil *Spans.
type Flight struct {
	proc string
	ring ring[FlightEvent]

	path string // the box file; "" until Persist
	tmp  string // staging name, renamed over path
	stop chan struct{}
	done chan struct{}

	// snapMu serializes snapshots (the flusher and an explicit Snapshot
	// share the staging file) and guards the encoder state they reuse:
	// from out[lo] on lie the encodings of events encFirst …
	// encFirst+len(ends)-1, each followed by a comma, ends[i] the offset
	// just past the i-th of them; out[:lo] is dead (overwritten events),
	// and lo is 0 only before the first document.
	snapMu   sync.Mutex
	fresh    []FlightEvent // staging for the events a flush has to encode
	out      []byte
	lo       int
	ends     []int
	encFirst uint64
}

// FlightEvent is one recorded occurrence. Fields are fixed-size or
// pre-existing strings so Emit never allocates.
type FlightEvent struct {
	Seq    uint64  `json:"seq"`     // the event's position in the ring, filled in by the encoder
	WhenUS int64   `json:"when_us"` // unix microseconds
	Kind   string  `json:"kind"`
	Name   string  `json:"name,omitempty"`
	Job    int64   `json:"job,omitempty"`
	Task   int64   `json:"task,omitempty"`
	Arg    int64   `json:"arg,omitempty"`
	Trace  TraceID `json:"trace"`
	Span   SpanID  `json:"span,omitempty"`
}

// BlackBox is the on-disk snapshot format.
type BlackBox struct {
	Proc    string        `json:"proc"`
	PID     int           `json:"pid"`
	Reason  string        `json:"reason"`
	WhenUS  int64         `json:"when_us"`
	Seq     uint64        `json:"seq"`     // total events emitted
	Dropped uint64        `json:"dropped"` // events lost to ring overwrite
	Events  []FlightEvent `json:"events"`  // retained events, oldest first
}

// NewFlight returns a recorder labelled with the process name, retaining
// the most recent capacity events. Capacity < 1 disables the recorder
// (returns nil).
func NewFlight(proc string, capacity int) *Flight {
	if capacity < 1 {
		return nil
	}
	return &Flight{proc: proc, ring: ring[FlightEvent]{buf: make([]FlightEvent, 0, capacity)}}
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

// boxPrefix opens the document. The events come first and the box's own
// fields after them, so that everything in front of a still-retained event's
// encoding is constant and the encoding can stay where it is.
const boxPrefix = `{"events":[`

// encode returns the box as the JSON document encoding/json would decode into
// the same BlackBox — same keys, same omitted-when-zero fields, IDs as
// fixed-width hex strings. It is hand-rolled and incremental because the
// flusher runs every interval on a ring that mostly has not changed: through
// json.MarshalIndent of the whole ring it was two fifths of a busy daemon's
// CPU. Only the events emitted since the previous call are copied out of the
// ring (under the lock) and encoded; the encodings of events the ring has
// since overwritten are left behind as dead bytes in front of the document.
// The caller holds snapMu, and the result is valid until the next call.
func (f *Flight) encode(reason string) []byte {
	fresh, first, seq := f.ring.since(f.fresh[:0], f.encoded())
	f.fresh = fresh

	if f.lo == 0 {
		f.out, f.lo = append(f.out, boxPrefix...), len(boxPrefix)
	}
	out := f.out[:f.lo]
	if n := len(f.ends); n > 0 {
		out = f.out[:f.ends[n-1]]
		out[len(out)-1] = ',' // where the previous document closed the array
	}
	// first only grows, and every call leaves encFirst == first.
	switch gone := first - f.encFirst; {
	case gone >= uint64(len(f.ends)):
		out, f.ends, f.lo = out[:len(boxPrefix)], f.ends[:0], len(boxPrefix)
	case gone > 0:
		f.lo = f.ends[gone-1]
		f.ends = f.ends[:copy(f.ends, f.ends[gone:])]
		if dead := f.lo - len(boxPrefix); dead > len(out)-f.lo {
			// More dead bytes in front than live ones: move the live ones
			// down. The buffer stays within two documents, and the bytes
			// moved within the bytes dropped.
			out = out[:len(boxPrefix)+copy(out[len(boxPrefix):], out[f.lo:])]
			for i := range f.ends {
				f.ends[i] -= dead
			}
			f.lo = len(boxPrefix)
		}
	}
	f.encFirst = first
	for i := range fresh {
		fresh[i].Seq = seq - uint64(len(fresh)-i)
		out = append(appendEvent(out, &fresh[i]), ',')
		f.ends = append(f.ends, len(out))
	}

	if len(f.ends) > 0 {
		out[len(out)-1] = ']'
	} else {
		out = append(out, ']')
	}
	out = append(out, `,"proc":`...)
	out = appendJSONString(out, f.proc)
	out = append(out, `,"pid":`...)
	out = strconv.AppendInt(out, int64(os.Getpid()), 10)
	out = append(out, `,"reason":`...)
	out = appendJSONString(out, reason)
	out = append(out, `,"when_us":`...)
	out = strconv.AppendInt(out, time.Now().UnixMicro(), 10)
	out = append(out, `,"seq":`...)
	out = strconv.AppendUint(out, seq, 10)
	out = append(out, `,"dropped":`...)
	out = strconv.AppendUint(out, first, 10) // every event before the oldest retained one
	f.out = append(out, '}')
	// The prefix goes over the dead bytes in front of the first live event
	// (an event's encoding is longer than the prefix, so they are there).
	doc := f.out[f.lo-len(boxPrefix):]
	copy(doc, boxPrefix)
	return doc
}

// encoded returns the number of events the encoder has seen: every one up to
// the newest it encoded. The caller holds snapMu.
func (f *Flight) encoded() uint64 { return f.encFirst + uint64(len(f.ends)) }

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
// BoxPath(dataDir, proc) every interval (only when new events arrived),
// written to a temp file and renamed so readers never see a torn box. An
// existing box from a previous incarnation of the same process is
// preserved as <proc>-prev.json — it is crash evidence, not ours to
// clobber. Call Close to stop the flusher and write a final snapshot.
func (f *Flight) Persist(dataDir string, interval time.Duration) error {
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
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	f.path, f.tmp = path, path+".tmp"
	f.fresh = make([]FlightEvent, 0, cap(f.ring.buf))
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go f.flushLoop(interval)
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
			f.snapMu.Lock()
			dirty := f.ring.count() != f.encoded()
			f.snapMu.Unlock()
			if dirty {
				// Flush failures must not kill the recorder: the next tick
				// retries, and the final Close snapshot reports the error.
				_, _ = f.Snapshot("flush")
			}
		}
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
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	if err := os.WriteFile(f.tmp, f.encode(reason), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(f.tmp, f.path); err != nil {
		return "", err
	}
	return f.path, nil
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
	return err
}

// ReadBlackBox parses a box written by Persist/Snapshot.
func ReadBlackBox(path string) (*BlackBox, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var box BlackBox
	if err := json.Unmarshal(data, &box); err != nil {
		return nil, fmt.Errorf("trace: black box %s: %w", path, err)
	}
	if box.Proc == "" {
		return nil, errors.New("trace: black box missing proc label")
	}
	return &box, nil
}
