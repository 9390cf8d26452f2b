package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNilFlightContract(t *testing.T) {
	f := NewFlight("x", 0)
	if f != nil {
		t.Fatal("NewFlight with capacity 0 must return nil")
	}
	f.Emit("k", "n", 1, 2, 3, SpanContext{})
	if err := f.Persist(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if p, err := f.Snapshot("r"); p != "" || err != nil {
		t.Fatalf("nil Snapshot = (%q, %v)", p, err)
	}
	if err := f.Close("r"); err != nil {
		t.Fatal(err)
	}
}

// persisted returns a recorder persisting under a fresh directory, with no
// flusher ticks unless the test set them, closed when the test ends.
func persisted(tb testing.TB, proc string, capacity int) *Flight {
	tb.Helper()
	f := NewFlight(proc, capacity)
	if err := f.Persist(tb.TempDir()); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := f.Close("x"); err != nil {
			tb.Error(err)
		}
	})
	return f
}

// snapshotBox snapshots the box and reads it back.
func snapshotBox(tb testing.TB, f *Flight, reason string) *BlackBox {
	tb.Helper()
	path, err := f.Snapshot(reason)
	if err != nil {
		tb.Fatal(err)
	}
	box, err := ReadBlackBox(path)
	if err != nil {
		tb.Fatal(err)
	}
	return box
}

// TestFlightWrapAroundConcurrent hammers a small ring from several
// goroutines, then checks the invariants a black-box reader depends on:
// Seq counts every emit, the retained window is exactly the ring capacity,
// oldest first, with strictly increasing sequence numbers ending at the
// final emit, and Dropped accounts for the difference.
func TestFlightWrapAroundConcurrent(t *testing.T) {
	setFlushEvery(t, time.Hour)
	const capacity, workers, per = 64, 8, 500
	f := persisted(t, "wrap", capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Emit("evt", "n", int64(w), int64(i), 0, SpanContext{})
			}
		}(w)
	}
	wg.Wait()
	box := snapshotBox(t, f, "test")
	if box.Seq != workers*per {
		t.Fatalf("Seq = %d, want %d", box.Seq, workers*per)
	}
	if len(box.Events) != capacity {
		t.Fatalf("retained %d events, want %d", len(box.Events), capacity)
	}
	if box.Dropped != workers*per-capacity {
		t.Fatalf("Dropped = %d, want %d", box.Dropped, workers*per-capacity)
	}
	for i := 1; i < len(box.Events); i++ {
		if box.Events[i].Seq != box.Events[i-1].Seq+1 {
			t.Fatalf("events not in sequence order at %d: %d then %d",
				i, box.Events[i-1].Seq, box.Events[i].Seq)
		}
	}
	if last := box.Events[len(box.Events)-1].Seq; last != workers*per-1 {
		t.Fatalf("newest retained seq = %d, want %d", last, workers*per-1)
	}
}

func TestFlightPersistWriteBehind(t *testing.T) {
	dir := t.TempDir()
	f := NewFlight("proc", 32)
	if err := f.Persist(dir); err != nil {
		t.Fatal(err)
	}
	f.Emit("job-submit", "j1", 1, -1, 0, SpanContext{Trace: NewTraceID(), Span: 7})
	path := BoxPath(dir, "proc")
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write-behind flusher never wrote the box")
		}
		time.Sleep(time.Millisecond)
	}
	box, err := ReadBlackBox(path)
	if err != nil {
		t.Fatal(err)
	}
	if box.Proc != "proc" || box.Reason != "flush" || len(box.Events) != 1 {
		t.Fatalf("flushed box: %+v", box)
	}
	if e := box.Events[0]; e.Kind != "job-submit" || e.Name != "j1" || e.Span != 7 {
		t.Fatalf("flushed event: %+v", e)
	}
	if err := f.Close("shutdown"); err != nil {
		t.Fatal(err)
	}
	box, err = ReadBlackBox(path)
	if err != nil {
		t.Fatal(err)
	}
	if box.Reason != "shutdown" || len(box.Events) != 1 {
		t.Fatalf("final box: reason %q with %d events, want shutdown with 1", box.Reason, len(box.Events))
	}
}

// TestFlightPreservesPreviousBox: a restart must not clobber the box the
// previous incarnation left behind — it is crash evidence.
func TestFlightPreservesPreviousBox(t *testing.T) {
	setFlushEvery(t, time.Hour)
	dir := t.TempDir()
	f1 := NewFlight("p", 8)
	if err := f1.Persist(dir); err != nil {
		t.Fatal(err)
	}
	f1.Emit("old", "", 0, 0, 0, SpanContext{})
	if _, err := f1.Snapshot("crash"); err != nil {
		t.Fatal(err)
	}
	if err := f1.Close("x"); err != nil {
		t.Fatal(err)
	}

	f2 := NewFlight("p", 8)
	if err := f2.Persist(dir); err != nil {
		t.Fatal(err)
	}
	f2.Emit("new", "", 0, 0, 0, SpanContext{})
	if _, err := f2.Snapshot("running"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f2.Close("x"); err != nil {
			t.Error(err)
		}
	}()

	prev, err := ReadBlackBox(filepath.Join(dir, "blackbox", "p-prev.json"))
	if err != nil {
		t.Fatalf("previous incarnation's box: %v", err)
	}
	if len(prev.Events) != 1 || prev.Events[0].Kind != "old" || prev.Reason != "x" {
		t.Fatalf("previous box: %+v", prev)
	}
	cur, err := ReadBlackBox(BoxPath(dir, "p"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Events) != 1 || cur.Events[0].Kind != "new" || cur.Reason != "running" {
		t.Fatalf("current box: %+v", cur)
	}
}

func TestReadBlackBoxRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	const header = `{"proc":"p","pid":7}` + "\n"
	const event = `{"seq":4,"when_us":1,"kind":"k","trace":"00000000000000000000000000000000"}` + "\n"
	for _, c := range []struct{ name, doc string }{
		{"truncated single-line document", `{"proc":"p","events":[{"seq":`},
		{"empty", ``},
		{"no proc", "{}\n"},
		{"no pid", `{"proc":"p"}` + "\n"},
		{"header not json", "proc p\n" + event},
		{"header cut", `{"proc":"p","pid":7` + "\n" + event},
		{"event not json", header + "{\"seq\":4,\"when\n" + event},
		{"event of the wrong shape", header + `{"seq":"4"}` + "\n"},
		{"garbage between events", header + event + "xyz\n" + strings.Replace(event, `"seq":4`, `"seq":5`, 1)},
		{"seq missing between events", header + event + strings.Replace(event, `"seq":4`, `"seq":6`, 1)},
		{"seq going back", header + event + event},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(c.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if box, err := ReadBlackBox(path); err == nil {
			t.Errorf("%s: parsed without error: %+v", c.name, box)
		}
	}
	if _, err := ReadBlackBox(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing box parsed without error")
	}
}

// TestReadBlackBoxDropsTornLine: a box cut at any byte — a SIGKILL in the
// middle of an append — reads back every event whose line is complete, and
// the reason if its line is; a cut inside the header is an error.
func TestReadBlackBoxDropsTornLine(t *testing.T) {
	setFlushEvery(t, time.Hour)
	f := persisted(t, "torn", 16)
	for i := 0; i < 5; i++ {
		f.Emit("job-finish", hostileStrings[i], int64(i+1), -1, 0, SpanContext{Trace: NewTraceID(), Span: SpanID(i + 1)})
	}
	whole := snapshotBox(t, f, "sigterm")
	data, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.json")
	headerEnd := bytes.IndexByte(data, '\n') + 1
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		box, err := ReadBlackBox(cut)
		if n < headerEnd {
			if err == nil {
				t.Fatalf("box cut at byte %d, inside its header, parsed: %+v", n, box)
			}
			continue
		}
		if err != nil {
			t.Fatalf("box cut at byte %d: %v", n, err)
		}
		complete := bytes.Count(data[headerEnd:n], []byte{'\n'})
		want := whole.Events[:min(complete, len(whole.Events))]
		if len(box.Events) != len(want) || (len(want) > 0 && !reflect.DeepEqual(box.Events, want)) {
			t.Fatalf("box cut at byte %d: %d events, want the %d complete ones", n, len(box.Events), len(want))
		}
		wantReason := "flush"
		if complete > len(whole.Events) {
			wantReason = whole.Reason
		}
		if box.Reason != wantReason {
			t.Fatalf("box cut at byte %d: reason %q, want %q", n, box.Reason, wantReason)
		}
	}
}

// TestFlightBoxStaysWithinTwiceTheRing: through ten ring-fulls of events
// flushed in batches of every size, a flush either appends exactly the new
// events' lines or rewrites the box, the box never holds more than twice the
// ring's lines after its header, and it always holds every retained event.
func TestFlightBoxStaysWithinTwiceTheRing(t *testing.T) {
	setFlushEvery(t, time.Hour)
	const capacity = 64
	f := persisted(t, "bounded", capacity)
	r := rand.New(rand.NewSource(1))
	var prev os.FileInfo
	total := 0
	for total < 10*capacity {
		n := r.Intn(capacity + capacity/2) // more than the ring: the flush finds events lost
		var lines []byte
		for i := 0; i < n; i++ {
			f.Emit("job-start", "LU N=96 B=16", int64(total), -1, 0, SpanContext{Trace: TraceID{Lo: 1}, Span: SpanID(total + 1)})
			total++
		}
		fresh, _, _ := f.ring.since(nil, f.written)
		for i := range fresh {
			fresh[i].Seq = uint64(total - len(fresh) + i)
			lines = append(appendEvent(lines, &fresh[i]), '\n')
		}
		f.flush()
		fi, err := os.Stat(f.path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case prev == nil || !os.SameFile(prev, fi):
			// Rewritten: what it holds is checked below.
		case fi.Size() != prev.Size()+int64(len(lines)):
			t.Fatalf("flush of %d events grew the box by %d bytes, want their %d", n, fi.Size()-prev.Size(), len(lines))
		}
		prev = fi
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(data, []byte{'\n'}) - 1; got > 2*capacity {
			t.Fatalf("after %d events the box holds %d lines after its header, more than twice the ring (%d)", total, got, capacity)
		}
		box, err := ReadBlackBox(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if box.Seq != uint64(total) || box.Dropped > uint64(max(0, total-capacity)) {
			t.Fatalf("after %d events the box holds seq %d up to %d", total, box.Dropped, box.Seq)
		}
	}
}

// hostileStrings are Kind/Name values a box must survive: a panic value or a
// job name from a request body can hold anything.
var hostileStrings = []string{
	``, `plain`, `"quoted"`, `back\\slash\\`, "ctl\x00\x01\x1f\x7f", "line\nfeed\r\ttab",
	"sep\u2028para\u2029end", "bad\xff\xfeutf8\xc3", "\xe2\x80", "<script>&amp;</script>",
	"日本語 ✓ \U0001F600", strings.Repeat("panic: index out of range \"x\"\n\tgoroutine 1\\", 1400), // ≈ 64 KiB
}

// retained returns the events the ring holds, numbered, oldest first.
func retained(f *Flight) []FlightEvent {
	events, oldest, _ := f.ring.since(nil, 0)
	for i := range events {
		events[i].Seq = oldest + uint64(i)
	}
	return events
}

// sameAsEncodingJSON checks that a box read back is what a reader gets of the
// same events and fields written by encoding/json.
func sameAsEncodingJSON(t *testing.T, f *Flight, got *BlackBox, reason string, events []FlightEvent) {
	t.Helper()
	ref := BlackBox{Proc: f.proc, PID: os.Getpid(), Reason: reason, WhenUS: got.WhenUS, Events: events}
	if len(events) > 0 {
		ref.Dropped, ref.Seq = events[0].Seq, events[len(events)-1].Seq+1
	}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	var want BlackBox
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Events) == 0 {
		want.Events = nil
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("box reads differently from encoding/json's\n got %+v\nwant %+v", *got, want)
	}
}

func TestFlightBoxRoundTripHostileStrings(t *testing.T) {
	setFlushEvery(t, time.Hour)
	f := persisted(t, "host\"ile\\proc\xff", 64)
	for i, s := range hostileStrings {
		f.Emit(s, hostileStrings[len(hostileStrings)-1-i], int64(i), -1, int64(-i), SpanContext{Trace: TraceID{Hi: uint64(i), Lo: ^uint64(i)}, Span: SpanID(i)})
	}
	got := snapshotBox(t, f, "hostile \"reason\"\n")
	sameAsEncodingJSON(t, f, got, "hostile \"reason\"\n", retained(f))
	for i, e := range got.Events {
		// Every invalid byte reads back as its own U+FFFD.
		if want := string([]rune(hostileStrings[i])); e.Kind != want {
			t.Fatalf("event %d kind %q, want %q", i, e.Kind, want)
		}
	}
}

// TestFlightEncodeMatchesEncodingJSON: for arbitrary event streams — any
// bytes in the strings, any integers, zero and non-zero IDs — flushed at
// arbitrary points of a small ring (nothing new, a few new events, the whole
// ring turned over since the last flush, with or without a reason), the box
// reads back as encoding/json's document of the same events: the ones still
// in the ring and the ones written before the ring dropped them.
func TestFlightEncodeMatchesEncodingJSON(t *testing.T) {
	setFlushEvery(t, time.Hour)
	randString := func(r *rand.Rand) string {
		if r.Intn(4) == 0 {
			return hostileStrings[r.Intn(len(hostileStrings)-1)]
		}
		b := make([]byte, r.Intn(24))
		for i := range b {
			switch r.Intn(3) {
			case 0:
				b[i] = byte(r.Intn(256))
			case 1:
				b[i] = byte(r.Intn(0x30))
			default:
				b[i] = byte('a' + r.Intn(26))
			}
		}
		return string(b)
	}
	randInt := func(r *rand.Rand) int64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return int64(r.Uint64())
	}
	base := t.TempDir()
	runs := 0
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Any bytes but a path separator or NUL: the proc names the file.
		proc := "p" + strings.Map(func(c rune) rune {
			if c == '/' || c == 0 {
				return -1
			}
			return c
		}, randString(r))
		f := NewFlight(proc, 1+r.Intn(8))
		runs++
		if err := f.Persist(filepath.Join(base, strconv.Itoa(runs))); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := f.Close("x"); err != nil {
				t.Error(err)
			}
		}()
		seen := make(map[uint64]FlightEvent) // every event the ring held at a flush
		lastReason := "flush"
		for flush := 0; flush < 8; flush++ {
			for i, n := 0, r.Intn(2*cap(f.ring.buf)+2); i < n && r.Intn(8) > 0; i++ {
				f.Emit(randString(r), randString(r), randInt(r), randInt(r), randInt(r),
					SpanContext{Trace: TraceID{Hi: uint64(randInt(r)), Lo: uint64(randInt(r))}, Span: SpanID(randInt(r))})
			}
			for _, e := range retained(f) {
				seen[e.Seq] = e
			}
			reason := randString(r)
			if reason != "" {
				lastReason = reason
			}
			got := snapshotBox(t, f, reason)
			total := f.ring.count()
			if got.Seq != total || got.Dropped > total-uint64(len(f.ring.buf)) {
				t.Fatalf("box holds seq %d up to %d of %d emitted, ring of %d", got.Dropped, got.Seq, total, cap(f.ring.buf))
			}
			var want []FlightEvent
			for s := got.Dropped; s < got.Seq; s++ {
				want = append(want, seen[s])
			}
			sameAsEncodingJSON(t, f, got, lastReason, want)
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestFlightSnapshotDuringEmit: snapshots (the flusher's and explicit ones)
// run against concurrent emitters; every box on disk parses and holds a
// gap-free window. Run under -race.
func TestFlightSnapshotDuringEmit(t *testing.T) {
	setFlushEvery(t, time.Millisecond)
	f := persisted(t, "busy", 256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f.Emit("evt", "n", int64(w), int64(i), 0, SpanContext{Span: SpanID(i)})
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		// ReadBlackBox rejects a box with a seq missing between two events.
		if box := snapshotBox(t, f, "explicit"); box.Reason != "explicit" {
			t.Fatalf("snapshot %d: reason %q", i, box.Reason)
		}
	}
	close(stop)
	wg.Wait()
}

// fullFlight returns a persisted recorder (no flusher ticks) whose ring of
// the daemon's default size has wrapped, with events shaped like a busy
// daemon's job lifecycle records, written once.
func fullFlight(tb testing.TB) *Flight {
	tb.Helper()
	setFlushEvery(tb, time.Hour)
	f := persisted(tb, "bench", 4096)
	for i := 0; i < 5000; i++ {
		emitLifecycle(f, i)
	}
	f.flush()
	return f
}

var lifecycleTrace = NewTraceID()

func emitLifecycle(f *Flight, i int) {
	ctx := SpanContext{Trace: lifecycleTrace, Span: SpanID(i + 1)}
	switch i % 3 {
	case 0:
		f.Emit("job-submit", "LU N=96 B=16", int64(i/3), -1, 0, ctx)
	case 1:
		f.Emit("job-start", "LU N=96 B=16", int64(i/3), -1, 0, ctx)
	default:
		f.Emit("job-finish", "succeeded", int64(i/3), -1, 2, ctx)
	}
}

// TestFlightFlushDoesNotAllocate: a steady-state flush — an append to the
// open box, with or without a reason line — allocates nothing, however many
// events are new.
func TestFlightFlushDoesNotAllocate(t *testing.T) {
	f := fullFlight(t)
	before, err := os.Stat(f.path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fresh := range []int{0, 1, 256} {
		if n := testing.AllocsPerRun(5, func() {
			for i := 0; i < fresh; i++ {
				emitLifecycle(f, i)
			}
			f.flush()
		}); n != 0 {
			t.Fatalf("a flush of %d new events allocates %v times, want 0", fresh, n)
		}
	}
	if n := testing.AllocsPerRun(5, func() {
		emitLifecycle(f, 0)
		if _, err := f.Snapshot("sigterm"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a snapshot allocates %v times, want 0", n)
	}
	if after, err := os.Stat(f.path); err != nil || !os.SameFile(before, after) {
		t.Fatalf("the box was rewritten (%v): the flushes measured were not appends", err)
	}
}

func BenchmarkFlightEmit(b *testing.B) {
	f := NewFlight("bench", 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Emit("probe", "emit", 1, int64(i), 0, SpanContext{})
	}
}

// BenchmarkFlightSnapshot is one steady-state flush of a full default-size
// ring with a sixteenth of the ring new since the previous flush (what the
// durable-service benchmark's reference rate emits in one 50 ms interval)
// and with all of it new (the worst case). written-B/op is what the flush
// wrote to the file: an append's new lines, or a rewrite's whole box.
func BenchmarkFlightSnapshot(b *testing.B) {
	for _, fresh := range []int{256, 4096} {
		b.Run("new="+strconv.Itoa(fresh), func(b *testing.B) {
			f := fullFlight(b)
			prev, err := os.Stat(f.path)
			if err != nil {
				b.Fatal(err)
			}
			written := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < fresh; k++ {
					emitLifecycle(f, k)
				}
				f.flush()
				b.StopTimer()
				fi, err := os.Stat(f.path)
				if err != nil {
					b.Fatal(err)
				}
				if os.SameFile(prev, fi) {
					written += fi.Size() - prev.Size()
				} else {
					written += fi.Size()
				}
				prev = fi
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(written)/float64(b.N), "written-B/op")
			b.ReportMetric(float64(prev.Size()), "box-bytes")
		})
	}
}

var benchSink []byte

func BenchmarkFlightAppendEvent(b *testing.B) {
	e := FlightEvent{Seq: 1234567, WhenUS: time.Now().UnixMicro(), Kind: "job-finish", Name: "succeeded",
		Job: 812, Task: -1, Arg: 2, Trace: NewTraceID(), Span: SpanID(0x9e3779b97f4a7c15)}
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendEvent(buf[:0], &e)
	}
	benchSink = buf
}
