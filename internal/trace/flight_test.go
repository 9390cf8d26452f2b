package trace

import (
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
	if err := f.Persist(t.TempDir(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if p, err := f.Snapshot("r"); p != "" || err != nil {
		t.Fatalf("nil Snapshot = (%q, %v)", p, err)
	}
	if err := f.Close("r"); err != nil {
		t.Fatal(err)
	}
}

// TestFlightWrapAroundConcurrent hammers a small ring from several
// goroutines, then checks the invariants a black-box reader depends on:
// Seq counts every emit, the retained window is exactly the ring capacity,
// oldest first, with strictly increasing sequence numbers ending at the
// final emit, and Dropped accounts for the difference.
func TestFlightWrapAroundConcurrent(t *testing.T) {
	const capacity, workers, per = 64, 8, 500
	f := NewFlight("wrap", capacity)
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
	box := decodeBox(t, f.encode("test"))
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
	if err := f.Persist(dir, 2*time.Millisecond); err != nil {
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
	if box.Reason != "shutdown" {
		t.Fatalf("final box reason %q, want shutdown", box.Reason)
	}
}

// TestFlightPreservesPreviousBox: a restart must not clobber the box the
// previous incarnation left behind — it is crash evidence.
func TestFlightPreservesPreviousBox(t *testing.T) {
	dir := t.TempDir()
	f1 := NewFlight("p", 8)
	if err := f1.Persist(dir, time.Hour); err != nil {
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
	if err := f2.Persist(dir, time.Hour); err != nil {
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
	if len(prev.Events) != 1 || prev.Events[0].Kind != "old" {
		t.Fatalf("previous box events: %+v", prev.Events)
	}
	cur, err := ReadBlackBox(BoxPath(dir, "p"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Events) != 1 || cur.Events[0].Kind != "new" {
		t.Fatalf("current box events: %+v", cur.Events)
	}
}

func TestReadBlackBoxRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"proc":"p","events":[{"seq":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlackBox(bad); err == nil {
		t.Fatal("truncated box parsed without error")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlackBox(empty); err == nil {
		t.Fatal("box without proc label parsed without error")
	}
	if _, err := ReadBlackBox(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing box parsed without error")
	}
}

// hostileStrings are Kind/Name values a box must survive: a panic value or a
// job name from a request body can hold anything.
var hostileStrings = []string{
	``, `plain`, `"quoted"`, `back\\slash\\`, "ctl\x00\x01\x1f\x7f", "line\nfeed\r\ttab",
	"sep\u2028para\u2029end", "bad\xff\xfeutf8\xc3", "\xe2\x80", "<script>&amp;</script>",
	"日本語 ✓ \U0001F600", strings.Repeat("panic: index out of range \"x\"\n\tgoroutine 1\\", 1400), // ≈ 64 KiB
}

// ringBox is the reference: the box built from the ring as it stands, for
// encoding/json to write.
func ringBox(f *Flight, reason string) BlackBox {
	f.ring.mu.Lock()
	defer f.ring.mu.Unlock()
	buf, seq := f.ring.buf, f.ring.total
	events := make([]FlightEvent, 0, len(buf))
	head := 0
	if len(buf) == cap(buf) {
		head = int(seq % uint64(cap(buf)))
	}
	events = append(append(events, buf[head:]...), buf[:head]...)
	for i := range events {
		events[i].Seq = seq - uint64(len(events)-i)
	}
	return BlackBox{Proc: f.proc, PID: os.Getpid(), Reason: reason, Seq: seq,
		Dropped: seq - uint64(len(events)), Events: events}
}

func decodeBox(t *testing.T, data []byte) BlackBox {
	t.Helper()
	var box BlackBox
	if err := json.Unmarshal(data, &box); err != nil {
		t.Fatalf("box does not parse: %v\n%s", err, data)
	}
	return box
}

// sameAsEncodingJSON checks that the hand-rolled document decodes to what a
// reader gets after encoding/json wrote the reference box.
func sameAsEncodingJSON(t *testing.T, got BlackBox, ref BlackBox) {
	t.Helper()
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeBox(t, data)
	want.WhenUS = got.WhenUS
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-rolled box decodes differently from encoding/json's\n got %+v\nwant %+v", got, want)
	}
}

func TestFlightBoxRoundTripHostileStrings(t *testing.T) {
	dir := t.TempDir()
	f := NewFlight("host\"ile\\proc\xff", 64)
	if err := f.Persist(dir, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i, s := range hostileStrings {
		f.Emit(s, hostileStrings[len(hostileStrings)-1-i], int64(i), -1, int64(-i), SpanContext{Trace: TraceID{Hi: uint64(i), Lo: ^uint64(i)}, Span: SpanID(i)})
	}
	path, err := f.Snapshot("hostile \"reason\"\n")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlackBox(path)
	if err != nil {
		t.Fatalf("box with hostile strings does not parse: %v", err)
	}
	sameAsEncodingJSON(t, *got, ringBox(f, "hostile \"reason\"\n"))
	for i, e := range got.Events {
		// Every invalid byte reads back as its own U+FFFD.
		if want := string([]rune(hostileStrings[i])); e.Kind != want {
			t.Fatalf("event %d kind %q, want %q", i, e.Kind, want)
		}
	}
	if err := f.Close("x"); err != nil {
		t.Fatal(err)
	}
}

// TestFlightEncodeMatchesEncodingJSON: for arbitrary event streams — any
// bytes in the strings, any integers, zero and non-zero IDs — flushed at
// arbitrary points of a small ring (nothing new, a few new events, the whole
// ring turned over since the last flush), the hand-rolled document decodes to
// exactly what encoding/json's document of the same ring decodes to.
func TestFlightEncodeMatchesEncodingJSON(t *testing.T) {
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
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := NewFlight(randString(r), 1+r.Intn(8))
		for flush := 0; flush < 8; flush++ {
			for i, n := 0, r.Intn(2*cap(f.ring.buf)+2); i < n && r.Intn(8) > 0; i++ {
				f.Emit(randString(r), randString(r), randInt(r), randInt(r), randInt(r),
					SpanContext{Trace: TraceID{Hi: uint64(randInt(r)), Lo: uint64(randInt(r))}, Span: SpanID(randInt(r))})
			}
			reason := randString(r)
			sameAsEncodingJSON(t, decodeBox(t, f.encode(reason)), ringBox(f, reason))
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
	dir := t.TempDir()
	f := NewFlight("busy", 256)
	if err := f.Persist(dir, time.Millisecond); err != nil {
		t.Fatal(err)
	}
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
		path, err := f.Snapshot("explicit")
		if err != nil {
			t.Fatal(err)
		}
		box, err := ReadBlackBox(path)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		for k := 1; k < len(box.Events); k++ {
			if box.Events[k].Seq != box.Events[k-1].Seq+1 {
				t.Fatalf("snapshot %d: seq %d follows %d", i, box.Events[k].Seq, box.Events[k-1].Seq)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := f.Close("x"); err != nil {
		t.Fatal(err)
	}
}

// fullFlight returns a persisted recorder (no flusher ticks) whose ring of
// the daemon's default size has wrapped, with events shaped like a busy
// daemon's: mirrored spans and job lifecycle records.
func fullFlight(tb testing.TB) *Flight {
	tb.Helper()
	f := NewFlight("bench", 4096)
	if err := f.Persist(tb.TempDir(), time.Hour); err != nil {
		tb.Fatal(err)
	}
	tid := NewTraceID()
	for i := 0; i < 5000; i++ {
		if i%16 == 0 {
			f.Emit("job-submit", "LU N=96 B=16", int64(i), -1, 0, SpanContext{Trace: tid, Span: SpanID(i + 1)})
		} else {
			f.Emit("span", "compute", int64(i/16), int64(i), int64(37+i%100), SpanContext{Trace: tid, Span: SpanID(i + 1)})
		}
	}
	return f
}

// TestFlightFlushDoesNotAllocate: once the retained storage has its size,
// encoding allocates nothing however much of the ring is new; what is left of
// a flush is the os package creating and renaming the file.
func TestFlightFlushDoesNotAllocate(t *testing.T) {
	f := fullFlight(t)
	if _, err := f.Snapshot("warm"); err != nil {
		t.Fatal(err)
	}
	emit := func(n int) {
		for i := 0; i < n; i++ {
			f.Emit("span", "compute", 7, int64(i), 41, SpanContext{Span: SpanID(i + 1)})
		}
	}
	for _, fresh := range []int{0, 300, cap(f.ring.buf)} {
		if n := testing.AllocsPerRun(10, func() {
			emit(fresh)
			f.encode("flush")
		}); n != 0 {
			t.Fatalf("encoding a full ring with %d new events allocates %v times, want 0", fresh, n)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := f.Snapshot("flush"); err != nil {
			t.Fatal(err)
		}
	}); n > 12 {
		t.Fatalf("a steady-state flush allocates %v times; only the file create and rename may", n)
	}
	if err := f.Close("x"); err != nil {
		t.Fatal(err)
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
// ring — encode, write, rename — with a sixteenth of the ring new since the
// previous flush (what the durable-service benchmark's reference rate emits
// in one 50 ms interval) and with all of it new (the worst case).
func BenchmarkFlightSnapshot(b *testing.B) {
	for _, fresh := range []int{256, 4096} {
		b.Run("new="+strconv.Itoa(fresh), func(b *testing.B) {
			f := fullFlight(b)
			if _, err := f.Snapshot("warm"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < fresh; k++ {
					f.Emit("span", "compute", int64(i), int64(k), 41, SpanContext{Span: SpanID(k + 1)})
				}
				if _, err := f.Snapshot("flush"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if fi, err := os.Stat(f.path); err == nil {
				b.ReportMetric(float64(fi.Size()), "box-bytes")
			}
			if err := f.Close("x"); err != nil {
				b.Fatal(err)
			}
		})
	}
}

var benchSink []byte

func BenchmarkFlightAppendEvent(b *testing.B) {
	e := FlightEvent{Seq: 1234567, WhenUS: time.Now().UnixMicro(), Kind: "span", Name: "compute",
		Job: 812, Task: 40017, Arg: 53, Trace: NewTraceID(), Span: SpanID(0x9e3779b97f4a7c15)}
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendEvent(buf[:0], &e)
	}
	benchSink = buf
}
