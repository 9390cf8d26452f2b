package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	ctx := SpanContext{Trace: NewTraceID(), Span: 0x0123456789abcdef}
	h := ctx.Header()
	if len(h) != 49 || h[32] != '-' {
		t.Fatalf("header %q: want 32 hex + '-' + 16 hex", h)
	}
	back, err := ParseHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if back != ctx {
		t.Fatalf("round trip: %+v != %+v", back, ctx)
	}
}

func TestParseHeaderMalformed(t *testing.T) {
	// Empty is the absent-header case: no error, invalid context.
	ctx, err := ParseHeader("")
	if err != nil || ctx.Valid() {
		t.Fatalf("empty header: ctx %+v, err %v", ctx, err)
	}
	for _, bad := range []string{
		"short",
		strings.Repeat("0", 49), // right length, no separator
		strings.Repeat("z", 32) + "-" + strings.Repeat("0", 16), // non-hex trace
		strings.Repeat("0", 32) + "-" + strings.Repeat("z", 16), // non-hex span
		strings.Repeat("0", 32) + "-" + strings.Repeat("0", 17), // overlong
	} {
		if _, err := ParseHeader(bad); err == nil {
			t.Errorf("ParseHeader(%q): want error", bad)
		}
	}
}

func TestNilSpansContract(t *testing.T) {
	sp := NewSpans("x", 0)
	if sp != nil {
		t.Fatal("NewSpans with capacity 0 must return nil (tracing off)")
	}
	// Every method must be a safe no-op on the nil recorder.
	sp.Emit(Span{Name: "ignored"})
	if sp.NextID() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if got := sp.Snapshot(); len(got) != 0 {
		t.Fatalf("nil Snapshot returned %d spans", len(got))
	}
	if got := sp.ForTrace(NewTraceID()); len(got) != 0 {
		t.Fatalf("nil ForTrace returned %d spans", len(got))
	}
}

// TestNewValidation: a capacity < 1 means "off" for both recorders — nil, so
// that every method is a cheap no-op rather than a zero-length ring that still
// pays for building what it records.
func TestNewValidation(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if sp := NewSpans("p", capacity); sp != nil {
			t.Fatalf("NewSpans(%d) = %v, want nil", capacity, sp)
		}
		if f := NewFlight("p", capacity); f != nil {
			t.Fatalf("NewFlight(%d) = %v, want nil", capacity, f)
		}
	}
}

// TestEmitAndSnapshot: Emit stamps the process label, mints an ID for a span
// without one and keeps one it was given; Snapshot returns the spans in the
// order they were emitted.
func TestEmitAndSnapshot(t *testing.T) {
	sp := NewSpans("p", 16)
	sp.Emit(Span{Name: "compute", Task: 1})
	sp.Emit(Span{Name: "inject", Task: 1, ID: 42})
	sp.Emit(Span{Name: "recover", Task: 1, Life: 1})
	got := sp.Snapshot()
	if len(got) != 3 || sp.ring.count() != 3 {
		t.Fatalf("Snapshot = %d spans, count = %d; want 3, 3", len(got), sp.ring.count())
	}
	for i, name := range []string{"compute", "inject", "recover"} {
		if got[i].Name != name || got[i].Proc != "p" || got[i].ID == 0 {
			t.Fatalf("span %d = %+v, want %s stamped with proc p and an ID", i, got[i], name)
		}
	}
	if got[1].ID != 42 {
		t.Fatalf("given ID replaced: %s", got[1].ID)
	}
}

func TestSpansRingOverwriteKeepsNewest(t *testing.T) {
	sp := NewSpans("ring", 4)
	tid := NewTraceID()
	for i := 0; i < 10; i++ {
		sp.Emit(Span{Trace: tid, Name: "s", Task: int64(i)})
	}
	if sp.ring.count() != 10 {
		t.Fatalf("count = %d, want 10", sp.ring.count())
	}
	got := sp.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := int64(6 + i); s.Task != want {
			t.Fatalf("slot %d holds task %d, want %d (oldest-first newest window)", i, s.Task, want)
		}
	}
}

func TestForTraceFilters(t *testing.T) {
	sp := NewSpans("p", 16)
	a, b := NewTraceID(), NewTraceID()
	sp.Emit(Span{Trace: a, Name: "one"})
	sp.Emit(Span{Trace: b, Name: "two"})
	sp.Emit(Span{Trace: a, Name: "three"})
	got := sp.ForTrace(a)
	if len(got) != 2 || got[0].Name != "one" || got[1].Name != "three" {
		t.Fatalf("ForTrace(a) = %+v", got)
	}
	for _, s := range got {
		if s.Proc != "p" {
			t.Fatalf("span missing proc stamp: %+v", s)
		}
	}
}

func TestNextIDUniqueUnderConcurrency(t *testing.T) {
	sp := NewSpans("p", 1)
	const workers, per = 8, 1000
	ids := make([][]SpanID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]SpanID, per)
			for i := range ids[w] {
				ids[w][i] = sp.NextID()
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[SpanID]bool, workers*per)
	for _, batch := range ids {
		for _, id := range batch {
			if id == 0 {
				t.Fatal("NextID minted the reserved zero ID")
			}
			if seen[id] {
				t.Fatalf("duplicate span ID %s", id)
			}
			seen[id] = true
		}
	}
}

// TestNewRecordersBoxIgnoresTracing: without a data dir there is no flight
// recorder; with one, recorder pairs with tracing on and off write the same
// box for the same lifecycle events, and no emitted span lands in it.
func TestNewRecordersBoxIgnoresTracing(t *testing.T) {
	setFlushEvery(t, time.Hour)
	if sp, fl, err := NewRecorders("mem", 8, 8, ""); err != nil || sp == nil || fl != nil {
		t.Fatalf("no data dir: spans %v, flight %v, err %v; want spans only", sp, fl, err)
	}
	tid := NewTraceID()
	box := func(spans int) *BlackBox {
		dir := t.TempDir()
		sp, fl, err := NewRecorders("p", spans, 8, dir)
		if err != nil || fl == nil || (sp == nil) != (spans == 0) {
			t.Fatalf("spans %d: recorders %v, %v, %v", spans, sp, fl, err)
		}
		for i := int64(1); i <= 3; i++ {
			ctx := SpanContext{Trace: tid, Span: SpanID(i)}
			sp.Emit(Span{Trace: tid, ID: ctx.Span, Name: "submit", Job: i, Task: -1, Dur: 7})
			fl.Emit("job-submit", "j", i, -1, 0, ctx)
			sp.Emit(Span{Trace: tid, Name: "compute", Job: i, Task: 4, Dur: 9})
			fl.Emit("job-finish", "succeeded", i, -1, 2, ctx)
		}
		if err := fl.Close("test"); err != nil {
			t.Fatal(err)
		}
		b, err := ReadBlackBox(BoxPath(dir, "p"))
		if err != nil {
			t.Fatal(err)
		}
		b.WhenUS = 0
		for i := range b.Events {
			if k := b.Events[i].Kind; k != "job-submit" && k != "job-finish" {
				t.Fatalf("spans %d: the box holds a %q event: %+v", spans, k, b.Events[i])
			}
			b.Events[i].WhenUS = 0
		}
		return b
	}
	on, off := box(8), box(0)
	if len(on.Events) != 6 || !reflect.DeepEqual(on, off) {
		t.Fatalf("tracing on and off write different boxes:\n on %+v\noff %+v", on, off)
	}
}

// BenchmarkSpanEmit is one span's emit into a full bare span ring and into
// the ring NewRecorders builds beside a persisting flight recorder: the two
// must cost the same, since a span is written to its ring only.
func BenchmarkSpanEmit(b *testing.B) {
	span := Span{Trace: NewTraceID(), Name: "compute", Job: 1}
	run := func(b *testing.B, sp *Spans) {
		for i := 0; i < 8192; i++ {
			sp.Emit(span)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			span.Task = int64(i)
			sp.Emit(span)
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, NewSpans("bench", 8192)) })
	b.Run("recorders", func(b *testing.B) {
		sp, fl, err := NewRecorders("bench", 8192, 4096, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, sp)
		b.StopTimer()
		if err := fl.Close("bench"); err != nil {
			b.Fatal(err)
		}
	})
}
