package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ftdag/internal/journal"
)

// newPrimary opens a journal and serves its tailing endpoint.
func newPrimary(t *testing.T) (*journal.Journal, *httptest.Server) {
	t.Helper()
	j, err := journal.Open(journal.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /journal/stream", streamHandler(j))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return j, ts
}

func appendJobs(t *testing.T, j *journal.Journal, from, to int, finish bool) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := j.Append(journal.Record{Kind: journal.Submitted, ID: int64(i), Name: "repl", Payload: []byte(`{"t":1}`)}); err != nil {
			t.Fatal(err)
		}
		if finish {
			if err := j.Append(journal.Record{Kind: journal.Succeeded, ID: int64(i), SinkDigest: "d"}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameStates fails unless the two journals fold to identical job states.
func sameStates(t *testing.T, want, got *journal.Journal) {
	t.Helper()
	ws, gs := want.State(), got.State()
	if len(ws.Jobs) != len(gs.Jobs) || ws.MaxID != gs.MaxID {
		t.Fatalf("state mismatch: %d jobs maxID %d vs %d jobs maxID %d", len(ws.Jobs), ws.MaxID, len(gs.Jobs), gs.MaxID)
	}
	for id, wj := range ws.Jobs {
		gj := gs.Jobs[id]
		if gj == nil || gj.State != wj.State || gj.SinkDigest != wj.SinkDigest {
			t.Fatalf("job %d: want %+v, got %+v", id, wj, gj)
		}
	}
}

// TestFollowerMirrorsAndPromotes: a follower converges on the primary's
// bytes across appends, and promotion replays the mirror into the same
// state — including an incomplete job left mid-flight.
func TestFollowerMirrorsAndPromotes(t *testing.T) {
	j, ts := newPrimary(t)
	defer j.Close()
	appendJobs(t, j, 1, 3, true)

	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// New appends after the first round, one left incomplete.
	appendJobs(t, j, 4, 5, true)
	appendJobs(t, j, 6, 6, false)
	n, err := f.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("second sync copied nothing despite new appends")
	}
	if extra, err := f.Sync(); err != nil || extra != 0 {
		t.Fatalf("idle sync = %d bytes, err %v; want 0, nil", extra, err)
	}

	promoted, err := f.Promote(journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	sameStates(t, j, promoted)
	if js := promoted.State().Jobs[6]; js == nil || js.Terminal() {
		t.Fatalf("incomplete job after promotion = %+v, want non-terminal", js)
	}
	st := f.Stats()
	if st.Rounds != 3 || st.Frames == 0 || st.Bytes == 0 {
		t.Fatalf("stats = %+v, want 3 rounds with frames and bytes", st)
	}
}

// flakyProxy wraps a handler and mutates the first segment response:
// either truncating it mid-frame (a dropped connection) or flipping a bit
// (corruption in transit). Subsequent requests pass through untouched.
type flakyProxy struct {
	inner   http.Handler
	mutate  func([]byte) []byte
	mu      sync.Mutex
	tripped bool
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("seg") == "" {
		p.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	p.mu.Lock()
	if !p.tripped && len(body) > streamHeaderLen+4 {
		body = p.mutate(bytes.Clone(body))
		p.tripped = true
	}
	p.mu.Unlock()
	for k, vs := range rec.Header() {
		w.Header()[k] = vs
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// streamHeaderLen mirrors the journal's frame header size for test
// arithmetic (kept in sync by TestStreamFrameRoundTrip over in journal).
const streamHeaderLen = 24

func testFollowerRecovers(t *testing.T, mutate func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(journal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendJobs(t, j, 1, 20, true)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /journal/stream", streamHandler(j))
	proxy := &flakyProxy{inner: mux, mutate: mutate}
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 hits the mutated response: some prefix may apply, the bad
	// frame must not. Round 2 resumes from the durable offset and
	// converges.
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Resumes == 0 {
		t.Fatalf("stats = %+v, want at least one resume", st)
	}
	m, err := j.TailManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range m.Segments {
		want, err := os.ReadFile(filepath.Join(dir, journal.SegmentFileName(seg.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(f.dir, journal.SegmentFileName(seg.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("segment %d mirror differs after recovery (%d vs %d bytes)", seg.Seq, len(got), len(want))
		}
	}
}

// TestFollowerResumesAfterDroppedConnection: a response cut mid-frame
// applies its clean prefix; the next round resumes at the durable offset.
func TestFollowerResumesAfterDroppedConnection(t *testing.T) {
	testFollowerRecovers(t, func(b []byte) []byte { return b[:len(b)-7] })
}

// TestFollowerRejectsCorruptFrame: a bit flipped in transit fails the
// frame CRC; nothing corrupt lands in the mirror and the retry converges.
func TestFollowerRejectsCorruptFrame(t *testing.T) {
	testFollowerRecovers(t, func(b []byte) []byte {
		b[len(b)/2] ^= 0x20
		return b
	})
}

// TestPromotionAbsorbsTornTail: a partially streamed record on the
// mirror's tail — the at-most-one-batch loss window — truncates cleanly
// at promotion, exactly like a crash restart.
func TestPromotionAbsorbsTornTail(t *testing.T) {
	j, ts := newPrimary(t)
	appendJobs(t, j, 1, 4, true)

	f, err := NewFollower(ts.URL, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	wantState := j.State()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the stream dying mid-record: append half a record frame to
	// the mirror's newest segment.
	local, err := journal.ScanTailDir(f.dir)
	if err != nil || len(local.Segments) == 0 {
		t.Fatalf("mirror scan: %v (%d segments)", err, len(local.Segments))
	}
	last := local.Segments[len(local.Segments)-1]
	seg := filepath.Join(f.dir, journal.SegmentFileName(last.Seq))
	fh, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	promoted, err := f.Promote(journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if n, truncated := promoted.Truncated(); !truncated || n == 0 {
		t.Fatalf("promotion did not truncate the torn tail (n=%d, truncated=%v)", n, truncated)
	}
	got := promoted.State()
	if len(got.Jobs) != len(wantState.Jobs) {
		t.Fatalf("promoted jobs = %d, want %d", len(got.Jobs), len(wantState.Jobs))
	}
	for id, wj := range wantState.Jobs {
		if gj := got.Jobs[id]; gj == nil || gj.State != wj.State {
			t.Fatalf("job %d: want %+v, got %+v", id, wj, gj)
		}
	}
}
