package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// openTail is a test helper: a journal with a few appended records.
func openTail(t *testing.T, dir string, jobs int) *Journal {
	t.Helper()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= jobs; i++ {
		if err := j.Append(Record{Kind: Submitted, ID: int64(i), Name: "tail", Payload: []byte(`{"x":1}`)}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Kind: Succeeded, ID: int64(i), SinkDigest: "aa"}); err != nil {
			t.Fatal(err)
		}
	}
	return j
}

func TestTailManifestAndReadSegmentAt(t *testing.T) {
	dir := t.TempDir()
	j := openTail(t, dir, 3)
	defer j.Close()

	m, err := j.TailManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 1 || m.Segments[0].Seq != 1 {
		t.Fatalf("manifest segments = %+v, want one segment seq 1", m.Segments)
	}
	size := m.Segments[0].Size
	if size <= int64(len(segMagic)) {
		t.Fatalf("segment size %d, want > magic", size)
	}

	// Whole-file read equals the on-disk bytes, chunked reads reassemble to
	// the same content (resume-from-offset), and a caught-up offset returns
	// empty without error.
	want, err := os.ReadFile(filepath.Join(dir, SegmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.ReadSegmentAt(1, 0, int(size)+100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("full read differs from file (%d vs %d bytes)", len(got), len(want))
	}
	var assembled []byte
	for off := int64(0); ; {
		chunk, err := j.ReadSegmentAt(1, off, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			break
		}
		assembled = append(assembled, chunk...)
		off += int64(len(chunk))
	}
	if !bytes.Equal(assembled, want) {
		t.Fatalf("chunked reassembly differs from file")
	}
	if chunk, err := j.ReadSegmentAt(1, size+5, 16); err != nil || len(chunk) != 0 {
		t.Fatalf("past-end read = %v bytes, err %v; want empty, nil", len(chunk), err)
	}
	if _, err := j.ReadSegmentAt(99, 0, 16); err == nil {
		t.Fatal("missing segment read did not error")
	}
	if _, err := j.ReadSegmentAt(1, -1, 16); err == nil {
		t.Fatal("negative offset did not error")
	}

	// Appending grows the manifest size monotonically.
	if err := j.Append(Record{Kind: Submitted, ID: 9, Name: "late"}); err != nil {
		t.Fatal(err)
	}
	m2, err := j.TailManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Segments[0].Size <= size {
		t.Fatalf("size did not grow after append: %d -> %d", size, m2.Segments[0].Size)
	}
}

func TestSnapshotBytesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openTail(t, dir, 2)
	if err := j.Close(); err != nil { // Close writes a covering snapshot
		t.Fatal(err)
	}
	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	m, err := j2.TailManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Snapshots) == 0 {
		t.Fatal("no snapshot after Close")
	}
	seq := m.Snapshots[len(m.Snapshots)-1].Seq
	raw, err := j2.SnapshotBytes(seq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, SnapshotFileName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("SnapshotBytes differs from the file")
	}
	if _, err := j2.SnapshotBytes(seq + 77); err == nil {
		t.Fatal("missing snapshot did not error")
	}
}

// scanFixture is a segment's bytes — magic and three records — and the
// offsets where its records start, its length last.
func scanFixture(t testing.TB) ([]byte, []int) {
	seg := []byte(segMagic)
	bounds := []int{len(seg)}
	for _, rec := range []Record{
		{Kind: Submitted, ID: 1, Name: "scan", Payload: []byte(`{"x":1}`), Time: time.Unix(1, 0)},
		{Kind: Started, ID: 1, Time: time.Unix(2, 0)},
		{Kind: Succeeded, ID: 1, SinkDigest: "ab", Time: time.Unix(3, 0)},
	} {
		frame, err := EncodeRecord(&rec)
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, frame...)
		bounds = append(bounds, len(seg))
	}
	return seg, bounds
}

// TestScanSegmentDetectsTornAndCorrupt: the check a standby applies to the
// raw bytes it receives accepts exactly the whole records, from any
// offset; a cut anywhere is torn at the last record boundary before it,
// and a bit flipped anywhere — magic, length, CRC or payload — stops the
// scan at or before the record it struck.
func TestScanSegmentDetectsTornAndCorrupt(t *testing.T) {
	seg, bounds := scanFixture(t)
	for _, from := range append([]int{0, 1, 7}, bounds...) {
		recs, n, err := ScanSegment(seg[from:], int64(from))
		if err != nil || n != len(seg)-from {
			t.Fatalf("whole segment from %d: n=%d err=%v, want %d, nil", from, n, err, len(seg)-from)
		}
		want := 0
		for _, b := range bounds[:len(bounds)-1] {
			if b >= from {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("whole segment from %d: %d records, want %d", from, len(recs), want)
		}
	}

	lastBound := func(i int) int { // the last record start at or before i
		b := 0
		for _, s := range bounds {
			if s <= i {
				b = s
			}
		}
		return b
	}
	for cut := 0; cut < len(seg); cut++ {
		_, n, err := ScanSegment(seg[:cut], 0)
		if cut == lastBound(cut) && cut >= len(segMagic) {
			if err != nil || n != cut {
				t.Fatalf("cut at boundary %d: n=%d err=%v", cut, n, err)
			}
			continue
		}
		if !errors.Is(err, ErrTorn) || n != lastBound(cut) {
			t.Fatalf("cut at %d: n=%d err=%v, want %d, ErrTorn", cut, n, err, lastBound(cut))
		}
	}
	for i := range seg {
		for bit := range 8 {
			mut := bytes.Clone(seg)
			mut[i] ^= 1 << bit
			if _, n, err := ScanSegment(mut, 0); err == nil || n > lastBound(i) {
				t.Fatalf("flip of bit %d at %d: n=%d err=%v, want a stop at or before %d", bit, i, n, err, lastBound(i))
			}
		}
	}

	// An absurd length is corrupt, not torn: a standby must not wait for it.
	huge := append(bytes.Clone(seg), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)
	if _, n, err := ScanSegment(huge, 0); !errors.Is(err, errFrameTooBig) || n != len(seg) {
		t.Fatalf("oversized frame: n=%d err=%v, want %d, %v", n, err, len(seg), errFrameTooBig)
	}
}

// FuzzApplyReply: the standby's apply step — scan a reply at the mirror's
// offset, keep the prefix that passes — never panics and never keeps more
// than the reply, and a mirror extended by what it keeps re-scans through
// readSegment to the same records with nothing torn.
func FuzzApplyReply(f *testing.F) {
	seg, bounds := scanFixture(f)
	f.Add(seg, int64(0))
	f.Add(seg[bounds[1]:], int64(1))
	f.Add(seg[bounds[1]:bounds[2]+5], int64(1)) // a record and a torn one
	flipped := bytes.Clone(seg[bounds[2]:])
	flipped[frameHeader] ^= 0xFF
	f.Add(flipped, int64(2))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}, int64(3))
	f.Add([]byte(segMagic[3:]), int64(3))
	f.Add(seg, int64(-70))
	f.Fuzz(func(t *testing.T, reply []byte, off int64) {
		if _, n, err := ScanSegment(reply, off); n < 0 || n > len(reply) || (err == nil && n != len(reply)) {
			t.Fatalf("at offset %d: kept %d of %d bytes, err %v", off, n, len(reply), err)
		}
		// The same reply at a record boundary of the fixture, as the
		// follower's mirror always ends on one (or is empty).
		at, before := 0, 0 // the offset, and the records before it
		if off != 0 {
			before = int(uint64(off) % uint64(len(bounds)))
			at = bounds[before]
		}
		recs, n, _ := ScanSegment(reply, int64(at))
		mirror := append(bytes.Clone(seg[:at]), reply[:n]...)
		if len(mirror) == 0 {
			return
		}
		path := filepath.Join(t.TempDir(), SegmentFileName(1))
		if err := os.WriteFile(path, mirror, 0o644); err != nil {
			t.Fatal(err)
		}
		all, validLen, _, err := readSegment(OS, path)
		if err != nil || validLen != int64(len(mirror)) {
			t.Fatalf("mirror of %d bytes re-scans to %d, err %v", len(mirror), validLen, err)
		}
		if len(all) != before+len(recs) || (len(recs) > 0 && !reflect.DeepEqual(all[before:], recs)) {
			t.Fatalf("mirror re-scans to %d records, not the %d before it and the %d kept", len(all), before, len(recs))
		}
	})
}
