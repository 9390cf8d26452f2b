package journal

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// fuzzSeeds is the seed corpus for record decoding: valid frames, torn
// frames, bit flips, and hostile JSON — the shapes crash recovery must
// survive.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }

	full, _ := EncodeRecord(&Record{Kind: Submitted, ID: 1, Name: "seed", Payload: []byte(`{"app":"LU"}`), Time: time.Unix(1, 0)})
	add(full)
	add(full[:len(full)-3])      // torn payload
	add(full[:frameHeader-2])    // torn header
	flipped := bytes.Clone(full) // CRC mismatch
	flipped[len(flipped)-1] ^= 0xFF
	add(flipped)
	succ, _ := EncodeRecord(&Record{Kind: Succeeded, ID: 9, SinkDigest: "00ff", SinkLen: 2, Elapsed: time.Second})
	add(succ)
	add(encodeFrame(nil, []byte(`{}`)))                           // kindless
	add(encodeFrame(nil, []byte(`{"kind":"submitted","id":-4}`))) // bad id
	add(encodeFrame(nil, []byte(`{"kind":"zzz","id":1}`)))        // unknown kind
	add(encodeFrame(nil, []byte(`not json at all`)))
	add(encodeFrame(nil, nil))                             // empty payload
	add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})        // absurd length
	add([]byte(segMagic))                                  // bare magic
	add(append(bytes.Clone(full), full...))                // two frames
	add(append(bytes.Clone(full), []byte("torn tail")...)) // frame + garbage
	return seeds
}

// FuzzDecodeFrame: frame parsing never panics, never over-reads, and
// accepts only payloads whose CRC verifies.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := decodeFrame(data)
		if err != nil {
			return
		}
		if n < frameHeader || n > len(data) {
			t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(data))
		}
		if len(payload) != n-frameHeader {
			t.Fatalf("payload %d bytes for frame of %d", len(payload), n)
		}
		// A verified frame must re-encode to the identical bytes.
		if got := encodeFrame(nil, payload); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

// FuzzDecodeRecord: record decoding never panics and everything it accepts
// survives a marshal → decode round trip with kind and id intact.
func FuzzDecodeRecord(f *testing.F) {
	for _, s := range fuzzSeeds() {
		if payload, _, err := decodeFrame(s); err == nil {
			f.Add(payload)
		} else {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		if rec.Kind == KindInvalid || rec.ID < 1 {
			t.Fatalf("accepted invalid record %+v", rec)
		}
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		p2, _, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		rec2, err := DecodeRecord(p2)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if rec2.Kind != rec.Kind || rec2.ID != rec.ID || rec2.SinkDigest != rec.SinkDigest {
			t.Fatalf("round trip drift: %+v vs %+v", rec, rec2)
		}
	})
}

// FuzzReplaySegment: an arbitrary byte blob dropped behind the segment
// magic never panics the segment reader, and the valid prefix length is
// always within the file.
func FuzzReplaySegment(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		path := dir + "/wal-0000000000000001.log"
		if err := os.WriteFile(path, append([]byte(segMagic), tail...), 0o644); err != nil {
			t.Skip()
		}
		recs, validLen, _, _ := readSegment(OS, path)
		if validLen < int64(len(segMagic)) || validLen > int64(len(segMagic)+len(tail)) {
			t.Fatalf("validLen %d out of range", validLen)
		}
		_ = recs
	})
}
