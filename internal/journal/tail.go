package journal

// Segment tailing: the read-side API a standby uses to replicate a live
// journal byte-for-byte over a network hop. The primary exposes its durable
// files (WAL segments and snapshots) as raw offset-addressable byte ranges; a
// follower copies them into its own directory and, on promotion, replays
// that directory with Open exactly like a crash restart.
//
// The link adds no framing of its own. Every segment byte after the magic
// already sits under a record's CRC-32C, and a snapshot under its frame's, so
// the follower checks what it receives with the functions Open checks files
// with (ScanSegment, DecodeSnapshot) and keeps only what passes: a bit
// flipped in flight is detected at the record it struck, and the follower
// resumes from its last good offset.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// TailFile describes one journal file (segment or snapshot) available for
// tailing.
type TailFile struct {
	Seq  uint64 `json:"seq"`
	Size int64  `json:"size"`
}

// TailManifest lists the journal's current on-disk files, sorted by
// sequence number. A follower diffs it against its local copies to decide
// what to fetch next.
type TailManifest struct {
	Segments  []TailFile `json:"segments"`
	Snapshots []TailFile `json:"snapshots"`
}

// TailManifest scans the journal directory. Safe to call concurrently with
// appends: sizes are instantaneous lower bounds (a segment only grows until
// it rotates), and compaction may delete a listed file before it is fetched
// — followers must treat a missing segment as "re-list and retry".
func (j *Journal) TailManifest() (TailManifest, error) {
	return ScanTailDir(j.dir)
}

// ScanTailDir builds a TailManifest from any directory using the
// journal's naming rules — a follower points it at its own mirror to diff
// local files against a primary's manifest.
func ScanTailDir(dir string) (TailManifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return TailManifest{}, err
	}
	var m TailManifest
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue // deleted between ReadDir and Stat (compaction race)
		}
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			m.Segments = append(m.Segments, TailFile{Seq: seq, Size: info.Size()})
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			m.Snapshots = append(m.Snapshots, TailFile{Seq: seq, Size: info.Size()})
		}
	}
	sort.Slice(m.Segments, func(i, k int) bool { return m.Segments[i].Seq < m.Segments[k].Seq })
	sort.Slice(m.Snapshots, func(i, k int) bool { return m.Snapshots[i].Seq < m.Snapshots[k].Seq })
	return m, nil
}

// SegmentFileName and SnapshotFileName expose the journal's naming scheme
// so a replication follower mirrors files under the exact names Open
// expects at promotion.
func SegmentFileName(seq uint64) string { return segName(seq) }

// SnapshotFileName is the snapshot analogue of SegmentFileName.
func SnapshotFileName(seq uint64) string { return snapName(seq) }

// ReadSegmentAt returns up to max bytes of segment seq starting at offset
// off. An offset at or past the current end returns an empty slice (the
// follower is caught up); a missing segment returns an error (compacted
// away — refetch the manifest). The bytes are raw file content, magic
// included at offset 0, and need not end on a record boundary.
func (j *Journal) ReadSegmentAt(seq uint64, off int64, max int) ([]byte, error) {
	if off < 0 || max <= 0 {
		return nil, fmt.Errorf("journal: bad tail read (off %d, max %d)", off, max)
	}
	f, err := os.Open(filepath.Join(j.dir, segName(seq)))
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only handle; nothing to flush
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off >= fi.Size() {
		return nil, nil
	}
	if rest := fi.Size() - off; int64(max) > rest {
		max = int(rest)
	}
	buf := make([]byte, max)
	n, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// SnapshotBytes returns the raw content of snapshot seq, its own magic and
// CRC frame included, for the receiver to check with DecodeSnapshot.
func (j *Journal) SnapshotBytes(seq uint64) ([]byte, error) {
	return os.ReadFile(filepath.Join(j.dir, snapName(seq)))
}
