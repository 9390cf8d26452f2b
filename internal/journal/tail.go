package journal

// Segment tailing: what a standby uses to replicate a live journal
// byte-for-byte over a network hop. The primary exposes its durable files
// (WAL segments and snapshots) as raw offset-addressable byte ranges; a
// follower copies them into a Mirror and, on promotion, replays that
// directory with Open exactly like a crash restart.
//
// The link adds no framing of its own. Every segment byte after the magic
// already sits under a record's CRC-32C, and a snapshot under its frame's, so
// the follower checks what it receives with the functions Open checks files
// with (ScanSegment, DecodeSnapshot) and keeps only what passes: a bit
// flipped in flight is detected at the record it struck, and the follower
// resumes from its last good offset. The Mirror writes through the same FS,
// torn-tail cut (readSegment) and snapshot install (install) as the journal.

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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
	return scanDir(j.opts.FS, j.opts.Dir)
}

// ScanTailDir builds a TailManifest from any directory of the operating
// system using the journal's naming rules.
func ScanTailDir(dir string) (TailManifest, error) { return scanDir(OS, dir) }

// scanDir lists the journal files of dir: the one reading of a journal
// directory, for Open, the compaction, a manifest and a Mirror.
func scanDir(fsys FS, dir string) (TailManifest, error) {
	entries, err := fsys.ReadDir(dir)
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

// ReadSegmentAt returns up to max bytes of segment seq starting at offset
// off. An offset at or past the current end returns an empty slice (the
// follower is caught up); a missing segment returns an error (compacted
// away — refetch the manifest). The bytes are raw file content, magic
// included at offset 0, and need not end on a record boundary.
func (j *Journal) ReadSegmentAt(seq uint64, off int64, max int) ([]byte, error) {
	if off < 0 || max <= 0 {
		return nil, fmt.Errorf("journal: bad tail read (off %d, max %d)", off, max)
	}
	return j.opts.FS.ReadAt(filepath.Join(j.opts.Dir, SegmentFileName(seq)), off, max)
}

// SnapshotBytes returns the raw content of snapshot seq, its own magic and
// CRC frame included, for the receiver to check with DecodeSnapshot.
func (j *Journal) SnapshotBytes(seq uint64) ([]byte, error) {
	return j.opts.FS.ReadFile(filepath.Join(j.opts.Dir, SnapshotFileName(seq)))
}

// Mirror is the file side of a standby: a directory holding a copy of a
// primary journal's files, written only with what passes the checks Open
// applies, so that Open of it is a crash restart.
type Mirror struct {
	dir  string
	fsys FS
}

// OpenMirror prepares dir (created if absent) as a mirror through fsys. A
// standby killed mid-write can leave a torn record at the end of a mirrored
// segment, and a resume from inside a record never passes the check, so
// each segment is first cut back to its whole records, as Open cuts it.
func OpenMirror(dir string, fsys FS) (*Mirror, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	m := &Mirror{dir: dir, fsys: fsys}
	local, err := m.Manifest()
	if err != nil {
		return nil, err
	}
	for _, s := range local.Segments {
		if _, _, _, err := readSegment(fsys, filepath.Join(dir, SegmentFileName(s.Seq))); errors.Is(err, errSegmentIO) {
			return nil, err
		}
	}
	return m, nil
}

// Manifest lists the mirror's files.
func (m *Mirror) Manifest() (TailManifest, error) { return scanDir(m.fsys, m.dir) }

// InstallSnapshot installs data as snapshot seq the way the journal writes
// its own, once it passes DecodeSnapshot; one that fails is not installed.
func (m *Mirror) InstallSnapshot(seq uint64, data []byte) error {
	if _, err := DecodeSnapshot(data); err != nil {
		return err
	}
	return install(m.fsys, m.dir, SnapshotFileName(seq), data)
}

// AppendSegment opens segment seq for appends, creating it if absent: the
// caller writes to it only the whole records ScanSegment accepts.
func (m *Mirror) AppendSegment(seq uint64) (File, error) {
	return m.fsys.Append(filepath.Join(m.dir, SegmentFileName(seq)))
}

// Prune removes, best-effort, the mirror's files that the primary's
// manifest no longer lists: what its compaction deleted. Call it only once
// the mirror holds every snapshot the manifest lists, as those cover the
// segments it removes.
func (m *Mirror) Prune(remote TailManifest) {
	local, err := m.Manifest()
	if err != nil {
		return
	}
	listed := remote.names()
	for _, name := range local.names() {
		if !slices.Contains(listed, name) {
			_ = m.fsys.Remove(filepath.Join(m.dir, name))
		}
	}
}

// names lists the file names of the manifest's segments and snapshots.
func (t TailManifest) names() []string {
	var out []string
	for _, s := range t.Segments {
		out = append(out, SegmentFileName(s.Seq))
	}
	for _, s := range t.Snapshots {
		out = append(out, SnapshotFileName(s.Seq))
	}
	return out
}
