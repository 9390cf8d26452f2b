// Package journal is the durability subsystem of the multi-job execution
// service: an append-only, segmented, CRC-32C-checksummed write-ahead log
// plus a periodic snapshot store that together persist the service's job
// lifecycle (submitted → started → succeeded/failed/cancelled, spec
// payloads, fault-plan JSON, result digests) across process deaths.
//
// Durability follows the paper's detection-and-localized-recovery model
// lifted to process scale: corruption is observed at read time, attributed
// to the record (frame) it struck, and recovered by truncating the torn
// tail and replaying the valid prefix — a crash never costs more than the
// unsynced suffix, and never fails the whole store.
//
// The hot append path is two steps, Write and Sync (Append is the two
// together). Write puts the frame in the segment under a short mutex; Sync
// waits until it is on disk, with batched group commit: the first caller into
// the sync section flushes every frame written so far, and the batch returns
// together. A record nobody waits for (the service's Started) is only
// written, and rides the next caller's fsync. Segments rotate at a size
// threshold; each rotation snapshots the folded state and deletes the
// segments it covers, so recovery replays one snapshot plus at most one
// segment's worth of records.
package journal

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an Append on a closed journal.
var ErrClosed = errors.New("journal: closed")

// errSegmentIO marks a segment that could not be read at all (an I/O
// failure, not corruption); Open fails instead of truncating.
var errSegmentIO = errors.New("journal: segment unreadable")

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// SegmentBytes is the rotation threshold (default 1 MiB). Each
	// rotation writes a snapshot and compacts the covered segments.
	SegmentBytes int64
	// KeepSnapshots is how many snapshot generations to retain
	// (default 2; the extra generation survives corruption of the
	// newest).
	KeepSnapshots int
	// FS is the file layer the journal's files are read and written
	// through (default OS).
	FS FS
	// Logf receives recovery and compaction warnings (default
	// log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.KeepSnapshots < 1 {
		o.KeepSnapshots = 2
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

// Stats are the journal's operation counters (observability endpoints).
type Stats struct {
	// Appends counts records appended this process; Fsyncs counts file
	// syncs issued for them. Fsyncs < Appends shows group commit
	// batching on the hot path.
	Appends int64 `json:"appends"`
	Fsyncs  int64 `json:"fsyncs"`
	// Rotations and Snapshots count segment rolls and snapshot writes.
	Rotations int64 `json:"rotations"`
	Snapshots int64 `json:"snapshots"`
	// Segment is the current segment sequence number.
	Segment uint64 `json:"segment"`
	// TruncatedBytes is the torn/corrupted tail discarded at Open
	// (0 when the journal was clean).
	TruncatedBytes int64 `json:"truncated_bytes"`
	// ReplayedRecords counts records folded into state at Open.
	ReplayedRecords int64 `json:"replayed_records"`
}

// Journal is an open write-ahead log. Safe for concurrent use.
type Journal struct {
	opts Options

	mu        sync.Mutex // guards f, seg, size, state, appendSeq, closed
	f         File
	seg       uint64
	size      int64
	state     *State
	appendSeq uint64
	closed    bool

	syncMu    sync.Mutex // serializes fsync batches; held across rotation
	syncedSeq uint64
	syncErr   error

	obs atomic.Pointer[journalObs] // instrument bundle; nil until Observe

	stats struct {
		sync.Mutex
		Stats
	}
}

// SegmentFileName and SnapshotFileName are the journal's file names.
func SegmentFileName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func SnapshotFileName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeq extracts the sequence number of a journal file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), "%016x", &seq)
	return seq, err == nil
}

// Open replays the journal in dir (creating it when empty) and returns it
// ready for appends. The newest loadable snapshot seeds the state; segments
// past it are replayed record by record; a torn or corrupted tail is
// truncated with a warning rather than failing the boot.
func Open(opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("journal: Options.Dir is required")
	}
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	j := &Journal{opts: opts}
	files, err := scanDir(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	segs, snaps := files.Segments, files.Snapshots

	// Seed from the newest loadable snapshot, falling back on corruption.
	state, snapSeq := newState(), uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := j.SnapshotBytes(snaps[i].Seq)
		var st *State
		if err == nil {
			st, err = DecodeSnapshot(data)
		}
		if err != nil {
			opts.Logf("journal: snapshot %s unreadable (%v); falling back", SnapshotFileName(snaps[i].Seq), err)
			continue
		}
		state, snapSeq = st, snaps[i].Seq
		break
	}
	j.state = state

	// Replay segments the snapshot does not cover, cutting torn tails.
	var lastLen int64
	for _, s := range segs {
		if s.Seq < snapSeq {
			continue // covered by the snapshot; compaction leftovers
		}
		recs, validLen, torn, err := readSegment(fsys, filepath.Join(opts.Dir, SegmentFileName(s.Seq)))
		if errors.Is(err, errSegmentIO) {
			return nil, err
		}
		for _, rec := range recs {
			j.state.apply(rec)
		}
		j.stats.ReplayedRecords += int64(len(recs))
		if torn > 0 {
			j.stats.TruncatedBytes += torn
			if s.Seq != segs[len(segs)-1].Seq {
				opts.Logf("journal: corruption inside non-final segment %s (%v); records after offset %d in that segment are lost", SegmentFileName(s.Seq), err, validLen)
			}
			opts.Logf("journal: truncated %d bytes of torn tail from %s at offset %d (%v)", torn, SegmentFileName(s.Seq), validLen, err)
		}
		lastLen = validLen
	}

	// Open the newest segment for appends, or start a fresh one after the
	// snapshot. A tail segment that lost even its header is rewritten.
	j.seg, j.size = max(snapSeq, 1), int64(len(segMagic))
	if n := len(segs); n > 0 && segs[n-1].Seq >= snapSeq {
		j.seg = segs[n-1].Seq
	}
	path := filepath.Join(opts.Dir, SegmentFileName(j.seg))
	if lastLen >= j.size {
		j.size = lastLen
		j.f, err = fsys.Append(path)
	} else {
		j.f, err = create(fsys, path, []byte(segMagic))
	}
	if err != nil {
		return nil, err
	}
	// The segment's name is durable before a record in it is acknowledged.
	if err := fsys.SyncDir(opts.Dir); err != nil {
		_ = j.f.Close() // Open fails with the sync error
		return nil, err
	}
	j.stats.Segment = j.seg
	return j, nil
}

// create writes data to a new or emptied file at path, syncs it and returns
// it open.
func create(fsys FS, path string, data []byte) (File, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close() // already failing; that error is the one to surface
		return nil, err
	}
	return f, nil
}

// readSegment reads a segment file and cuts it back to its valid prefix,
// the magic and the whole records ScanSegment accepts: the torn-tail cut of
// Open and of a Mirror. It returns the prefix's records and length, the
// bytes cut after it, and the error that stopped the scan (nil on a clean
// end) — or, wrapping errSegmentIO, the failure to read or cut the file: an
// I/O problem, not a torn tail, on which Open fails rather than cut more.
func readSegment(fsys FS, path string) (recs []*Record, valid, cut int64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", errSegmentIO, err)
	}
	recs, n, err := ScanSegment(data, 0)
	if n < len(data) {
		if terr := fsys.Truncate(path, int64(n)); terr != nil {
			return nil, 0, 0, fmt.Errorf("%w: truncating %s: %v", errSegmentIO, path, terr)
		}
	}
	return recs, int64(n), int64(len(data) - n), err
}

// ScanSegment checks data, the bytes of a segment from offset off on, the
// way Open checks a segment: the magic where it covers offsets below 8,
// then each record's frame length, CRC-32C and DecodeRecord. It returns the
// records that pass, the length of the prefix of data they (and the magic)
// span, and the error that stopped the scan — nil when data ends on a
// record boundary, ErrTorn when it ends inside the magic or a record, so
// that more bytes may complete it. Replay and replication both scan with
// it: a standby's mirror holds exactly what the primary's Open would keep.
func ScanSegment(data []byte, off int64) ([]*Record, int, error) {
	if off < 0 {
		return nil, 0, fmt.Errorf("journal: negative segment offset %d", off)
	}
	n := 0
	if off < int64(len(segMagic)) {
		n = len(segMagic) - int(off)
		if len(data) < n {
			return nil, 0, ErrTorn
		}
		if string(data[:n]) != segMagic[off:] {
			return nil, 0, errors.New("journal: bad segment magic")
		}
	}
	var recs []*Record
	for n < len(data) {
		payload, size, err := decodeFrame(data[n:])
		if err != nil {
			return recs, n, err
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return recs, n, fmt.Errorf("%w: %v", errFrameDecodes, err)
		}
		recs = append(recs, rec)
		n += size
	}
	return recs, n, nil
}

// DecodeSnapshot checks a snapshot file's bytes the way Open does — magic,
// one frame whose CRC-32C verifies and nothing after it, a payload that
// unmarshals — and returns the state it holds. A standby installs a
// snapshot only once it passes.
func DecodeSnapshot(data []byte) (*State, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("bad snapshot magic")
	}
	payload, n, err := decodeFrame(data[len(snapMagic):])
	if err != nil {
		return nil, err
	}
	if n != len(data)-len(snapMagic) {
		return nil, errors.New("trailing bytes after snapshot frame")
	}
	return unmarshalSnapshot(payload)
}

const snapMagic = "FTSNAP01"

// MaxSnapshotBytes is the largest snapshot file DecodeSnapshot accepts: the
// magic and one frame of the largest size.
const MaxSnapshotBytes = len(snapMagic) + frameHeader + maxFrameSize

// writeSnapshot durably writes the state as snapshot seq (covering all
// segments with sequence < seq) with install, then compacts: the covered
// segments and all but the newest KeepSnapshots snapshots are deleted.
func (j *Journal) writeSnapshot(st *State, seq uint64) error {
	payload, err := st.marshalSnapshot()
	if err != nil {
		return err
	}
	fsys := j.opts.FS
	if err := install(fsys, j.opts.Dir, SnapshotFileName(seq), encodeFrame([]byte(snapMagic), payload)); err != nil {
		return err
	}
	j.stats.Lock()
	j.stats.Snapshots++
	j.stats.Unlock()

	// Compact: covered segments and superseded snapshots.
	files, err := scanDir(fsys, j.opts.Dir)
	if err != nil {
		return nil // the snapshot itself is durable; compaction is best-effort
	}
	for _, s := range files.Segments {
		if s.Seq < seq {
			_ = fsys.Remove(filepath.Join(j.opts.Dir, SegmentFileName(s.Seq)))
		}
	}
	for _, s := range files.Snapshots[:max(0, len(files.Snapshots)-j.opts.KeepSnapshots)] {
		_ = fsys.Remove(filepath.Join(j.opts.Dir, SnapshotFileName(s.Seq)))
	}
	return nil
}

// install durably writes data as file name of dir: a temp file written and
// synced, renamed over name, then the directory synced. The journal's
// snapshots and a Mirror's are written with it, and a file it returned nil
// for survives a crash whole.
func install(fsys FS, dir, name string, data []byte) error {
	path := filepath.Join(dir, name)
	f, err := create(fsys, path+".tmp", data)
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		err = fsys.Rename(path+".tmp", path)
	}
	if err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// Ticket names a written record for Sync.
type Ticket struct {
	seq    uint64
	rotate bool      // the segment had crossed its size threshold
	start  time.Time // when Write began, for the append-latency histogram; zero when unobserved
}

// Append durably adds one record: Write, then Sync.
func (j *Journal) Append(rec Record) error {
	t, err := j.Write(rec)
	if err != nil {
		return err
	}
	return j.Sync(t)
}

// Write adds one record without waiting for the disk: it is framed, written
// to the segment and folded into the in-memory state (State shows it at
// once). It is durable once Sync of the returned ticket — or of any later
// one: the log is one ordered file — has returned nil. A crash before that
// may lose it, together with everything written after it.
func (j *Journal) Write(rec Record) (Ticket, error) {
	var t Ticket
	if o := j.obs.Load(); o != nil {
		t.start = o.appendLat.Start()
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	frame, err := EncodeRecord(&rec)
	if err != nil {
		return t, err
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return t, ErrClosed
	}
	if _, err := j.f.Write(frame); err != nil {
		j.mu.Unlock()
		return t, err
	}
	j.size += int64(len(frame))
	j.state.apply(&rec)
	j.appendSeq++
	t.seq, t.rotate = j.appendSeq, j.size >= j.opts.SegmentBytes
	j.mu.Unlock()

	j.stats.Lock()
	j.stats.Appends++
	j.stats.Unlock()
	return t, nil
}

// Sync blocks until the ticket's record, and every record written before it,
// is fsynced (group commit — concurrent callers share syncs). Rotation and
// snapshotting happen inline when the segment has crossed the size threshold.
func (j *Journal) Sync(t Ticket) error {
	if err := j.syncTo(t.seq); err != nil {
		return err
	}
	if o := j.obs.Load(); o != nil && !t.start.IsZero() {
		// Measured here: the record is durable; rotation is housekeeping.
		o.appendLat.ObserveSince(t.start)
	}
	if t.rotate {
		j.rotate()
	}
	return nil
}

// syncTo blocks until every record up to ticket is fsynced. The first
// caller into the critical section syncs everything written so far; callers
// whose ticket is already covered return immediately — batched group
// commit.
func (j *Journal) syncTo(ticket uint64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if j.syncedSeq >= ticket {
		return j.syncErr
	}
	j.mu.Lock()
	f, cur := j.f, j.appendSeq
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return ErrClosed
	}
	batch := int64(cur - j.syncedSeq)
	// Group commit by design: the fsync under syncMu is the batching point
	// every concurrent appender shares.
	err := f.Sync()
	j.syncedSeq, j.syncErr = cur, err
	j.stats.Lock()
	j.stats.Fsyncs++
	j.stats.Unlock()
	if o := j.obs.Load(); o != nil {
		o.fsyncBatch.Observe(batch)
	}
	return err
}

// rotate rolls to a fresh segment, snapshots the state as of the roll, and
// compacts the covered segments. Failures leave the journal appending to
// the old segment; rotation is retried at the next threshold crossing.
func (j *Journal) rotate() {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	if j.closed || j.size < j.opts.SegmentBytes {
		j.mu.Unlock()
		return
	}
	old := j.f
	// Rotation drains the old segment under syncMu so no appender can share
	// a sync with a file about to be swapped out.
	if err := old.Sync(); err != nil {
		j.mu.Unlock()
		j.opts.Logf("journal: rotation aborted, cannot sync %s: %v", SegmentFileName(j.seg), err)
		return
	}
	// The new segment's name is durable before a record goes into it.
	newSeq := j.seg + 1
	f, err := create(j.opts.FS, filepath.Join(j.opts.Dir, SegmentFileName(newSeq)), []byte(segMagic))
	if err == nil {
		if err = j.opts.FS.SyncDir(j.opts.Dir); err != nil {
			_ = f.Close() // rotation is aborted; the sync error is the one to log
		}
	}
	if err != nil {
		j.mu.Unlock()
		j.opts.Logf("journal: rotation aborted, cannot create %s: %v", SegmentFileName(newSeq), err)
		return
	}
	j.f, j.seg, j.size = f, newSeq, int64(len(segMagic))
	j.syncedSeq, j.syncErr = j.appendSeq, nil
	snap := j.state.clone()
	j.mu.Unlock()
	if err := old.Close(); err != nil {
		// The old segment was synced above; a close failure loses no
		// data but is worth a trace in the log.
		j.opts.Logf("journal: closing rotated segment %s: %v", SegmentFileName(newSeq-1), err)
	}

	j.stats.Lock()
	j.stats.Rotations++
	j.stats.Segment = newSeq
	j.stats.Unlock()
	if err := j.writeSnapshot(snap, newSeq); err != nil {
		j.opts.Logf("journal: snapshot %s failed (recovery will replay segments instead): %v", SnapshotFileName(newSeq), err)
	}
}

// Close flushes, writes a final snapshot covering everything, compacts the
// now-redundant segments, and closes the journal. Idempotent.
func (j *Journal) Close() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	f, seg := j.f, j.seg
	snap := j.state.clone()
	j.mu.Unlock()

	// The final sync holds syncMu so in-flight group-commit waiters are
	// covered by it before the file closes.
	firstErr := f.Sync()
	if firstErr == nil {
		// Appenders that wrote before closed was set and are waiting
		// on the sync section are covered by the final sync above.
		j.mu.Lock()
		j.syncedSeq = j.appendSeq
		j.mu.Unlock()
	}
	if err := f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	// A clean shutdown leaves just the snapshot: boot loads it and starts
	// a fresh segment after it.
	if err := j.writeSnapshot(snap, seg+1); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// State returns a deep copy of the folded job state (replay result plus
// every record appended since).
func (j *Journal) State() *State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.clone()
}

// Stats returns the journal's operation counters.
func (j *Journal) Stats() Stats {
	j.stats.Lock()
	defer j.stats.Unlock()
	return j.stats.Stats
}

// Truncated reports how many torn-tail bytes Open discarded.
func (j *Journal) Truncated() (bytes int64, truncated bool) {
	s := j.Stats()
	return s.TruncatedBytes, s.TruncatedBytes > 0
}
