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
	"os"
	"path/filepath"
	"sort"
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
	// NoSync skips fsync (tests only; crash durability is lost).
	NoSync bool
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
	dir  string

	mu        sync.Mutex // guards f, seg, size, state, appendSeq, closed
	f         *os.File
	seg       uint64
	size      int64
	state     *State
	appendSeq uint64
	closed    bool

	syncMu    sync.Mutex // serializes fsync batches; held across rotation
	syncedSeq uint64
	syncErr   error
	syncFault error // injected by FailSyncs

	obs atomic.Pointer[journalObs] // instrument bundle; nil until Observe

	stats struct {
		sync.Mutex
		Stats
	}
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

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
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{opts: opts, dir: opts.Dir}

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })

	// Seed from the newest loadable snapshot, falling back on corruption.
	state, snapSeq := newState(), uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := j.readSnapshot(snaps[i])
		if err != nil {
			opts.Logf("journal: snapshot %s unreadable (%v); falling back", snapName(snaps[i]), err)
			continue
		}
		state, snapSeq = st, snaps[i]
		break
	}
	j.state = state

	// Replay segments the snapshot does not cover, truncating torn tails.
	var lastLen int64
	for _, seq := range segs {
		if seq < snapSeq {
			continue // covered by the snapshot; compaction leftovers
		}
		path := filepath.Join(opts.Dir, segName(seq))
		recs, validLen, tornErr := readSegment(path)
		if errors.Is(tornErr, errSegmentIO) {
			return nil, tornErr
		}
		for _, rec := range recs {
			j.state.apply(rec)
		}
		j.stats.ReplayedRecords += int64(len(recs))
		if tornErr != nil {
			fi, statErr := os.Stat(path)
			if statErr == nil && fi.Size() > validLen {
				torn := fi.Size() - validLen
				j.stats.TruncatedBytes += torn
				if seq != segs[len(segs)-1] {
					opts.Logf("journal: corruption inside non-final segment %s (%v); records after offset %d in that segment are lost", segName(seq), tornErr, validLen)
				}
				opts.Logf("journal: truncating %d bytes of torn tail from %s at offset %d (%v)", torn, segName(seq), validLen, tornErr)
				if err := os.Truncate(path, validLen); err != nil {
					return nil, fmt.Errorf("journal: truncating %s: %w", path, err)
				}
			}
		}
		lastLen = validLen
	}

	// Open the newest segment for appends, or start a fresh one.
	if n := len(segs); n > 0 && segs[n-1] >= snapSeq {
		j.seg = segs[n-1]
		path := filepath.Join(opts.Dir, segName(j.seg))
		if lastLen < int64(len(segMagic)) {
			// The tail segment lost even its header; rewrite it.
			if err := os.Truncate(path, 0); err != nil {
				return nil, err
			}
			f, err := j.createSegmentFile(path)
			if err != nil {
				return nil, err
			}
			j.f, j.size = f, int64(len(segMagic))
		} else {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			j.f, j.size = f, lastLen
		}
	} else {
		j.seg = snapSeq
		if j.seg == 0 {
			j.seg = 1
		}
		f, err := j.createSegmentFile(filepath.Join(opts.Dir, segName(j.seg)))
		if err != nil {
			return nil, err
		}
		j.f, j.size = f, int64(len(segMagic))
	}
	j.stats.Segment = j.seg
	j.syncDir()
	return j, nil
}

// createSegmentFile creates a segment with its magic header written and
// (unless NoSync) synced.
func (j *Journal) createSegmentFile(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		_ = f.Close() // already failing; the write error is the one to surface
		return nil, err
	}
	if !j.opts.NoSync {
		if err := f.Sync(); err != nil {
			_ = f.Close() // already failing; the sync error is the one to surface
			return nil, err
		}
	}
	return f, nil
}

// syncDir fsyncs the data directory so renames and creations are durable.
// Failures are logged rather than fatal — the caller's own data writes are
// already synced; only the direntry metadata's durability is in doubt.
func (j *Journal) syncDir() {
	if j.opts.NoSync {
		return
	}
	d, err := os.Open(j.dir)
	if err != nil {
		j.opts.Logf("journal: cannot open %s to sync directory metadata: %v", j.dir, err)
		return
	}
	if err := d.Sync(); err != nil {
		j.opts.Logf("journal: directory sync of %s failed (recent renames/creations may not be durable): %v", j.dir, err)
	}
	_ = d.Close() // read-only directory handle; nothing left to flush
}

// readSegment parses one segment file, returning the decodable records,
// the length of the valid prefix (magic included), and the error that
// stopped the scan (nil on a clean end).
func readSegment(path string) ([]*Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		// A file we cannot even read is an I/O problem, not a torn
		// tail; fail the open rather than truncate good data.
		return nil, 0, fmt.Errorf("%w: %v", errSegmentIO, err)
	}
	recs, n, err := ScanSegment(data, 0)
	return recs, int64(n), err
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

// readSnapshot loads and validates one snapshot file.
func (j *Journal) readSnapshot(seq uint64) (*State, error) {
	data, err := os.ReadFile(filepath.Join(j.dir, snapName(seq)))
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
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
// segments with sequence < seq) via tmp-file + rename, then compacts: the
// covered segments and all but the newest KeepSnapshots snapshots are
// deleted.
func (j *Journal) writeSnapshot(st *State, seq uint64) error {
	payload, err := st.marshalSnapshot()
	if err != nil {
		return err
	}
	data := encodeFrame([]byte(snapMagic), payload)
	path := filepath.Join(j.dir, snapName(seq))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if !j.opts.NoSync {
		f, err := os.OpenFile(tmp, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		serr := f.Sync()
		if cerr := f.Close(); serr == nil {
			serr = cerr
		}
		if serr != nil {
			return serr
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	j.syncDir()
	j.stats.Lock()
	j.stats.Snapshots++
	j.stats.Unlock()

	// Compact: covered segments and superseded snapshots.
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil // the snapshot itself is durable; compaction is best-effort
	}
	var snaps []uint64
	for _, e := range entries {
		if s, ok := parseSeq(e.Name(), "wal-", ".log"); ok && s < seq {
			os.Remove(filepath.Join(j.dir, e.Name()))
		}
		if s, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, s)
		}
	}
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	for len(snaps) > j.opts.KeepSnapshots {
		os.Remove(filepath.Join(j.dir, snapName(snaps[0])))
		snaps = snaps[1:]
	}
	return nil
}

// Ticket names a written record for Sync.
type Ticket struct {
	seq    uint64
	rotate bool      // the segment had crossed its size threshold
	start  time.Time // when Write began, for the append-latency histogram; zero when unobserved
}

// Append durably adds one record: Write, then Sync.
//
//lint:durable fsync
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
//
//lint:durable fsync
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

// FailSyncs makes every group-commit fsync from now on report err without
// touching the disk (nil heals). It is fault injection for the callers' error
// paths — a Sync that fails after its Write succeeded — which no real file
// can be made to produce on demand.
func (j *Journal) FailSyncs(err error) {
	j.syncMu.Lock()
	j.syncFault = err
	j.syncMu.Unlock()
}

// syncTo blocks until every record up to ticket is fsynced. The first
// caller into the critical section syncs everything written so far; callers
// whose ticket is already covered return immediately — batched group
// commit.
func (j *Journal) syncTo(ticket uint64) error {
	if j.opts.NoSync {
		return nil
	}
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
	err := j.syncFault
	if err == nil {
		// Group commit by design: the fsync under syncMu is the batching
		// point every concurrent appender shares.
		err = f.Sync()
	}
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
	if !j.opts.NoSync {
		// Rotation drains the old segment under syncMu so no appender can
		// share a sync with a file about to be swapped out.
		if err := old.Sync(); err != nil {
			j.mu.Unlock()
			j.opts.Logf("journal: rotation aborted, cannot sync %s: %v", segName(j.seg), err)
			return
		}
	}
	newSeq := j.seg + 1
	f, err := j.createSegmentFile(filepath.Join(j.dir, segName(newSeq)))
	if err != nil {
		j.mu.Unlock()
		j.opts.Logf("journal: rotation aborted, cannot create %s: %v", segName(newSeq), err)
		return
	}
	j.f, j.seg, j.size = f, newSeq, int64(len(segMagic))
	j.syncedSeq, j.syncErr = j.appendSeq, nil
	snap := j.state.clone()
	j.mu.Unlock()
	j.syncDir()
	if err := old.Close(); err != nil {
		// The old segment was synced above; a close failure loses no
		// data but is worth a trace in the log.
		j.opts.Logf("journal: closing rotated segment %s: %v", segName(newSeq-1), err)
	}

	j.stats.Lock()
	j.stats.Rotations++
	j.stats.Segment = newSeq
	j.stats.Unlock()
	if err := j.writeSnapshot(snap, newSeq); err != nil {
		j.opts.Logf("journal: snapshot %s failed (recovery will replay segments instead): %v", snapName(newSeq), err)
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

	var firstErr error
	if !j.opts.NoSync {
		// The final sync holds syncMu so in-flight group-commit waiters are
		// covered by it before the file closes.
		if err := f.Sync(); err != nil {
			firstErr = err
		}
	}
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
