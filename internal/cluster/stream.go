package cluster

// Follower: the standby half of journal-streaming replication. It tails a
// primary's /journal/stream endpoint, mirroring WAL segments and
// snapshots byte-for-byte into a local directory. The primary sends raw
// file bytes; the follower writes only what passes the checks journal.Open
// applies — a segment's whole records (journal.ScanSegment), a snapshot
// whole (journal.DecodeSnapshot) — so the mirror is always a valid journal
// and promotion opens it with journal.Open exactly like a crash restart. The
// loss bound is the replication lag: with the primary fsyncing in group
// commits and the follower polling continuously, a promotion loses at
// most the un-streamed tail — about one group-commit batch.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ftdag/internal/journal"
)

// FollowerStats counts a follower's replication activity.
type FollowerStats struct {
	// Rounds is the number of completed Sync calls.
	Rounds int64 `json:"rounds"`
	// Bytes is the total bytes applied to the mirror.
	Bytes int64 `json:"bytes"`
	// Records is the number of checked journal records applied.
	Records int64 `json:"records"`
	// Resumes counts interrupted transfers — a corrupt record or snapshot,
	// a record still incomplete when the primary had no more bytes, a
	// dropped connection — after which the follower re-fetched from its
	// last durable offset.
	Resumes int64 `json:"resumes"`
}

// Follower mirrors one primary's journal into a local directory.
// Safe for use by one Sync caller plus concurrent Stats callers.
type Follower struct {
	base   string // primary base URL, e.g. http://127.0.0.1:8080
	dir    string
	client *http.Client

	mu    sync.Mutex
	stats FollowerStats
}

// NewFollower tails the primary at baseURL into dir (created if absent).
// A nil client gets the router's default, one with a 10 s timeout. A
// follower killed mid-write can leave a torn record at the end of a mirrored
// segment, and a resume from inside a record never passes the check, so
// each mirrored segment is first cut back to its whole records.
func NewFollower(baseURL, dir string, client *http.Client) (*Follower, error) {
	if err := parseURL(baseURL); err != nil {
		return nil, err
	}
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	local, err := journal.ScanTailDir(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range local.Segments {
		path := filepath.Join(dir, journal.SegmentFileName(s.Seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if _, n, _ := journal.ScanSegment(data, 0); n < len(data) {
			if err := os.Truncate(path, int64(n)); err != nil {
				return nil, err
			}
		}
	}
	return &Follower{
		base:   baseURL,
		dir:    dir,
		client: client,
	}, nil
}

// Stats returns a snapshot of the replication counters.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Promote opens the mirror as a live journal — the crash-restart path:
// snapshot restore, segment replay, torn-tail truncation. The caller owns the
// returned journal (typically feeding it to service.New so incomplete jobs
// re-run). opts.Dir is overridden with the mirror directory.
func (f *Follower) Promote(opts journal.Options) (*journal.Journal, error) {
	opts.Dir = f.dir
	return journal.Open(opts)
}

// Sync runs one replication round: fetch the primary's manifest, copy
// missing snapshots, extend each segment from the local offset (looping
// until a fetch comes back empty, so a round catches up past the
// manifest's point-in-time sizes), and delete local files the primary has
// compacted away. Returns the bytes applied. A snapshot that fails its
// check is not installed, and a corrupt record ends the affected segment's
// copy for this round — the records before it are kept — so the next round
// fetches both again from what the mirror holds. Either failure is in the
// error returned, joined with the others of the round: a nil error means the
// mirror holds every record the manifest listed.
func (f *Follower) Sync() (int64, error) {
	remote, err := f.fetchManifest()
	if err != nil {
		return 0, err
	}
	local, err := journal.ScanTailDir(f.dir)
	if err != nil {
		return 0, err
	}
	localSnap := make(map[uint64]bool, len(local.Snapshots))
	for _, s := range local.Snapshots {
		localSnap[s.Seq] = true
	}
	localSeg := make(map[uint64]int64, len(local.Segments))
	for _, s := range local.Segments {
		localSeg[s.Seq] = s.Size
	}

	var copied int64
	var errs []error
	for _, s := range remote.Snapshots {
		if localSnap[s.Seq] {
			continue // snapshots are immutable once written
		}
		n, err := f.copySnapshot(s.Seq)
		if err != nil {
			f.addResume()
			errs = append(errs, fmt.Errorf("cluster: follower snapshot %d: %w", s.Seq, err))
			continue
		}
		copied += n
	}
	for _, s := range remote.Segments {
		n, err := f.tailSegment(s.Seq, localSeg[s.Seq])
		copied += n
		if err != nil {
			f.addResume()
			errs = append(errs, fmt.Errorf("cluster: follower segment %d: %w", s.Seq, err))
		}
	}
	f.mirrorDeletions(remote, local)

	f.mu.Lock()
	f.stats.Rounds++
	f.stats.Bytes += copied
	f.mu.Unlock()
	return copied, errors.Join(errs...)
}

func (f *Follower) addResume() {
	f.mu.Lock()
	f.stats.Resumes++
	f.mu.Unlock()
}

// get fetches one /journal/stream reply and reads at most limit bytes of
// its body: a primary that sends more, or never stops, costs the follower
// limit bytes. A body cut short returns the bytes read with the error.
func (f *Follower) get(query string, limit int) ([]byte, error) {
	resp, err := f.client.Get(f.base + "/journal/stream" + query)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // read-only reply
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: %s%s: %s (%s)", f.base, query, resp.Status, body)
	}
	return io.ReadAll(io.LimitReader(resp.Body, int64(limit)))
}

func (f *Follower) fetchManifest() (journal.TailManifest, error) {
	body, err := f.get("", streamMaxResponse)
	if err != nil {
		return journal.TailManifest{}, err
	}
	var m journal.TailManifest
	if err := json.Unmarshal(body, &m); err != nil {
		return journal.TailManifest{}, fmt.Errorf("cluster: decoding manifest: %w", err)
	}
	return m, nil
}

// copySnapshot fetches one immutable snapshot and installs it atomically
// (tmp + rename) once it passes journal.DecodeSnapshot; a snapshot that
// fails is not installed, so the next round fetches it again.
func (f *Follower) copySnapshot(seq uint64) (int64, error) {
	raw, err := f.get("?snap="+fmt.Sprint(seq), journal.MaxSnapshotBytes)
	if err != nil {
		return 0, err
	}
	if _, err := journal.DecodeSnapshot(raw); err != nil {
		return 0, err
	}
	name := filepath.Join(f.dir, journal.SnapshotFileName(seq))
	tmp := name + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, name); err != nil {
		return 0, err
	}
	return int64(len(raw)), nil
}

// tailSegment extends the local copy of segment seq from offset off until
// the primary reports no more bytes, writing only the whole records that
// pass journal.ScanSegment. Bytes that end inside a record are carried into
// the next request, which asks for what follows them, so a record larger
// than one reply still arrives whole; a corrupt record stops the copy with
// the checked prefix in place.
func (f *Follower) tailSegment(seq uint64, off int64) (int64, error) {
	var file *os.File
	var copied int64
	var carry []byte // bytes from off on that end inside a record
	defer func() {
		if file != nil {
			if err := file.Sync(); err != nil {
				log.Printf("cluster: syncing segment mirror %d: %v", seq, err)
			}
			_ = file.Close() // fsync above is the durability point
		}
	}()
	for {
		body, readErr := f.get(fmt.Sprintf("?seg=%d&off=%d", seq, off+int64(len(carry))), streamMaxResponse)
		if len(body) == 0 {
			if readErr == nil && len(carry) > 0 {
				readErr = fmt.Errorf("cluster: segment %d at %d: %d bytes of an incomplete record", seq, off, len(carry))
			}
			return copied, readErr // nil: caught up
		}
		data := append(carry, body...)
		recs, n, scanErr := journal.ScanSegment(data, off)
		if n > 0 {
			if file == nil {
				var err error
				file, err = os.OpenFile(filepath.Join(f.dir, journal.SegmentFileName(seq)), os.O_CREATE|os.O_WRONLY, 0o644)
				if err != nil {
					return copied, err
				}
			}
			if _, err := file.WriteAt(data[:n], off); err != nil {
				return copied, err
			}
			off += int64(n)
			copied += int64(n)
			f.mu.Lock()
			f.stats.Records += int64(len(recs))
			f.mu.Unlock()
		}
		if scanErr != nil && !errors.Is(scanErr, journal.ErrTorn) {
			return copied, fmt.Errorf("cluster: segment %d at %d: %w", seq, off, scanErr)
		}
		if readErr != nil {
			// The connection dropped; resume next round rather than
			// hammering a failing primary.
			return copied, readErr
		}
		carry = data[n:]
	}
}

// mirrorDeletions removes local files the primary's compaction deleted,
// so the mirror's Open sees the same segment horizon as the primary's.
func (f *Follower) mirrorDeletions(remote, local journal.TailManifest) {
	remoteSeg := make(map[uint64]bool, len(remote.Segments))
	for _, s := range remote.Segments {
		remoteSeg[s.Seq] = true
	}
	remoteSnap := make(map[uint64]bool, len(remote.Snapshots))
	for _, s := range remote.Snapshots {
		remoteSnap[s.Seq] = true
	}
	for _, s := range local.Segments {
		if !remoteSeg[s.Seq] {
			_ = os.Remove(filepath.Join(f.dir, journal.SegmentFileName(s.Seq))) // best-effort mirror
		}
	}
	for _, s := range local.Snapshots {
		if !remoteSnap[s.Seq] {
			_ = os.Remove(filepath.Join(f.dir, journal.SnapshotFileName(s.Seq))) // best-effort mirror
		}
	}
}

// parseURL validates a base URL early so a misconfigured follower fails
// at construction, not on its first poll.
func parseURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return err
	}
	if u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("cluster: base URL %q needs scheme and host", s)
	}
	return nil
}
