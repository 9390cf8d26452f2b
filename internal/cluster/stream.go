package cluster

// Follower: the standby half of journal-streaming replication. It tails a
// primary's /journal/stream endpoint, mirroring WAL segments and
// snapshots byte-for-byte into a local directory; promotion opens that
// directory with journal.Open exactly like a crash restart, so the
// torn-tail machinery absorbs whatever suffix had not yet streamed. The
// loss bound is the replication lag: with the primary fsyncing in group
// commits and the follower polling continuously, a promotion loses at
// most the un-streamed tail — about one group-commit batch.

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"

	"ftdag/internal/journal"
)

// FollowerStats counts a follower's replication activity.
type FollowerStats struct {
	// Rounds is the number of completed Sync calls.
	Rounds int64 `json:"rounds"`
	// Bytes is the total payload bytes applied to the mirror.
	Bytes int64 `json:"bytes"`
	// Frames is the number of CRC-validated stream frames applied.
	Frames int64 `json:"frames"`
	// Resumes counts interrupted transfers — a torn or corrupt frame, a
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
// client may be nil for http.DefaultClient.
func NewFollower(baseURL, dir string, client *http.Client) (*Follower, error) {
	if err := parseURL(baseURL); err != nil {
		return nil, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
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
// compacted away. Returns the payload bytes applied. A torn or corrupt
// frame ends the affected segment's copy for this round — already-applied
// frames are kept, and the next round resumes from the durable offset.
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
	for _, s := range remote.Snapshots {
		if localSnap[s.Seq] {
			continue // snapshots are immutable once written
		}
		n, err := f.copySnapshot(s.Seq)
		if err != nil {
			f.addResume()
			log.Printf("cluster: follower snapshot %d: %v", s.Seq, err)
			continue
		}
		copied += n
	}
	for _, s := range remote.Segments {
		n, err := f.tailSegment(s.Seq, localSeg[s.Seq])
		copied += n
		if err != nil {
			f.addResume()
			log.Printf("cluster: follower segment %d: %v", s.Seq, err)
		}
	}
	f.mirrorDeletions(remote, local)

	f.mu.Lock()
	f.stats.Rounds++
	f.stats.Bytes += copied
	f.mu.Unlock()
	return copied, nil
}

func (f *Follower) addResume() {
	f.mu.Lock()
	f.stats.Resumes++
	f.mu.Unlock()
}

func (f *Follower) get(query string) (*http.Response, error) {
	resp, err := f.client.Get(f.base + "/journal/stream" + query)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		_ = resp.Body.Close() // error body already consumed
		return nil, fmt.Errorf("cluster: %s%s: %s (%s)", f.base, query, resp.Status, body)
	}
	return resp, nil
}

func (f *Follower) fetchManifest() (journal.TailManifest, error) {
	resp, err := f.get("")
	if err != nil {
		return journal.TailManifest{}, err
	}
	defer func() { _ = resp.Body.Close() }() // fully read below
	var m journal.TailManifest
	if err := decodeJSON(resp.Body, &m); err != nil {
		return journal.TailManifest{}, fmt.Errorf("cluster: decoding manifest: %w", err)
	}
	return m, nil
}

// copySnapshot fetches one immutable snapshot atomically (tmp + rename).
// The snapshot's own magic/CRC frame is validated by Open at promotion.
func (f *Follower) copySnapshot(seq uint64) (int64, error) {
	resp, err := f.get("?snap=" + fmt.Sprint(seq))
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }() // drained by ReadAll
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
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

// tailSegment extends the local copy of segment seq from offset off,
// fetching framed chunks until the primary reports no more bytes. Frames
// must be contiguous from the requested offset; any CRC failure, torn
// frame, or offset gap stops the copy with the durable prefix intact.
func (f *Follower) tailSegment(seq uint64, off int64) (int64, error) {
	var file *os.File
	var copied int64
	defer func() {
		if file != nil {
			if err := file.Sync(); err != nil {
				log.Printf("cluster: syncing segment mirror %d: %v", seq, err)
			}
			_ = file.Close() // fsync above is the durability point
		}
	}()
	for {
		resp, err := f.get(fmt.Sprintf("?seg=%d&off=%d", seq, off))
		if err != nil {
			return copied, err
		}
		body, readErr := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // ReadAll consumed it (or failed; either way done)
		if len(body) == 0 {
			if readErr != nil {
				return copied, readErr
			}
			return copied, nil // caught up
		}
		if file == nil {
			file, err = os.OpenFile(filepath.Join(f.dir, journal.SegmentFileName(seq)), os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				return copied, err
			}
		}
		// Decode every complete frame in the response; a torn tail (from a
		// dropped connection) or a corrupt frame stops the segment here and
		// the next round resumes from the offset reached so far.
		for len(body) > 0 {
			c, n, err := journal.DecodeStreamFrame(body)
			if err != nil {
				return copied, fmt.Errorf("cluster: segment %d at %d: %w", seq, off, err)
			}
			if c.Seq != seq || c.Off != off {
				return copied, fmt.Errorf("cluster: segment %d at %d: frame addressed %d@%d", seq, off, c.Seq, c.Off)
			}
			if _, err := file.WriteAt(c.Data, c.Off); err != nil {
				return copied, err
			}
			off += int64(len(c.Data))
			copied += int64(len(c.Data))
			body = body[n:]
			f.mu.Lock()
			f.stats.Frames++
			f.mu.Unlock()
		}
		if readErr != nil {
			// The connection dropped after a clean frame boundary; resume
			// next round rather than hammering a failing primary.
			return copied, readErr
		}
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
