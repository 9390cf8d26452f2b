package cluster

// Follower: the standby half of journal-streaming replication. It fetches a
// primary's /journal/stream replies into a journal.Mirror, the file side
// (internal/journal/tail.go). The loss bound is the replication lag: with
// the primary fsyncing in group commits and the follower polling
// continuously, a promotion loses at most the un-streamed tail — about one
// group-commit batch.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
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
	mirror *journal.Mirror
	client *http.Client

	mu    sync.Mutex
	stats FollowerStats
}

// NewFollower tails the primary at baseURL into dir (created if absent).
// A nil client gets the router's default, one with a 10 s timeout. The
// mirror's segments are first cut back to their whole records
// (journal.OpenMirror).
func NewFollower(baseURL, dir string, client *http.Client) (*Follower, error) {
	if err := parseURL(baseURL); err != nil {
		return nil, err
	}
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	m, err := journal.OpenMirror(dir, journal.OS)
	if err != nil {
		return nil, err
	}
	return &Follower{base: baseURL, dir: dir, mirror: m, client: client}, nil
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
// manifest's point-in-time sizes), and, once every snapshot is installed,
// delete local files the primary has compacted away. Returns the bytes
// applied. A snapshot that fails its check is not installed, and a corrupt
// record ends the affected segment's copy for this round — the records
// before it are kept — so the next round fetches both again from what the
// mirror holds. Either failure, or a failed fsync, is in the error
// returned, joined with the others of the round: a nil error means the
// mirror holds every record the manifest listed, fsynced, in segments whose
// names are durable.
func (f *Follower) Sync() (int64, error) {
	remote, err := f.fetchManifest()
	if err != nil {
		return 0, err
	}
	local, err := f.mirror.Manifest()
	if err != nil {
		return 0, err
	}
	localSeg := make(map[uint64]int64, len(local.Segments))
	for _, s := range local.Segments {
		localSeg[s.Seq] = s.Size
	}

	var copied int64
	var errs []error
	for _, s := range remote.Snapshots {
		if slices.Contains(local.Snapshots, s) {
			continue // snapshots are immutable once written
		}
		// The mirror checks a snapshot before it installs it, so one that
		// fails is fetched again next round.
		raw, err := f.get("?snap="+fmt.Sprint(s.Seq), journal.MaxSnapshotBytes)
		if err == nil {
			err = f.mirror.InstallSnapshot(s.Seq, raw)
		}
		if err != nil {
			f.addResume()
			errs = append(errs, fmt.Errorf("cluster: follower snapshot %d: %w", s.Seq, err))
			continue
		}
		copied += int64(len(raw))
	}
	if len(errs) == 0 {
		// The snapshots cover the segments the primary compacted away.
		f.mirror.Prune(remote)
	}
	for _, s := range remote.Segments {
		n, err := f.tailSegment(s.Seq, localSeg[s.Seq])
		copied += n
		if err != nil {
			f.addResume()
			errs = append(errs, fmt.Errorf("cluster: follower segment %d: %w", s.Seq, err))
		}
	}
	// This round's bytes and any a failed fsync of an earlier round left.
	if err := f.mirror.Sync(); err != nil {
		errs = append(errs, fmt.Errorf("cluster: follower: %w", err))
	}

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

// tailSegment extends the local copy of segment seq from offset off until
// the primary reports no more bytes, writing only the whole records that
// pass journal.ScanSegment. Bytes that end inside a record are carried into
// the next request, which asks for what follows them, so a record larger
// than one reply still arrives whole; a corrupt record stops the copy with
// the checked prefix in place. The caller fsyncs the copy (Mirror.Sync).
func (f *Follower) tailSegment(seq uint64, off int64) (copied int64, _ error) {
	var carry []byte // bytes from off on that end inside a record
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
			if err := f.mirror.AppendSegment(seq, off, data[:n]); err != nil {
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
