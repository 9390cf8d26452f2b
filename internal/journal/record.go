package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"time"

	"ftdag/internal/core"
)

// Kind is a job lifecycle transition recorded in the journal.
type Kind uint8

const (
	// KindInvalid is the zero value; a decoded record never carries it.
	KindInvalid Kind = iota
	// Submitted: the job was admitted; the record carries everything
	// needed to re-run it (name, opaque spec payload, fault-plan JSON).
	Submitted
	// Started: a runner began executing the job. Purely informational
	// for recovery (a Submitted job without a terminal record is
	// incomplete either way); it preserves start timestamps across
	// restarts and records how far the job got.
	Started
	// Succeeded: the job completed; the record carries the result digest
	// and executor metrics.
	Succeeded
	// Failed: the job ended with a non-cancellation error.
	Failed
	// Cancelled: the job was aborted by the caller or its deadline.
	Cancelled
)

var kindNames = map[Kind]string{
	Submitted: "submitted",
	Started:   "started",
	Succeeded: "succeeded",
	Failed:    "failed",
	Cancelled: "cancelled",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Terminal reports whether the kind ends a job's lifecycle.
func (k Kind) Terminal() bool { return k == Succeeded || k == Failed || k == Cancelled }

// MarshalJSON encodes the kind as its lowercase name.
func (k Kind) MarshalJSON() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("journal: cannot marshal invalid kind %d", uint8(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a kind from its name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for kk, name := range kindNames {
		if name == s {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("journal: unknown record kind %q", s)
}

// Record is one journal entry: a state transition of one job. Only the
// fields relevant to the Kind are populated.
type Record struct {
	Kind Kind      `json:"kind"`
	ID   int64     `json:"id"`
	Time time.Time `json:"time"`

	// Submitted fields.
	Name string `json:"name,omitempty"`
	// Payload is the opaque, serializable description of the job's spec
	// (e.g. the daemon's submission request JSON); service replay hands
	// it to Config.Rebuild to reconstruct a runnable JobSpec.
	Payload []byte `json:"payload,omitempty"`
	// Plan is the job's fault-plan JSON (a *fault.Plan manifest).
	Plan json.RawMessage `json:"plan,omitempty"`
	// Recovery is the job's recovery-policy name ("ftnabbit",
	// "replicate-all", "replicate-selective"; empty means the default) and
	// ReplicaBudget the selective-replication budget, both persisted so a
	// replayed job re-runs under the strategy it was submitted with.
	Recovery      string  `json:"recovery,omitempty"`
	ReplicaBudget float64 `json:"replica_budget,omitempty"`
	// Trace is the job's span context in FT-Trace wire form
	// ("<32 hex trace>-<16 hex span>"), persisted so replay after a crash
	// and failover resubmission continue the original distributed trace
	// instead of starting a new one.
	Trace string `json:"trace,omitempty"`

	// Failed / Cancelled fields.
	Error string `json:"error,omitempty"`

	// Succeeded fields.
	SinkDigest      string        `json:"sink_digest,omitempty"`
	SinkLen         int           `json:"sink_len,omitempty"`
	Elapsed         time.Duration `json:"elapsed_ns,omitempty"`
	Tasks           int           `json:"tasks,omitempty"`
	ReexecutedTasks int64         `json:"reexecuted_tasks,omitempty"`
	Metrics         *core.Metrics `json:"metrics,omitempty"`
}

// Wire format: every segment starts with an 8-byte magic, then records
// framed as [u32 payload length][u32 CRC-32C of payload][payload JSON].
// Detection mirrors the paper's model at process scale: a torn or corrupted
// frame is observed at read time, attributed to its offset, and recovered by
// truncating the tail — never by aborting the whole store.
const (
	segMagic     = "FTJRNL01"
	frameHeader  = 8
	maxFrameSize = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports bytes that end inside a frame (or a segment's magic):
// the frame may yet be completed by bytes that follow.
var ErrTorn = fmt.Errorf("journal: torn frame (short read)")

// Framing errors classified by ScanSegment. Each, like ErrTorn, means "the
// segment is valid up to this record"; they differ only in the log message.
var (
	errFrameCRC     = fmt.Errorf("journal: frame checksum mismatch")
	errFrameTooBig  = fmt.Errorf("journal: frame length exceeds %d bytes", maxFrameSize)
	errFrameDecodes = fmt.Errorf("journal: frame payload does not decode")
)

// encodeFrame appends the framed payload to buf.
func encodeFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(append(buf, hdr[:]...), payload...)
}

// decodeFrame extracts the first framed payload of b. It returns the
// payload, the total frame size consumed, or a framing error when the frame
// is torn (b too short) or corrupted (CRC/length).
func decodeFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < frameHeader {
		return nil, 0, ErrTorn
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	if size > maxFrameSize {
		return nil, 0, errFrameTooBig
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	end := frameHeader + int(size)
	if len(b) < end {
		return nil, 0, ErrTorn
	}
	payload = b[frameHeader:end]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, 0, errFrameCRC
	}
	return payload, end, nil
}

// EncodeRecord serializes a record into its framed wire form.
func EncodeRecord(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return encodeFrame(nil, payload), nil
}

// DecodeRecord parses one record payload (the JSON inside a frame),
// validating the fields replay depends on.
func DecodeRecord(payload []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, err
	}
	if rec.Kind == KindInvalid {
		return nil, fmt.Errorf("journal: record without a kind")
	}
	if rec.ID < 1 {
		return nil, fmt.Errorf("journal: record with invalid job id %d", rec.ID)
	}
	return &rec, nil
}

// Digest summarizes a sink block for cross-incarnation result comparison
// (FNV-1a over the IEEE-754 bits, length included). The empty string is
// reserved for "no digest recorded".
func Digest(sink []float64) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(sink)))
	h.Write(b[:])
	for _, v := range sink {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
