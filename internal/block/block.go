// Package block implements the versioned data-block store used by the task
// graph applications.
//
// In the paper's model (§II), each task is synonymous with the definitions
// of the data blocks it produces. Data blocks may be updated: as long as the
// dependences ensure that all uses of version v of a block causally precede
// the definition of version v+1, the runtime may reuse the memory of v to
// store v+1. This reuse is exactly what makes recovery interesting: after a
// fault, a consumer may need a version that has already been overwritten, in
// which case the producer of that version is re-executed (treated as if it
// failed), cascading backwards as needed (§IV, §VI).
//
// The store models reuse with a per-block retention ring: a block retains
// the K most recently *written* versions ("most recently written", not
// "highest version number", because a recovery that rewrites version v into
// a K=1 slot physically evicts v+1, which is what forces the paper's
// re-execution chain). K=1 is the memory-reuse configuration, K=2 is the
// two-versions-per-block configuration the paper uses for Floyd-Warshall,
// and K=0 means unlimited retention (single-assignment).
//
// The store owns its memory. Slot.Write adopts the buffer it is given — the
// writer passes its ownership, as graph.Context.Write does for a kernel's
// output — and Store.Write is the copying convenience for a caller that keeps
// its slice. Read copies the version out into a buffer private to the reader,
// so the store never hands out its own: the injector may flip stored bits in
// place and a recovery may overwrite a version while earlier readers still
// compute on what they read. A version's buffer lives until the version is
// evicted or replaced, or until the run ends and its executor calls
// Store.Release; then it goes to the free list, from which the next Read and
// kernel output — of this run or the next — are taken: the physical form of
// "reuse the memory of v to store v+1". The free list is one process-wide,
// size-keyed shared list (Alloc/Free) behind one lock, and in front of it a
// Cache per executor worker, which takes and gives back buffers without the
// lock and trades them with the shared list in batches; a run's caches hand
// everything back when it ends. Every payload crosses memory once on its way
// in and once on its way out: a write hashes the buffer it adopts, and a
// verified read hashes the words as it copies them.
//
// A reader that needs only part of a payload — a tile's last row, last
// column and last cell — names the words as strided runs and calls ReadAt,
// which copies just those. On a verifying store a write also records the
// digest of every segment (segWords) the checksum is combined from, and
// ReadAt re-hashes only the segments that hold a word it returns, each
// against its own digest: what was checked is still what is returned. So
// what a verified read costs is set by where its words lie, not by how many
// there are: a tile's last column, b words b apart, lies in every segment of
// the tile. LCS and SW therefore append a copy of it to their
// tiles, and their readers read the copy, one segment at the tail.
//
// A block is reached through its Slot. An executor resolves the Slot of a
// task's output once, when it creates the task's descriptor, and reads and
// writes through the handle from then on; Store.Read and Store.Write are the
// same calls behind one lookup.
package block

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"ftdag/internal/cmap"
)

// ID identifies a logical data block (e.g. one tile of a matrix).
type ID int64

// Ref names one version of one block.
type Ref struct {
	Block   ID
	Version int
}

func (r Ref) String() string { return fmt.Sprintf("block %d v%d", r.Block, r.Version) }

// Sentinel error categories. Callers use errors.Is; the concrete error
// carries the Ref involved.
var (
	// ErrNotRetained reports that the requested version has been evicted
	// (overwritten by a later version) or never written.
	ErrNotRetained = errors.New("block version not retained")
	// ErrCorrupted reports that the version is present but its contents
	// are poisoned (fault-injected) or fail checksum verification.
	ErrCorrupted = errors.New("block version corrupted")
	// ErrChecksum is the ErrCorrupted of a version whose contents fail
	// checksum verification: errors.Is finds both in it, and only ErrCorrupted
	// in a read of a poisoned version.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupted)
)

// AccessError is the concrete error returned by Read; it records which
// reference failed so the executor can attribute the failure to the
// producing task — with ErrCorrupted or ErrChecksum, to the incarnation Life
// that wrote the version read, not to whichever runs now.
type AccessError struct {
	Ref  Ref
	Life int
	Err  error // ErrNotRetained, ErrCorrupted or ErrChecksum
}

func (e *AccessError) Error() string { return fmt.Sprintf("%v: %v", e.Ref, e.Err) }
func (e *AccessError) Unwrap() error { return e.Err }

// entry is one retained version. Every field is guarded by the slot lock;
// data is the buffer its writer handed over, which nobody else holds.
type entry struct {
	version  int
	producer int64 // task key that produced this version
	data     []float64
	checksum uint64
	// snaps is the first of the snapCount(len(data)) segment digests of
	// checksum (checksumSnaps) on a verifying store, nil elsewhere. One
	// pointer rather than a slice keeps the Slot in its 112-byte size class.
	snaps     *uint64
	corrupted bool
	life      int32 // the producer's incarnation that wrote this version
}

// snapshots returns the entry's segment digests, one per segment.
func (e *entry) snapshots() []uint64 {
	if e.snaps == nil {
		return nil
	}
	return unsafe.Slice(e.snaps, snapCount(len(e.data)))
}

// Slot is the handle of one block: its retention ring under its own lock.
// Store.Slot returns it; it stays valid for the life of the store.
type Slot struct {
	store *Store
	id    ID
	mu    sync.Mutex
	// entries are ordered oldest-written first; len <= retention when
	// retention > 0. The ring starts out in first, so a block that never
	// retains more than one version — every block of a K=1 store and every
	// single-assignment block — costs the Slot and nothing else.
	entries []entry
	first   [1]entry
}

// Stats counts store activity for the experiment harness. The store keeps
// none of the access counts itself: Write's evicted and Read's error say what
// happened, and the caller — an executor, which knows the worker it runs on —
// counts where no other worker does (core.Result.Store). CorruptReads counts
// every ErrCorrupted read, ChecksumFailures the ErrChecksum ones among them.
// BytesRetained is Store.BytesRetained.
type Stats struct {
	Writes           int64
	Reads            int64
	Evictions        int64
	CorruptReads     int64
	ChecksumFailures int64
	MissingReads     int64
	BytesRetained    int64 // high-water mark of retained float64 payload bytes
}

// Add adds b's access counts to st. BytesRetained, a peak, is not a sum and
// is left as it is.
func (st *Stats) Add(b Stats) {
	st.Writes += b.Writes
	st.Reads += b.Reads
	st.Evictions += b.Evictions
	st.CorruptReads += b.CorruptReads
	st.ChecksumFailures += b.ChecksumFailures
	st.MissingReads += b.MissingReads
}

// Store is a concurrent versioned block store.
type Store struct {
	retention int // K; 0 = unlimited
	verify    bool
	// pooled is set by the first write of a payload the free list takes
	// (PoolMin float64s or more): until then Release has nothing to hand back
	// and visits no slot.
	pooled atomic.Bool
	slots  cmap.Table[Slot]

	// The retained payload and its high-water mark are a peak of a sum over
	// all blocks, which per-block counts cannot give; they stay global.
	retainedF64  atomic.Int64
	highWaterF64 atomic.Int64
}

// Option configures a Store.
type Option func(*Store)

// WithVerification enables checksum verification on every read, in addition
// to the poisoned-flag check: the reader's private copy is hashed as it is
// made and compared with the checksum stored at Write.
// core.Config.VerifyChecksums turns it on; the paper's detection model only
// needs the flag, so the FT executor runs without it unless asked (bench/
// asks for its FT variants).
func WithVerification() Option { return func(s *Store) { s.verify = true } }

// NewStore returns a store retaining the given number of most recently
// written versions per block (0 = unlimited, the single-assignment model).
func NewStore(retention int, opts ...Option) *Store {
	if retention < 0 {
		panic("block: retention must be >= 0")
	}
	s := &Store{retention: retention}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Slot returns the handle of block b, creating the (empty) block on first
// use. Every later call for b is a lock-free hit on the slot table.
func (s *Store) Slot(b ID) *Slot {
	sl, _ := s.slots.LoadOrStore(int64(b), func() *Slot {
		sl := &Slot{store: s, id: b}
		sl.entries = sl.first[:0]
		return sl
	})
	return sl
}

// Write is Slot(b).Write of a copy of data, by producer's first incarnation:
// the caller keeps its slice.
func (s *Store) Write(b ID, version int, producer int64, data []float64) (sum uint64, victim int64, evicted bool) {
	return s.Slot(b).Write(version, producer, 0, clone(data, nil, nil), nil)
}

// Write stores data as the given version of the block, produced by incarnation
// life of task producer. The store adopts the buffer: it keeps data itself,
// which the caller must not touch afterwards, and hands it to the free list
// when the version is evicted or replaced. It returns the checksum stored with
// the version, Checksum(data), taken while the writer's output is still in
// cache, and — when the write pushed the oldest-written version out of a full
// retention ring — that version's producer task key, which the executor marks
// overwritten (paper §IV: "Our algorithm tracks such overwrites"). Rewriting a
// version that is still retained replaces it in place (this is how recovery
// repairs a corrupted version) and evicts nothing. The buffer of an evicted or
// replaced version goes back to the free list, through c — the writer's
// worker's Cache, nil for the shared list — unless it is data's own, which
// a second Write of one slice displaces; its ring entry is reused, so a
// store in steady state writes without allocating. On a verifying store a
// payload longer than one segment also keeps the segment digests ReadAt
// verifies by; they are the ones the checksum is combined from.
func (sl *Slot) Write(version int, producer int64, life int, data []float64, c *Cache) (sum uint64, victim int64, evicted bool) {
	if k := snapCount(len(data)); k > 0 && sl.store.verify {
		return sl.writeSnaps(version, producer, life, data, k, c)
	}
	return sl.put(version, producer, life, data, Checksum(data), nil, nil, c)
}

// writeSnaps is Write of a payload of k segments on a verifying store. A
// single-assignment store, which displaces an entry only on a rewrite, and a
// payload of more than stackSegs segments hash into an array the version
// keeps; any other write records on its stack, and put moves the record into
// the array of the entry the write displaces.
func (sl *Slot) writeSnaps(version int, producer int64, life int, data []float64, k int, c *Cache) (uint64, int64, bool) {
	if sl.store.retention == 0 || k > stackSegs {
		kept := make([]uint64, k)
		return sl.put(version, producer, life, data, checksumSnaps(data, kept), &kept[0], nil, c)
	}
	var rec [stackSegs]uint64
	return sl.put(version, producer, life, data, checksumSnaps(data, rec[:k]), nil, rec[:k], c)
}

// put stores data, whose checksum is sum, as the given version (Write). Its
// segment digests are kept, an array the version keeps, or rec, which put
// copies into the array of the entry the write displaces when that holds as
// many — every write of a store in steady state — and into a new one when not.
// The displaced buffer goes to c.
func (sl *Slot) put(version int, producer int64, life int, data []float64, sum uint64, kept *uint64, rec []uint64, c *Cache) (_ uint64, victim int64, evicted bool) {
	s := sl.store
	sl.mu.Lock()
	// Whichever entry the write displaces moves out of the ring, the rest
	// shift down, and the new version takes the most-recently-written
	// position, mirroring a physical buffer write.
	var old entry
	switch i := sl.index(version); {
	case i >= 0:
		old = sl.entries[i]
		copy(sl.entries[i:], sl.entries[i+1:])
	case s.retention > 0 && len(sl.entries) == s.retention:
		old = sl.entries[0]
		victim, evicted = old.producer, true
		copy(sl.entries, sl.entries[1:])
	default:
		sl.entries = append(sl.entries, entry{})
	}
	if len(rec) > 0 {
		if kept = old.snaps; kept == nil || snapCount(len(old.data)) < len(rec) {
			kept = &make([]uint64, len(rec))[0]
		}
		copy(unsafe.Slice(kept, len(rec)), rec)
	}
	sl.entries[len(sl.entries)-1] = entry{version: version, producer: producer, data: data, checksum: sum, snaps: kept, life: int32(life)}
	sl.mu.Unlock()
	if len(data) >= PoolMin && !s.pooled.Load() {
		s.pooled.Store(true)
	}
	// The free list and the store's shared line are taken with the slot
	// lock dropped: the displaced buffer is out of the ring, and the
	// high-water mark is the peak of the sum in the order the deltas reach
	// it, which no slot's lock ever fixed between blocks.
	if !sameStart(old.data, data) {
		c.Free(old.data)
	}
	// Applied as one net delta so the high-water mark models physical
	// buffer reuse rather than transiently double-counting the displaced
	// payload. A version that replaces one of its own size — every write of a
	// store in steady state — moves neither number.
	s.addRetained(int64(len(data) - len(old.data)))
	return sum, victim, evicted
}

func (s *Store) addRetained(delta int64) {
	if delta == 0 {
		return
	}
	n := s.retainedF64.Add(delta)
	for {
		hw := s.highWaterF64.Load()
		if n <= hw || s.highWaterF64.CompareAndSwap(hw, n) {
			return
		}
	}
}

// index returns the position of the given version in the ring, or -1. The
// caller holds the slot lock.
func (sl *Slot) index(version int) int {
	for i := range sl.entries {
		if sl.entries[i].version == version {
			return i
		}
	}
	return -1
}

// find returns the retained entry of the given version, or nil. The pointer
// is valid while the caller holds the slot lock.
func (sl *Slot) find(version int) *entry {
	if i := sl.index(version); i >= 0 {
		return &sl.entries[i]
	}
	return nil
}

// Read is Slot(b).Read with no arena, off the shared list.
func (s *Store) Read(b ID, version int) ([]float64, error) {
	return s.Slot(b).Read(version, nil, nil)
}

// Read returns a private copy of the given block version: the slice belongs
// to the caller and stays valid whatever happens to the store afterwards. A
// copy of PoolMin float64s or more — and any copy when a is nil — is taken
// through c, the reader's worker's Cache (nil: the shared list), and may be
// handed to Free or c.Free when the caller is done with it; a smaller one is
// taken from a when a is not nil, and lives until a.Reset. A missing (evicted or
// never-written) version yields ErrNotRetained, a poisoned one ErrCorrupted
// and a checksum-failing one ErrChecksum. Each is wrapped in an *AccessError
// carrying the Ref. The copy is taken under the slot lock; a verifying store hashes
// each word as it stores it into the copy, in the same pass, so what was
// checked is what is returned.
func (sl *Slot) Read(version int, a *Arena, c *Cache) ([]float64, error) {
	s := sl.store
	sl.mu.Lock()
	e := sl.find(version)
	if e == nil {
		sl.mu.Unlock()
		return nil, &AccessError{Ref: Ref{sl.id, version}, Err: ErrNotRetained}
	}
	if e.corrupted {
		life := int(e.life)
		sl.mu.Unlock()
		return nil, &AccessError{Ref: Ref{sl.id, version}, Life: life, Err: ErrCorrupted}
	}
	if !s.verify {
		out := clone(e.data, a, c)
		sl.mu.Unlock()
		return out, nil
	}
	out := reuse(len(e.data), a, c)
	if out == nil {
		out = make([]float64, len(e.data))
	}
	sum := copySum(out, e.data)
	want, life := e.checksum, e.life
	sl.mu.Unlock()
	if sum != want {
		c.Free(out)
		return nil, &AccessError{Ref: Ref{sl.id, version}, Life: int(life), Err: ErrChecksum}
	}
	return out, nil
}

// Run names N words of a payload, Stride apart from word Off: Off,
// Off+Stride, …, Off+(N-1)·Stride. Stride must be positive when N > 1. A
// tile's last row of b words is {(b-1)·b, 1, b}, its last column {b-1, b, b},
// and a copy of that column appended to the tile's b·b words {b·b, 1, b}.
type Run struct{ Off, Stride, N int }

// Words returns how many words the runs name.
func Words(runs ...Run) int {
	n := 0
	for _, r := range runs {
		n += r.N
	}
	return n
}

// Gather copies the words the runs name from src into dst, run after run.
// dst must hold Words(runs...) words.
func Gather(dst, src []float64, runs ...Run) {
	for _, r := range runs {
		if r.Stride == 1 || r.N == 1 {
			copy(dst[:r.N], src[r.Off:r.Off+r.N])
		} else {
			for i, w := 0, r.Off; i < r.N; i, w = i+1, w+r.Stride {
				dst[i] = src[w]
			}
		}
		dst = dst[r.N:]
	}
}

// fits reports whether every run lies inside a payload of n words, with a
// positive stride where it names more than one, and dst holds what they name.
func fits(runs []Run, n, dst int) bool {
	for _, r := range runs {
		switch {
		case r.N < 0, r.N > 0 && (r.Off < 0 || r.Off >= n), r.N > 1 && (r.Stride < 1 || r.Off+(r.N-1)*r.Stride >= n):
			return false
		}
	}
	return Words(runs...) <= dst
}

// ReadAt copies the words of the given block version that the runs name into
// dst, run after run — Slot.Read of just those words, with its errors, under
// one acquisition of the slot lock. The poisoned flag is checked before
// anything is copied. A verifying store then re-hashes every segment that
// holds a word the runs name and compares its digest with the one recorded
// at Write (a payload of one segment: its checksum with the version's); any
// difference is ErrChecksum and leaves dst unchanged. So what was checked is
// what is returned, and the single-word argument of Checksum holds segment by
// segment. A run outside the payload, or a dst too short for the runs,
// panics.
func (sl *Slot) ReadAt(version int, dst []float64, runs ...Run) error {
	s := sl.store
	sl.mu.Lock()
	e := sl.find(version)
	if e == nil {
		sl.mu.Unlock()
		return &AccessError{Ref: Ref{sl.id, version}, Err: ErrNotRetained}
	}
	if e.corrupted {
		life := int(e.life)
		sl.mu.Unlock()
		return &AccessError{Ref: Ref{sl.id, version}, Life: life, Err: ErrCorrupted}
	}
	if n := len(e.data); !fits(runs, n, len(dst)) {
		sl.mu.Unlock()
		panic(fmt.Sprintf("block: ReadAt of %v: runs %v do not fit a %d-word payload and a %d-word dst", Ref{sl.id, version}, runs, n, len(dst)))
	}
	ok := !s.verify || e.verify(runs)
	if ok {
		Gather(dst, e.data, runs...)
	}
	life := e.life
	sl.mu.Unlock()
	if !ok {
		return &AccessError{Ref: Ref{sl.id, version}, Life: int(life), Err: ErrChecksum}
	}
	return nil
}

// verify reports whether every segment holding a word the runs name still
// has the digest recorded at Write — a payload of one segment, the checksum.
// The caller holds the slot lock and has checked that the runs fit.
func (e *entry) verify(runs []Run) bool {
	n := len(e.data)
	lo, hi := n, -1 // the first and last word named
	for _, r := range runs {
		if r.N > 0 {
			lo, hi = min(lo, r.Off), max(hi, r.Off+(r.N-1)*r.Stride)
		}
	}
	snaps := e.snapshots()
	if snaps == nil {
		return lo > hi || Checksum(e.data) == e.checksum
	}
	var d [1]uint64
	for seg := lo / segWords; seg <= hi/segWords; seg++ {
		from, to := seg*segWords, min(seg*segWords+segWords, n)
		if touches(runs, from, to) && digests(nil, e.data[from:to], d[:])[0] != snaps[seg] {
			return false
		}
	}
	return true
}

// touches reports whether a run names a word in [from, to).
func touches(runs []Run, from, to int) bool {
	for _, r := range runs {
		switch {
		case r.N == 0 || r.Off >= to:
		case r.Off >= from:
			return true
		case r.N > 1:
			// The first word at or past from, if the run gets that far.
			i := (from - r.Off + r.Stride - 1) / r.Stride
			if i < r.N && r.Off+i*r.Stride < to {
				return true
			}
		}
	}
	return false
}

// Corrupt poisons the given version if it is retained and incarnation life
// of its producer wrote it, returning whether it was. Used by the fault
// injector, which names the incarnation it strikes: a version a recovered
// incarnation has rewritten since is left alone. Every subsequent Read
// observes the error (the paper's detection model). The stored payload is
// also scrambled in place so that checksum verification independently
// detects the corruption; slices returned by earlier Reads are copies and do
// not change.
func (s *Store) Corrupt(b ID, version, life int) bool {
	sl := s.Slot(b)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	e := sl.find(version)
	if e == nil || int(e.life) != life {
		return false
	}
	e.corrupted = true
	if len(e.data) > 0 {
		e.data[0] = flipBits(e.data[0])
	}
	return true
}

// CorruptSilently models silent data corruption: it flips bits in the
// stored payload of the given version and then recomputes the stored
// checksum (and segment digests) over the corrupted data, so neither the
// poisoned-flag check nor checksum verification detects it. Later reads
// succeed and return wrong data — the failure mode only replica comparison
// (internal/replica) can catch. It returns the recomputed checksum — the digest of what a consumer
// will now read — and whether the version was retained.
func (s *Store) CorruptSilently(b ID, version int) (sum uint64, ok bool) {
	sl := s.Slot(b)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	e := sl.find(version)
	if e == nil {
		return 0, false
	}
	if len(e.data) > 0 {
		e.data[0] = flipBits(e.data[0])
	}
	e.checksum = checksumSnaps(e.data, e.snapshots())
	return e.checksum, true
}

// BytesRetained returns the high-water mark of retained payload bytes.
func (s *Store) BytesRetained() int64 { return s.highWaterF64.Load() * 8 }

// Release ends the store's hold on its payloads, as an executor does when its
// run ends: every retained version's buffer goes to the shared list, where the
// next run's reads and kernel outputs find it, and every ring is emptied, so a
// later read of any version is ErrNotRetained. The retained-bytes count drops
// by what was released; its high-water mark, BytesRetained, stays. Each slot is
// emptied under its lock, so a Read, ReadAt or Write racing Release — a
// cancelled run's compute still in flight — sees the version or
// ErrNotRetained, and a version written after its slot was emptied stays in
// the ring, for the garbage collector. A store that never held a payload of
// PoolMin float64s or more, which Free would not keep, returns at once and is
// left as it is.
func (s *Store) Release() { s.release() }

// release is Release. It returns the number of slots it visited.
func (s *Store) release() (visited int) {
	if !s.pooled.Load() {
		return 0
	}
	var bufs [][]float64
	var floats int64
	s.slots.Range(func(_ int64, sl *Slot) bool {
		visited++
		sl.mu.Lock()
		for _, e := range sl.entries {
			floats += int64(len(e.data))
			if len(e.data) >= PoolMin {
				bufs = append(bufs, e.data)
			}
		}
		clear(sl.entries) // the ring is reused; do not pin the released buffers
		sl.entries = sl.entries[:0]
		sl.mu.Unlock()
		return true
	})
	s.addRetained(-floats)
	freeAll(bufs)
	return visited
}

func flipBits(f float64) float64 {
	return math.Float64frombits(math.Float64bits(f) ^ 0xDEADBEEFCAFEF00D)
}

// PoolMin is the smallest payload, in float64s, that goes through the free
// list. Below it Alloc is make and Free does nothing: for a one-float
// payload the bookkeeping costs more than the allocation it saves.
const PoolMin = 64

// poolMaxFloats bounds what the shared list may hold (64 MiB); buffers freed
// beyond it are left to the garbage collector.
const poolMaxFloats = 8 << 20

// pool is the shared list: buffers keyed by exact length, most recently freed
// first, behind one lock. Alloc and Free use it directly; a worker's Cache
// exchanges buffers with it in batches. Holding a buffer is always optional —
// whatever is not returned here the garbage collector takes — so only the
// party that took a buffer (or was handed its ownership) may Free it, and at
// most once.
var pool struct {
	mu     sync.Mutex
	bySize map[int][][]float64
	floats int
}

// poisonOnFree is the test switch behind PoisonFreed.
var poisonOnFree atomic.Bool

// PoisonFreed makes Free, Cache.Free and Arena.Reset overwrite every buffer
// with a NaN pattern before listing it, so a use-after-free or double-free
// turns into a wrong digest rather than a silent alias. Tests turn it on in
// TestMain; nothing else should.
func PoisonFreed(on bool) { poisonOnFree.Store(on) }

// poison overwrites buf with the NaN pattern of PoisonFreed.
func poison(buf []float64) {
	nan := math.Float64frombits(0x7FF8DEADDEADDEAD)
	for i := range buf {
		buf[i] = nan
	}
}

// pop takes a buffer of exactly n float64s off the shared list, or returns
// nil when it has none.
func pop(n int) []float64 {
	var one [1][]float64
	popAll(n, one[:])
	return one[0]
}

// popAll moves up to len(dst) buffers of n float64s off the shared list into
// dst, most recently freed first, under one acquisition of its lock, and
// returns how many it moved.
func popAll(n int, dst [][]float64) int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	l := pool.bySize[n]
	k := min(len(dst), len(l))
	if k == 0 {
		return 0
	}
	for i := range k {
		dst[i] = l[len(l)-1-i]
		l[len(l)-1-i] = nil
	}
	pool.bySize[n] = l[:len(l)-k]
	pool.floats -= k * n
	return k
}

// clone returns a copy of src: in a when src is below PoolMin and a is not
// nil, else in a buffer off c or the shared list, or in a fresh one — which
// append, unlike make, does not zero before the copy lands.
func clone(src []float64, a *Arena, c *Cache) []float64 {
	if buf := reuse(len(src), a, c); buf != nil {
		copy(buf, src)
		return buf
	}
	return append([]float64(nil), src...)
}

// reuse returns n float64s taken from a when n is below PoolMin and a is not
// nil, else off c or the shared list, or nil when they have none.
func reuse(n int, a *Arena, c *Cache) []float64 {
	if a != nil && n < PoolMin {
		return a.take(n)
	}
	return c.take(n)
}

// sameStart reports whether a and b are one buffer: both non-empty, starting
// at the same element.
func sameStart(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// arenaChunk is the size of an Arena's chunks in float64s (4 KiB): eight
// reads of the largest payload an arena serves, hundreds of one-float ones.
const arenaChunk = 8 * PoolMin

// Arena is scratch memory for the read copies too small for the free list: a
// fine-grain task reads a few one-float payloads, and an allocation apiece
// costs more than the task. Slot.Read carves such copies out of the arena's
// current chunk; Reset makes the chunk available again, which ends the life
// of every copy taken since the last Reset. The zero value is ready to use.
// An Arena belongs to one goroutine at a time.
type Arena struct {
	chunk []float64
	used  int
}

// take returns n < PoolMin float64s of the current chunk, starting a fresh
// chunk when it is used up (copies in the old one stay valid; the garbage
// collector takes it when they are gone).
func (a *Arena) take(n int) []float64 {
	if a.used+n > len(a.chunk) {
		a.chunk, a.used = make([]float64, arenaChunk), 0
	}
	buf := a.chunk[a.used : a.used+n : a.used+n]
	a.used += n
	return buf
}

// Reset ends the life of every copy taken from the arena. Under PoisonFreed
// they are overwritten like freed buffers.
func (a *Arena) Reset() {
	if poisonOnFree.Load() {
		poison(a.chunk[:a.used])
	}
	a.used = 0
}

// Alloc returns a buffer of n float64s whose contents are unspecified,
// recycled from the shared list when possible, for a kernel that builds the
// output it will pass to graph.Context.Write and writes every word of it. A
// fresh buffer is zero; a recycled one holds whatever its last owner left —
// the NaN pattern under PoisonFreed — and is not cleared again. A compute
// running on an executor's worker reaches that worker's Cache through
// graph.Alloc instead.
func Alloc(n int) []float64 { return (*Cache)(nil).Alloc(n) }

// Free returns a buffer to the shared list. The caller must own it — it came
// from Alloc, Cache.Alloc or Slot.Read, or its ownership was passed to the
// caller, and it was not handed on to Slot.Write since — and must not touch
// it afterwards. Only buf[:len(buf)] is recycled, never spare capacity
// behind it.
func Free(buf []float64) { (*Cache)(nil).Free(buf) }

// freeAll is Free of every buffer in bufs, each of PoolMin float64s or more,
// under one acquisition of the shared list's lock.
func freeAll(bufs [][]float64) {
	if poisonOnFree.Load() {
		for _, buf := range bufs {
			poison(buf)
		}
	}
	pushAll(bufs)
}

// pushAll lists every buffer in bufs, each of PoolMin float64s or more and
// poisoned already if it is to be, under one acquisition of the shared
// list's lock: those that fit under poolMaxFloats.
func pushAll(bufs [][]float64) {
	if len(bufs) == 0 {
		return
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if pool.bySize == nil {
		pool.bySize = make(map[int][][]float64)
	}
	for _, buf := range bufs {
		n := len(buf)
		if pool.floats+n > poolMaxFloats {
			continue
		}
		pool.bySize[n] = append(pool.bySize[n], buf[:n:n])
		pool.floats += n
	}
}

// The size of a Cache: it holds up to cacheDepth buffers and moves
// cacheBatch at a time between itself and the shared list. The depth is the
// knee of a sweep over the apps (EXPERIMENTS.md perf history, row "Per-worker
// free lists and instruments").
const (
	cacheDepth = 16
	cacheBatch = cacheDepth / 2
)

// The states of a Cache.
const (
	cacheIdle   = iota // no call is in it
	cacheBusy          // a call of its worker is in it
	cacheClosed        // released: every call goes to the shared list
)

// Cache is one worker's free list: a bounded LIFO of buffers of one length
// in front of the shared list, which it takes buffers from and hands them to
// in batches of cacheBatch. It holds one length because an executor's worker
// meets one: every app reads, writes and scratches in tiles of one size
// (LCS's and SW's with their exported column appended), and a fine-grain
// graph's payloads are below PoolMin; a buffer of another length empties the
// cache into the shared list and takes its place. The zero value is ready to
// use, and a nil *Cache is the shared list itself.
//
// Its worker takes it with one compare-and-swap that nobody else contends —
// each worker of an executor has its own (the executors keep theirs in their
// per-worker counter blocks) — so an Alloc or a Free touches no line another
// worker writes and waits on no lock; a call that finds the cache taken,
// which only Release or a second worker sharing it can do, goes to the
// shared list instead. Release hands every buffer to the shared list and
// closes the cache, which an executor does when its run ends: the free
// list's bound (poolMaxFloats) and the rule that a run hands its blocks back
// hold as they did before caches.
type Cache struct {
	state atomic.Int32
	n     int // the length of the buffers held
	held  int
	bufs  [cacheDepth][]float64 // most recently freed last
}

// acquire takes the cache for one call of its worker, or reports that the
// call must go to the shared list.
func (c *Cache) acquire() bool { return c != nil && c.state.CompareAndSwap(cacheIdle, cacheBusy) }

// Alloc is block.Alloc from the cache: a buffer of n float64s whose contents
// are unspecified, off the cache or, in a batch, off the shared list, or
// fresh.
func (c *Cache) Alloc(n int) []float64 {
	if buf := c.take(n); buf != nil {
		return buf
	}
	return make([]float64, n)
}

// take returns a buffer of n float64s off the cache or the shared list, or
// nil when neither has one (always, below PoolMin).
func (c *Cache) take(n int) []float64 {
	if n < PoolMin {
		return nil
	}
	if !c.acquire() {
		return pop(n)
	}
	var buf []float64
	if c.n == n && c.held > 0 {
		c.held--
		buf, c.bufs[c.held] = c.bufs[c.held], nil
	} else {
		buf = c.refill(n)
	}
	c.state.Store(cacheIdle)
	return buf
}

// refill is take's miss: a batch of buffers of n float64s off the shared
// list, one to return and the rest for the cache, which gives up what it
// holds of another length to take them. The caller has acquired the cache.
func (c *Cache) refill(n int) []float64 {
	var got [cacheBatch][]float64
	k := popAll(n, got[:])
	if k > 1 {
		c.hold(n)
		c.held = copy(c.bufs[:], got[1:k])
	}
	return got[0]
}

// Free is block.Free into the cache: buf goes on the cache, and when the
// cache already holds cacheDepth buffers, the cacheBatch freed longest ago
// go to the shared list first. The caller's obligations are Free's.
func (c *Cache) Free(buf []float64) {
	n := len(buf)
	if n < PoolMin {
		return
	}
	if poisonOnFree.Load() {
		poison(buf)
	}
	if !c.acquire() {
		pushAll([][]float64{buf})
		return
	}
	c.hold(n)
	if c.held == cacheDepth {
		pushAll(c.bufs[:cacheBatch])
		c.held = copy(c.bufs[:], c.bufs[cacheBatch:])
		clear(c.bufs[c.held:])
	}
	c.bufs[c.held] = buf[:n:n]
	c.held++
	c.state.Store(cacheIdle)
}

// hold makes the cache one of buffers of n float64s, handing what it holds
// of another length to the shared list.
func (c *Cache) hold(n int) {
	if c.n != n {
		c.empty()
		c.n = n
	}
}

// empty hands the cache's buffers to the shared list.
func (c *Cache) empty() {
	pushAll(c.bufs[:c.held])
	clear(c.bufs[:c.held])
	c.held = 0
}

// Release hands every buffer the cache holds to the shared list and closes
// it: every later call goes to the shared list. A call of the worker's that
// is in the cache finishes first. An executor releases its caches when its
// run ends, as it releases its store.
func (c *Cache) Release() {
	for !c.state.CompareAndSwap(cacheIdle, cacheClosed) {
		if c.state.Load() == cacheClosed {
			return
		}
		runtime.Gosched()
	}
	c.empty()
}
