// Package cmap provides the concurrent key tables of the schedulers.
//
// The executors keep tables keyed by task key — the task table (key → current
// task descriptor) and the recovery table R (key → most recent life whose
// recovery has been initiated) — the block store keeps its slot table keyed
// by block ID, and graph.Static keeps its nodes by task key. All need an
// atomic insert-if-absent (the paper's INSERTTASKIFABSENT / INSERTRECORD)
// that constructs the value only when the insert actually happens.
//
// Table is what they use. NABBIT keys are arbitrary int64s, which is why the
// paper calls for a concurrent hash map; but every graph this repository runs
// numbers its tasks and blocks densely from 0, and for such keys hashing is
// pure cost: it scatters neighbouring keys on purpose, so every first touch of
// a task is a cache miss per table, behind a shared lock word. Table therefore
// direct-indexes the keys in [0, TableCap) — a lookup is an array index, with
// no lock and no read-modify-write — and sends every other key (negative, or
// TableCap and above) to a Map. The key alone selects the path, so a graph
// with arbitrary keys runs unchanged, only slower.
//
// Map is the sharded (lock-striped) hash map behind those other keys.
package cmap

import (
	"sync"
)

// shardCount is the number of lock stripes. A modest power of two keeps the
// map cheap at low core counts while still avoiding contention collapse when
// many workers hammer the task table during graph expansion.
const shardCount = 64

type shard[V any] struct {
	mu sync.RWMutex
	m  map[int64]V
}

// Map is a concurrent hash map from int64 task keys to values of type V.
// The zero value is not usable; call New.
type Map[V any] struct {
	shards [shardCount]shard[V]
}

// New returns an empty map.
func New[V any]() *Map[V] {
	m := &Map[V]{}
	for i := range m.shards {
		m.shards[i].m = make(map[int64]V)
	}
	return m
}

func (m *Map[V]) shard(key int64) *shard[V] {
	// Fibonacci hashing spreads sequential task keys (common: row-major
	// tile indices) across shards.
	h := uint64(key) * 0x9E3779B97F4A7C15
	return &m.shards[h>>(64-6)]
}

// Load returns the value stored for key, if any.
func (m *Map[V]) Load(key int64) (V, bool) {
	s := m.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// LoadOrStore returns the existing value for key if present. Otherwise it
// stores the value returned by mk and returns it. mk is invoked at most
// once, under the shard lock, and only when the key is absent — this is the
// paper's atomic INSERTTASKIFABSENT. inserted reports whether mk's value was
// stored. A key that is present — every later traversal of an already
// discovered task — is served under the read lock, so hitters share the
// stripe; only a miss takes the write lock, and looks again under it because
// another inserter may have won in between.
func (m *Map[V]) LoadOrStore(key int64, mk func() V) (v V, inserted bool) {
	s := m.shard(key)
	s.mu.RLock()
	old, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return old, false
	}
	s.mu.Lock()
	if old, ok := s.m[key]; ok {
		s.mu.Unlock()
		return old, false
	}
	v = mk()
	s.m[key] = v
	s.mu.Unlock()
	return v, true
}

// Update atomically applies f to the current value for key (zero value of V
// if absent) and stores the result. It returns the stored value.
func (m *Map[V]) Update(key int64, f func(old V, ok bool) V) V {
	s := m.shard(key)
	s.mu.Lock()
	old, ok := s.m[key]
	v := f(old, ok)
	s.m[key] = v
	s.mu.Unlock()
	return v
}

// Len returns the total number of entries. It locks each shard in turn, so
// the result is a consistent per-shard snapshot, not a global one.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls f for every entry until f returns false. Entries inserted or
// removed concurrently may or may not be visited.
func (m *Map[V]) Range(f func(key int64, v V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !f(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
