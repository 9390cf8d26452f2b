// Package cluster turns N single-process ftserve backends into one
// fault-tolerant service: a shard router consistent-hashes job keys across
// backends and proxies the HTTP/JSON API; a journal-streaming follower
// tails a primary's write-ahead log so a standby can be promoted with at
// most one un-fsynced group-commit batch of loss; and a drain protocol
// checkpoints a backend's incomplete jobs for resubmission elsewhere.
//
// The package extends the paper's fault model one level up: within a
// process, task-level recovery re-executes lost subgraphs; across
// processes, the same journaled job identity (the canonical submission
// payload) lets any surviving backend re-run a lost shard's incomplete
// jobs, while determinism makes the duplicate execution benign — a job
// re-run on two nodes folds to the same sink digest.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the virtual-node count used when a Ring is built with
// vnodes <= 0. More vnodes smooth the key distribution at the cost of a
// longer sorted array; 64 keeps the imbalance across a handful of
// backends within a few percent.
const DefaultVnodes = 64

// Ring is a consistent-hash ring with virtual nodes. Each member appears
// vnodes times at pseudo-random points (FNV-1a 64 of "name#i"); a key is
// owned by the first virtual node clockwise from the key's own hash.
// Membership changes move only the keys adjacent to the touched member's
// virtual nodes — the property that makes failover re-route one shard,
// not reshuffle the world.
//
// Ring is not goroutine-safe; the Router guards it with its own mutex.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash uint64
	name string
}

// NewRing returns an empty ring; vnodes <= 0 uses DefaultVnodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// Vnodes returns the per-member virtual-node count.
func (r *Ring) Vnodes() int { return r.vnodes }

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // fnv never errors
	x := h.Sum64()
	// Raw FNV-1a gives a trailing byte only one multiply of mixing, so
	// strings differing in a short suffix ("b0#1" vs "b0#2", "crash-1" vs
	// "crash-2") hash to adjacent points: every member's vnodes collapse
	// into one contiguous arc and sequential job keys pile onto one
	// backend. A splitmix64 finalizer restores the avalanche consistent
	// hashing needs.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(name string) {
	if r.members[name] {
		return
	}
	r.members[name] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", name, i)), name})
	}
	sort.Slice(r.points, func(i, k int) bool {
		if r.points[i].hash != r.points[k].hash {
			return r.points[i].hash < r.points[k].hash
		}
		return r.points[i].name < r.points[k].name // total order even on hash collision
	})
}

// Remove deletes a member and its virtual nodes.
func (r *Ring) Remove(name string) {
	if !r.members[name] {
		return
	}
	delete(r.members, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.name != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.members) }

// Members returns the member names in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for name := range r.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Candidates returns up to n distinct members in ring order starting at
// key's owner. The router walks this list on backpressure or backend
// failure: the first candidate is the shard's home, the rest are the
// deterministic spillover order every router instance agrees on.
func (r *Ring) Candidates(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}
