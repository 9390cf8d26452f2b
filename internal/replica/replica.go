// Package replica implements selective task replication for silent-data-
// corruption (SDC) detection: a selection policy that scores the tasks of a
// DAG and picks a replication set under an overhead budget, plus the digest
// primitive the executor uses to compare replica outputs.
//
// Motivation (ROADMAP item 3; Fohry-group SDC papers in PAPERS.md): the
// paper's FT-NABBIT machinery recovers *detected* faults, but a silently
// corrupted output sails through both the poisoned-flag check and the block
// checksum — the checksum is recomputed from the corrupted payload by the
// injection model, exactly as a bit flip inside the producing core would
// corrupt the data before any integrity metadata is derived from it. The
// only way to catch it is redundant execution: run the task twice on
// distinct workers and compare output digests at the join. Replicating
// everything doubles the work; this package picks the subset whose
// corruption would be most damaging — high fan-out tasks (corruption spreads
// to many consumers), critical-path tasks (re-execution delays the whole
// run), and user-pinned tasks — under a configurable budget, yielding the
// overhead-vs-coverage tradeoff the experiments sweep.
package replica

import (
	"math"
	"sort"

	"ftdag/internal/block"
	"ftdag/internal/graph"
)

// Policy configures replica-set selection.
type Policy struct {
	// Budget is the fraction of the graph's tasks to replicate, in [0, 1].
	// 0 disables replication, 1 replicates every task (dual modular
	// redundancy). The concrete set size is round(Budget * Tasks), never
	// smaller than the number of pinned tasks.
	Budget float64
	// Pinned tasks are always replicated, regardless of score, and are
	// counted against the budget.
	Pinned []graph.Key
}

// Score is one task's selection ranking, kept for introspection (the
// harness sweep and tests reconstruct why a task was or wasn't picked).
type Score struct {
	Key      graph.Key
	FanOut   int     // number of direct consumers
	Critical bool    // lies on a longest root→sink path
	Pinned   bool    // forced in by the policy
	Value    float64 // combined score used for ranking
}

// Set is an immutable replication set produced by Select. A nil *Set (or
// one from budget 0 with no pins) replicates nothing.
type Set struct {
	members map[graph.Key]bool
	keys    []graph.Key // sorted
}

// Contains reports whether the task is selected for replication. Safe on a
// nil set.
func (s *Set) Contains(k graph.Key) bool {
	if s == nil {
		return false
	}
	return s.members[k]
}

// Len returns the number of selected tasks (0 on a nil set).
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.keys)
}

// Keys returns the selected task keys in ascending order. The caller must
// not modify the returned slice.
func (s *Set) Keys() []graph.Key {
	if s == nil {
		return nil
	}
	return s.keys
}

// Select scores every task reachable from the sink and picks the
// replication set under the policy's budget. Ranking is fully
// deterministic: pinned tasks first, then by combined score descending
// (fan-out normalized by the graph's maximum out-degree, plus a
// critical-path membership bonus), ties broken by ascending key.
func Select(s graph.Spec, p Policy) *Set {
	if p.Budget < 0 || p.Budget > 1 || math.IsNaN(p.Budget) {
		panic("replica: budget must be in [0, 1]")
	}
	scores := Rank(s, p)
	total := len(scores)
	n := int(p.Budget*float64(total) + 0.5)
	pinned := 0
	for _, sc := range scores {
		if sc.Pinned {
			pinned++
		}
	}
	if n < pinned {
		n = pinned
	}
	if n > total {
		n = total
	}
	set := &Set{members: make(map[graph.Key]bool, n)}
	for _, sc := range scores[:n] {
		set.members[sc.Key] = true
		set.keys = append(set.keys, sc.Key)
	}
	sort.Slice(set.keys, func(i, j int) bool { return set.keys[i] < set.keys[j] })
	return set
}

// Rank returns every reachable task's score in selection order: pinned
// first, then score descending, then key ascending. Exposed so the harness
// and tests can explain a selection without re-deriving the policy.
func Rank(s graph.Spec, p Policy) []Score {
	order, err := graph.TopoOrder(s)
	if err != nil {
		panic("replica: Rank on cyclic graph: " + err.Error())
	}
	pinned := make(map[graph.Key]bool, len(p.Pinned))
	for _, k := range p.Pinned {
		pinned[k] = true
	}
	// Forward depth: longest path (in tasks) from any source to k.
	depth := make(map[graph.Key]int, len(order))
	maxOut, span := 0, 0
	for _, k := range order {
		d := 1
		for _, pr := range s.Predecessors(k) {
			if depth[pr]+1 > d {
				d = depth[pr] + 1
			}
		}
		depth[k] = d
		if d > span {
			span = d
		}
		if n := len(s.Successors(k)); n > maxOut {
			maxOut = n
		}
	}
	// Backward height: longest path (in tasks) from k to the sink. A task
	// lies on a critical path iff depth + height - 1 == span.
	height := make(map[graph.Key]int, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		k := order[i]
		h := 1
		for _, sc := range s.Successors(k) {
			if height[sc]+1 > h {
				h = height[sc] + 1
			}
		}
		height[k] = h
	}
	scores := make([]Score, 0, len(order))
	for _, k := range order {
		sc := Score{
			Key:      k,
			FanOut:   len(s.Successors(k)),
			Critical: depth[k]+height[k]-1 == span,
			Pinned:   pinned[k],
		}
		if maxOut > 0 {
			sc.Value = float64(sc.FanOut) / float64(maxOut)
		}
		if sc.Critical {
			sc.Value++
		}
		scores = append(scores, sc)
	}
	sort.Slice(scores, func(i, j int) bool {
		a, b := scores[i], scores[j]
		if a.Pinned != b.Pinned {
			return a.Pinned
		}
		if a.Value != b.Value {
			return a.Value > b.Value
		}
		return a.Key < b.Key
	})
	return scores
}

// Digest hashes a task output for replica comparison. It is the block
// store's integrity function — block.Checksum, which covers the length — so
// the checksum Write stored for a primary's output is already its digest.
// Two replicas of a deterministic task produce equal digests; a silent
// corruption of one word of either output always changes its digest.
func Digest(data []float64) uint64 { return block.Checksum(data) }
