// Package fault provides the typed error that attributes a detected soft
// error to a task, and the deterministic fault-injection framework used by
// the experiments (§VI-B of the paper).
//
// As in the paper, faults are identified a priori: a plan names the tasks
// that will fail and the point in their lifetime at which they fail
// (before-compute, after-compute, after-notify). When execution reaches the
// injection point, the executor poisons the task descriptor and the data
// blocks it has computed; every subsequent access observes the error. Task
// selection follows the paper's task-type taxonomy: v=0 (producers of the
// first version of a data block), v=last (producers of the last version),
// and v=rand (producers of a uniformly random version).
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"ftdag/internal/graph"
)

// Error reports a detected soft error attributed to a specific incarnation
// of a task. It plays the role of the exceptions thrown by the paper's
// try-blocks: any routine that observes a corrupted descriptor or data block
// returns an *Error identifying the failed task, and the caller's "catch"
// dispatches to recovery.
type Error struct {
	Key  graph.Key // the failed task
	Life int       // the incarnation that failed
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: task %d (life %d) corrupted", e.Key, e.Life)
}

// Errorf constructs a task fault error.
func Errorf(key graph.Key, life int) *Error { return &Error{Key: key, Life: life} }

// Point identifies where in a task's lifetime a fault strikes (§VI-B
// "Time"). The three phases differ in recovery cost: before-compute loses no
// computed work, after-compute loses one compute, after-notify is detected
// lazily (possibly never) by later readers.
type Point int

const (
	NoPoint Point = iota
	BeforeCompute
	AfterCompute
	AfterNotify
	// SDC silently corrupts the task's freshly written output without
	// tripping the poisoned flag or the block checksum: the task appears to
	// complete normally and downstream reads succeed with wrong data. Only
	// replica comparison (internal/replica) can detect it, which is what
	// makes detection coverage testable.
	SDC
)

func (p Point) String() string {
	switch p {
	case BeforeCompute:
		return "before compute"
	case AfterCompute:
		return "after compute"
	case AfterNotify:
		return "after notify"
	case SDC:
		return "sdc"
	default:
		return "none"
	}
}

// TaskType classifies tasks by the version of the data block they produce
// (§VI-B "Task type").
type TaskType int

const (
	AnyTask TaskType = iota
	V0               // produces the first version of its block
	VLast            // produces the last version of its block
	VRand            // produces a uniformly random version
)

func (t TaskType) String() string {
	switch t {
	case V0:
		return "v=0"
	case VLast:
		return "v=last"
	case VRand:
		return "v=rand"
	default:
		return "any"
	}
}

// Injection is one planned fault on one task.
type Injection struct {
	Point Point
	// Lives is the number of consecutive incarnations to corrupt,
	// starting at life 0. The default 1 reproduces the paper's
	// experiments; higher values exercise Guarantee 6 (failures observed
	// during recovery are recursively recovered).
	Lives int

	fired atomic.Int64 // bitmask of lives already fired
}

// Plan maps task keys to planned injections. A Plan is immutable once
// execution starts; Fire is safe for concurrent use.
type Plan struct {
	m map[graph.Key]*Injection
}

// NewPlan returns an empty plan (no faults).
func NewPlan() *Plan { return &Plan{m: make(map[graph.Key]*Injection)} }

// Add plans a fault on key at the given point affecting the first `lives`
// incarnations (lives < 64).
func (p *Plan) Add(key graph.Key, point Point, lives int) *Plan {
	if lives < 1 || lives >= 64 {
		panic("fault: lives must be in [1, 63]")
	}
	p.m[key] = &Injection{Point: point, Lives: lives}
	return p
}

// Len returns the number of planned injections.
func (p *Plan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.m)
}

// Keys returns the planned task keys in sorted order.
func (p *Plan) Keys() []graph.Key {
	ks := make([]graph.Key, 0, len(p.m))
	for k := range p.m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Fire reports whether a fault should be injected for the given task
// incarnation at the given point, and marks it fired. Each (key, life) fires
// at most once. Safe for concurrent use; a nil plan never fires. Fire is the
// nil check alone, so that it inlines: a fault-free run asks four times per
// task and pays a compare each, not a call.
func (p *Plan) Fire(key graph.Key, life int, point Point) bool {
	return p != nil && p.fire(key, life, point)
}

// fire is Fire on a plan. Inlined into Fire it would make Fire too large to
// inline at its call sites.
//
//go:noinline
func (p *Plan) fire(key graph.Key, life int, point Point) bool {
	inj, ok := p.m[key]
	if !ok || inj.Point != point || life >= inj.Lives || life >= 63 {
		return false
	}
	bit := int64(1) << uint(life)
	for {
		old := inj.fired.Load()
		if old&bit != 0 {
			return false
		}
		if inj.fired.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// versionInfo captures, for every task, the version it produces and the
// first and last versions of its block. "v=0" in the paper means the first
// version of a data block, which need not be numbered zero (the LU, Cholesky
// and FW graphs number tile versions from 1 because version 0 is the input
// matrix held in resilient application memory).
type versionInfo struct {
	key         graph.Key
	version     int
	first, last int
}

func classify(s graph.Spec) []versionInfo {
	keys := graph.Enumerate(s)
	first := make(map[int64]int)
	last := make(map[int64]int)
	for _, k := range keys {
		ref := s.Output(k)
		b := int64(ref.Block)
		if v, ok := first[b]; !ok || ref.Version < v {
			first[b] = ref.Version
		}
		if v, ok := last[b]; !ok || ref.Version > v {
			last[b] = ref.Version
		}
	}
	infos := make([]versionInfo, 0, len(keys))
	for _, k := range keys {
		ref := s.Output(k)
		b := int64(ref.Block)
		infos = append(infos, versionInfo{key: k, version: ref.Version, first: first[b], last: last[b]})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].key < infos[j].key })
	return infos
}

// SelectTasks returns up to n distinct task keys of the given type, chosen
// deterministically from seed. The sink task is excluded (a fault on the
// sink is legal but would make "number of re-executed tasks" incomparable
// across runs, and the paper's scenarios exclude it implicitly by selecting
// per-version producers). If fewer than n tasks of the type exist, all of
// them are returned.
func SelectTasks(s graph.Spec, typ TaskType, n int, seed int64) []graph.Key {
	infos := classify(s)
	sink := s.Sink()
	var pool []graph.Key
	rng := rand.New(rand.NewSource(seed))
	for _, in := range infos {
		if in.key == sink {
			continue
		}
		switch typ {
		case V0:
			if in.version == in.first {
				pool = append(pool, in.key)
			}
		case VLast:
			if in.version == in.last {
				pool = append(pool, in.key)
			}
		case VRand, AnyTask:
			pool = append(pool, in.key)
		}
	}
	if typ == VRand {
		// v=rand in the paper picks producers of a random version of a
		// data block; with the pool holding every producer, a uniform
		// sample over tasks is a uniform sample over (block, version)
		// pairs.
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	} else {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]graph.Key, n)
	copy(out, pool[:n])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PlanCount builds a plan injecting faults at point on n tasks of the given
// type (paper's fixed-count scenarios: 1, 8, 64, 512 task re-executions).
func PlanCount(s graph.Spec, typ TaskType, point Point, n int, seed int64) *Plan {
	p := NewPlan()
	for _, k := range SelectTasks(s, typ, n, seed) {
		p.Add(k, point, 1)
	}
	return p
}

// PlanFraction builds a plan injecting faults at point on the given fraction
// of all tasks (paper's 2% and 5% scenarios).
func PlanFraction(s graph.Spec, typ TaskType, point Point, frac float64, seed int64) *Plan {
	if frac < 0 || frac > 1 {
		panic("fault: fraction must be in [0, 1]")
	}
	total := graph.Analyze(s).Tasks
	n := int(float64(total)*frac + 0.5)
	return PlanCount(s, typ, point, n, seed)
}
