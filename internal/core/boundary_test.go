package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ftdag/internal/apps"
	"ftdag/internal/apps/lcs"
	"ftdag/internal/apps/sw"
	"ftdag/internal/block"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/replica"
)

// TestBoundaryReadOfCorruptedPredecessor: a ReadPredAt of a poisoned version
// fails on the flag — the column read misses word 0, the only word Corrupt
// scrambles — counts as one corrupt read, and names the incarnation that
// wrote the version, so the consumer's catch recovers the right task.
func TestBoundaryReadOfCorruptedPredecessor(t *testing.T) {
	a, err := lcs.New(apps.Config{N: 32, B: 16, Seed: 1}) // 2×2 tiles of 256 words
	if err != nil {
		t.Fatal(err)
	}
	spec := a.Spec()
	e := NewFT(spec, Config{VerifyChecksums: true})
	e.insertIfAbsent(0)
	e.replaceTask(worker{}, 0) // the producer is in its second incarnation
	ref := spec.Output(0)
	e.store.Slot(ref.Block).Write(ref.Version, 0, 1, make([]float64, 256), nil)
	e.store.Corrupt(ref.Block, ref.Version, 1)
	ctx := &taskCtx[ftState]{e: e, met: e.met.at(worker{}), t: e.newTask(1, 0)} // tile (0, 1) reads tile 0's last column
	dst := make([]float64, 16)
	err = graph.ReadPredAt(ctx, 0, dst, block.Run{Off: 15, Stride: 16, N: 16})
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Key != 0 || fe.Life != 1 {
		t.Fatalf("boundary read of a corrupted predecessor: %v, want a fault naming task 0, life 1", err)
	}
	if got, want := e.met.storeStats(e.store), (block.Stats{Writes: 0, Reads: 1, CorruptReads: 1, BytesRetained: 256 * 8}); got != want {
		t.Fatalf("after one corrupt boundary read: %+v, want %+v", got, want)
	}
}

// shadowLoses is a spec whose replicated task's live shadow loses its reads:
// every ReadPredAt it makes fails, as one of a version evicted under it
// would, so the join re-verifies the primary from the primary's snapshot. It
// records how that snapshot was served.
type shadowLoses struct {
	graph.Spec
	key graph.Key
	// gathers counts snapshot entries holding exactly the words of the runs
	// they were gathered by; others counts any other entry.
	gathers, others atomic.Int64
	mu              sync.Mutex
	copies          [][]float64 // the gathered copies, to look for on the free list
}

type losingCtx struct{ graph.Context }

func (losingCtx) ReadPredAt(pred graph.Key, _ []float64, _ ...block.Run) error {
	return fault.Errorf(pred, 0)
}

func (s *shadowLoses) Compute(ctx graph.Context, k graph.Key) error {
	if sc, ok := ctx.(*shadowCtx[ftState]); ok && k == s.key {
		if !sc.snapshot {
			return s.Spec.Compute(losingCtx{ctx}, k)
		}
		for _, in := range sc.reads {
			if in.runs != nil && len(in.data) == block.Words(in.runs...) {
				s.gathers.Add(1)
			} else {
				s.others.Add(1)
			}
			s.mu.Lock()
			s.copies = append(s.copies, in.data)
			s.mu.Unlock()
		}
	}
	return s.Spec.Compute(ctx, k)
}

// TestReplicatedBoundaryReadReverifies is TestSnapshotReverifyKeepsInputs
// for gathers: a replicated SW tile whose live shadow loses its reads is
// re-verified from the words its primary gathered — three boundary reads,
// snapshotted as gathered — so an SDC in the primary's output is still
// caught, and without one the replay agrees with the primary. The join
// leaves the gathered copies to the garbage collector: on the free list a
// 65-word row and maximum would wait for an Alloc of that length forever.
func TestReplicatedBoundaryReadReverifies(t *testing.T) {
	a, err := sw.New(apps.Config{N: 192, B: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, want := groundTruth(t, a.Spec(), a.Retention())
	k := graph.Key(1*3 + 1) // tile (1, 1) of 3×3: all three neighbours
	for _, sdc := range []bool{true, false} {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("sdc=%v/P=%d", sdc, p), func(t *testing.T) {
				spec := &shadowLoses{Spec: a.Spec(), key: k}
				plan := fault.NewPlan()
				if sdc {
					plan.Add(k, fault.SDC, 1)
				}
				res := runFT(t, spec, Config{Workers: p, Retention: a.Retention(), Plan: plan,
					Replicate: replica.Select(a.Spec(), replica.Policy{Pinned: []graph.Key{k}})})
				var detected int64
				if sdc {
					detected = 1 // and the task re-executed: a second replicated run
				}
				m, runs := res.Metrics, 1+detected
				if m.ShadowFailures != runs || spec.gathers.Load() != 3*runs || spec.others.Load() != 0 {
					t.Fatalf("shadow failures %d, snapshot entries gathered %d and other %d; want %d, %d and 0",
						m.ShadowFailures, spec.gathers.Load(), spec.others.Load(), runs, 3*runs)
				}
				if m.SDCDetected != detected || m.SDCMissed != 0 {
					t.Fatalf("SDC detected %d missed %d, want %d and 0", m.SDCDetected, m.SDCMissed, detected)
				}
				if block.Checksum(res.Sink) != block.Checksum(want) {
					t.Fatal("sink differs from the sequential run's")
				}
				for _, n := range []int{65, 65} {
					got := block.Alloc(n)
					for _, c := range spec.copies {
						if len(c) == n && &c[0] == &got[0] {
							t.Fatalf("a gathered %d-word snapshot went to the free list", n)
						}
					}
				}
			})
		}
	}
}
