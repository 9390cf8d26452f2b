package core

import (
	"fmt"
	"math"
	"testing"

	"ftdag/internal/block"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

// The executors recycle a compute's buffers through the block free list: its
// read copies when it ends, the slice it wrote when the store evicts or
// replaces that version. These tests run payloads above block.PoolMin (the
// synthetic graphs elsewhere use one float, which never touches the list)
// with freed buffers poisoned (main_test.go), so a buffer freed twice, freed
// while in use, or recycled while recorded shows up as a diverging output.

const widePayload = 2 * block.PoolMin

// wideKernel is a ComputeFunc with recyclable payloads that exercises every
// way a compute may come by its output: a fresh block.Alloc buffer, a
// ReadPred result written back as it is, and a piece of one.
func wideKernel(key graph.Key, vals [][]float64) []float64 {
	if len(vals) > 0 {
		switch key % 4 {
		case 1:
			return vals[0] // pass-through
		case 3:
			return vals[len(vals)-1][1:] // a piece of a read copy
		}
	}
	out := block.Alloc(widePayload)
	for i := range out {
		out[i] = float64(key) + float64(i)
		for _, v := range vals {
			out[i] += v[i%len(v)]
		}
	}
	return out
}

type wideGraph struct {
	spec      graph.Spec
	retention int
}

func wideGraphs() map[string]wideGraph {
	return map[string]wideGraph{
		"chain":        {graph.Chain(24, wideKernel), 0},
		"layered":      {graph.Layered(6, 8, 3, 11, wideKernel), 0},
		"versionchain": {graph.VersionChain(10, wideKernel), 1},
	}
}

func TestBufferRecyclingFaultFree(t *testing.T) {
	for name, g := range wideGraphs() {
		want, _ := groundTruth(t, g.spec, g.retention)
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/FT/P=%d", name, p), func(t *testing.T) {
				verifyFT(t, g.spec, Config{Workers: p, Retention: g.retention})
			})
			t.Run(fmt.Sprintf("%s/baseline/P=%d", name, p), func(t *testing.T) {
				rec := NewRecorder(g.spec)
				if _, err := NewBaseline(rec, Config{Workers: p, Retention: g.retention, Timeout: testTimeout}).Run(); err != nil {
					t.Fatal(err)
				}
				if d := rec.Diff(want); d != "" {
					t.Fatalf("baseline diverged from sequential: %s", d)
				}
			})
		}
	}
}

func TestBufferRecyclingUnderFaults(t *testing.T) {
	points := []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify}
	for name, g := range wideGraphs() {
		want, _ := groundTruth(t, g.spec, g.retention)
		for seed := int64(0); seed < 8; seed++ {
			plan := fault.NewPlan()
			for i, k := range fault.SelectTasks(g.spec, fault.AnyTask, 12, seed) {
				if k == g.spec.Sink() {
					continue // an after-notify fault on the sink has no observer
				}
				plan.Add(k, points[(i+int(seed))%3], 1+i%2)
			}
			rec := NewRecorder(g.spec)
			runFT(t, rec, Config{Workers: 1 + int(seed)%4, Retention: g.retention, Plan: plan})
			if d := rec.Diff(want); d != "" {
				t.Fatalf("%s seed %d diverged: %s", name, seed, d)
			}
		}
	}
}

// TestBufferRecyclingReplicated covers the replicated path's buffers: the
// primary's captured inputs (freed at the join), the shadow's private reads
// and captured output, and — on the version chain under retention 1, where
// an anti-dependent writer can evict a version the live shadow still needs —
// the re-verification from the primary's snapshot.
func TestBufferRecyclingReplicated(t *testing.T) {
	for name, g := range wideGraphs() {
		set := replicateAll(g.spec)
		victims := fault.SelectTasks(g.spec, fault.AnyTask, 4, 3)
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", name, p), func(t *testing.T) {
				plan := fault.NewPlan() // a plan fires once: one per run
				for _, k := range victims {
					plan.Add(k, fault.SDC, 1)
				}
				res := verifyFT(t, g.spec, Config{Workers: p, Retention: g.retention, Plan: plan, Replicate: set})
				if m := res.Metrics; m.SDCDetected != m.SDCInjected || m.SDCMissed != 0 {
					t.Fatalf("SDC accounting = injected %d detected %d missed %d", m.SDCInjected, m.SDCDetected, m.SDCMissed)
				}
			})
		}
	}
}

// TestSnapshotReverifyKeepsInputs drives the re-verification path directly:
// a shadow served from the primary's snapshot must leave the snapshot's
// buffers alone (they are the join's to free), even when the kernel writes
// one of them back.
func TestSnapshotReverifyKeepsInputs(t *testing.T) {
	g := graph.Chain(2, wideKernel) // task 1 passes its input through
	e := NewFT(g, Config{})
	in := block.Alloc(widePayload)
	for i := range in {
		in[i] = float64(i)
	}
	t1, _ := e.insertIfAbsent(1)
	rj := &replicaJoin[ftState]{inputs: []predRead{{pred: 0, data: in}}}
	if !e.reverifyFromSnapshot(worker{}, t1, rj) {
		t.Fatal("re-verification produced no digest")
	}
	if rj.shadowDigest != block.Checksum(in) {
		t.Fatal("pass-through shadow digest differs from its input's")
	}
	e.met.release() // worker 0's cache hands what the shadow freed to the shared list
	if got := block.Alloc(widePayload); &got[0] == &in[0] {
		t.Fatal("the snapshot buffer was freed by the shadow")
	}
	if in[1] != 1 {
		t.Fatalf("snapshot buffer changed: in[1] = %v", in[1])
	}
}

// pieceKernel returns a ComputeFunc whose sources write n fresh float64s and
// whose other tasks write a piece of one of their ReadPred copies (the whole
// copy once pieces are down to half the source): the payloads an executor
// context must copy rather than hand to the store. At n >= block.PoolMin the
// read copy goes back to the free list (or to the replica join) when the
// compute ends; below it, the copy is a piece of the context's arena.
func pieceKernel(n int) graph.ComputeFunc {
	return func(key graph.Key, vals [][]float64) []float64 {
		if len(vals) == 0 {
			out := block.Alloc(n)
			for i := range out {
				out[i] = float64(key) + float64(i)/8
			}
			return out
		}
		in := vals[int(key)%len(vals)]
		if len(in) > n/2 {
			return in[1:]
		}
		return in
	}
}

// TestWritePieceOfReadCopy: every executor reproduces the sequential sink
// when computes write pieces of their read copies, freed buffers and reset
// arenas poisoned. The poison is NaN and no kernel output is, so a stored
// piece that was freed with its read copy shows even where every executor
// would agree on it.
func TestWritePieceOfReadCopy(t *testing.T) {
	check := func(t *testing.T, who string, sink []float64, want uint64) {
		t.Helper()
		for i, v := range sink {
			if math.IsNaN(v) {
				t.Fatalf("%s: sink[%d] is the poison of a freed buffer", who, i)
			}
		}
		if got := block.Checksum(sink); got != want {
			t.Fatalf("%s: sink checksum %#x, want the sequential %#x", who, got, want)
		}
	}
	for _, n := range []int{4 * block.PoolMin, 8} {
		graphs := map[string]wideGraph{
			"chain":        {graph.Chain(24, pieceKernel(n)), 0},
			"layered":      {graph.Layered(6, 8, 3, 11, pieceKernel(n)), 0},
			"versionchain": {graph.VersionChain(10, pieceKernel(n)), 1},
		}
		for name, g := range graphs {
			name = fmt.Sprintf("%s/n=%d", name, n)
			_, seqSink := groundTruth(t, g.spec, g.retention)
			want := block.Checksum(seqSink)
			check(t, name+"/sequential", seqSink, want)
			for _, p := range []int{1, 2, 4} {
				cfg := Config{Workers: p, Retention: g.retention, VerifyChecksums: true, Timeout: testTimeout}
				t.Run(fmt.Sprintf("%s/P=%d", name, p), func(t *testing.T) {
					res, err := NewFT(g.spec, cfg).Run()
					if err != nil {
						t.Fatal(err)
					}
					check(t, "FT", res.Sink, want)
					if res, err = NewBaseline(g.spec, cfg).Run(); err != nil {
						t.Fatal(err)
					}
					check(t, "baseline", res.Sink, want)
					cfg.Replicate = replicateAll(g.spec)
					if res, err = NewFT(g.spec, cfg).Run(); err != nil {
						t.Fatal(err)
					}
					check(t, "replicated FT", res.Sink, want)
				})
			}
		}
	}
}

func TestInside(t *testing.T) {
	a := make([]float64, 8)
	other := make([]float64, 8)
	for _, c := range []struct {
		name string
		b    []float64
		want bool
	}{
		{"whole", a, true},
		{"prefix", a[:3], true},
		{"suffix", a[5:], true},
		{"middle", a[2:4], true},
		{"other", other, false},
		{"nil", nil, false},
	} {
		if got := inside(a, c.b); got != c.want {
			t.Errorf("inside(a, %s) = %v, want %v", c.name, got, c.want)
		}
	}
	if inside(nil, a) {
		t.Error("inside(nil, a) = true")
	}
}
