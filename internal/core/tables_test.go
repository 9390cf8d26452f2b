package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"ftdag/internal/block"
	"ftdag/internal/cmap"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

// These tests pin what moved under the executors in one step: the key tables
// (direct-indexed for the keys graphs use, hashed for the rest), the
// per-worker counter blocks, and the block accesses counted in them.

// TestCounterBlocksArePadded: a block is a multiple of 128 bytes, and in a
// live metrics the first and last word of one worker's counters, of each of
// its latency shards and of its buffer cache share no 128-byte block with
// another worker's.
func TestCounterBlocksArePadded(t *testing.T) {
	if sz := unsafe.Sizeof(workerCounters{}); sz%128 != 0 {
		t.Fatalf("workerCounters is %d bytes, want a multiple of 128: adjust its padding", sz)
	}
	ends := func(p unsafe.Pointer, size uintptr) []uintptr {
		return []uintptr{uintptr(p), uintptr(p) + size - 8}
	}
	for _, p := range []int{2, 3, 4, 8} {
		m := newMetrics(p)
		owner := map[uintptr]int{}
		for i := range m.blocks {
			b := &m.blocks[i]
			c := &b.counters
			addrs := []uintptr{uintptr(unsafe.Pointer(&c.computes)), uintptr(unsafe.Pointer(&c.missingReads))}
			addrs = append(addrs, ends(unsafe.Pointer(&b.computeLat), unsafe.Sizeof(b.computeLat))...)
			addrs = append(addrs, ends(unsafe.Pointer(&b.recoveryLat), unsafe.Sizeof(b.recoveryLat))...)
			addrs = append(addrs, ends(unsafe.Pointer(&b.cache), unsafe.Sizeof(b.cache))...)
			for _, addr := range addrs {
				if prev, ok := owner[addr>>7]; ok && prev != i {
					t.Errorf("P=%d: a counter of worker %d (%#x) is in one 128-byte block with worker %d's", p, i, addr, prev)
				}
				owner[addr>>7] = i
			}
		}
	}
}

// metricFields returns the counters of m by field name.
func metricFields(m Metrics) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(m)
	for i := 0; i < v.NumField(); i++ {
		out[v.Type().Field(i).Name] = v.Field(i).Int()
	}
	return out
}

// TestEveryCounterReachesEverySum sets every atomic of a counters block to its
// own bit. Each Metrics and Stats field then reads exactly one of them and
// every atomic is read, so a counter added later cannot miss the snapshot,
// Result.Store or the registry's families over them; and Metrics.Add and
// Stats.Add sum every field but the BytesRetained peak.
func TestEveryCounterReachesEverySum(t *testing.T) {
	m := newMetrics(1)
	c := reflect.ValueOf(&m.blocks[0].counters).Elem()
	want := map[int64]bool{}
	for i := 0; i < c.NumField(); i++ {
		(*atomic.Int64)(unsafe.Pointer(c.Field(i).UnsafeAddr())).Store(1 << i)
		want[1<<i] = true
	}
	var sum Metrics
	m.blocks[0].addTo(&sum)
	st := m.storeStats(block.NewStore(0))
	twice, stTwice := sum, st
	twice.Add(sum)
	stTwice.Add(st)
	for _, f := range []struct{ one, two reflect.Value }{
		{reflect.ValueOf(sum), reflect.ValueOf(twice)},
		{reflect.ValueOf(st), reflect.ValueOf(stTwice)},
	} {
		for i := 0; i < f.one.NumField(); i++ {
			name, v := f.one.Type().Field(i).Name, f.one.Field(i).Int()
			if name == "BytesRetained" {
				continue
			}
			if !want[v] {
				t.Errorf("%s = %#x reads no counter of its own", name, v)
			}
			delete(want, v)
			if got := f.two.Field(i).Int(); got != 2*v {
				t.Errorf("Add sums %s to %#x, want %#x", name, got, 2*v)
			}
		}
	}
	if len(want) > 0 {
		t.Errorf("%d counters reach no field: %v", len(want), want)
	}
}

// TestLiveMetricsMonotoneAndExact: LiveMetrics sums the workers' blocks while
// they count. Polled during a run, no counter ever goes down; at the end of a
// fault-free run the sums are exact — one compute per task, one notification
// per edge and one self-notification per task — and the same whether one
// worker counted everything or four shared the counting.
func TestLiveMetricsMonotoneAndExact(t *testing.T) {
	g := graph.Layered(60, 32, 3, 17, nil)
	props := graph.Analyze(g)
	final := map[int]Metrics{}
	for _, workers := range []int{1, 4} {
		e := NewFT(g, Config{Workers: workers, VerifyChecksums: true, Timeout: testTimeout})
		done := make(chan struct{})
		var res *Result
		var err error
		go func() {
			defer close(done)
			res, err = e.Run()
		}()
		last := metricFields(e.LiveMetrics())
		for polls, running := 0, true; running; polls++ {
			select {
			case <-done:
				running = false
			default:
			}
			cur := metricFields(e.LiveMetrics())
			for name, v := range cur {
				if v < last[name] {
					t.Fatalf("P=%d poll %d: %s went from %d to %d", workers, polls, name, last[name], v)
				}
			}
			last = cur
		}
		if err != nil {
			t.Fatalf("P=%d: %v", workers, err)
		}
		m := res.Metrics
		if m != e.LiveMetrics() {
			t.Fatalf("P=%d: Result.Metrics %+v differs from the final LiveMetrics %+v", workers, m, e.LiveMetrics())
		}
		if m.Computes != int64(props.Tasks) || m.Notifications != int64(props.Edges+props.Tasks) {
			t.Fatalf("P=%d: computes %d notifications %d, want %d and %d (E=%d + T=%d)",
				workers, m.Computes, m.Notifications, props.Tasks, props.Edges+props.Tasks, props.Edges, props.Tasks)
		}
		if m.Registrations > int64(props.Edges) {
			t.Fatalf("P=%d: %d registrations on %d edges", workers, m.Registrations, props.Edges)
		}
		m.Registrations = 0 // how many successors had to wait depends on the interleaving
		final[workers] = m
	}
	if final[1] != final[4] {
		t.Fatalf("1 worker counted %+v, 4 workers %+v", final[1], final[4])
	}

	b := NewBaseline(g, Config{Workers: 4, Timeout: testTimeout})
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Metrics; m.Computes != int64(props.Tasks) || m.Notifications != int64(props.Edges+props.Tasks) {
		t.Fatalf("baseline: computes %d notifications %d, want %d and %d", m.Computes, m.Notifications, props.Tasks, props.Edges+props.Tasks)
	}
}

// countingSpec counts the block accesses computes make through their
// context: what the store's own counters should add up to.
type countingSpec struct {
	graph.Spec
	reads, readErrs, writes atomic.Int64
}

type countingCtx struct {
	graph.Context
	s *countingSpec
}

func (s *countingSpec) Compute(ctx graph.Context, key graph.Key) error {
	return s.Spec.Compute(countingCtx{ctx, s}, key)
}

func (c countingCtx) ReadPred(pred graph.Key) ([]float64, error) {
	c.s.reads.Add(1)
	data, err := c.Context.ReadPred(pred)
	if err != nil {
		c.s.readErrs.Add(1)
	}
	return data, err
}

func (c countingCtx) Write(data []float64) {
	c.s.writes.Add(1)
	c.Context.Write(data)
}

// TestStoreStatsMatchAccessCounts: after runs with faults — corrupted
// versions, versions evicted from a retention-1 ring, re-executions —
// Result.Store, summed from the workers' blocks, equals the accesses counted
// from outside, as it did when the store counted them.
func TestStoreStatsMatchAccessCounts(t *testing.T) {
	for name, tc := range map[string]struct {
		g         *graph.Static
		retention int
	}{
		"versionchain/K=1": {graph.VersionChain(12, nil), 1},
		"layered/K=0":      {graph.Layered(8, 10, 3, 5, nil), 0},
	} {
		for seed := int64(0); seed < 6; seed++ {
			plan := fault.NewPlan()
			for i, k := range fault.SelectTasks(tc.g, fault.AnyTask, 6, seed) {
				plan.Add(k, []fault.Point{fault.AfterCompute, fault.BeforeCompute}[i%2], 1)
			}
			spec := &countingSpec{Spec: tc.g}
			res, err := NewFT(spec, Config{Workers: 3, Retention: tc.retention, Plan: plan, VerifyChecksums: true, Timeout: testTimeout}).Run()
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			st := res.Store
			// Run takes the statistics before it reads the sink output.
			if st.Reads != spec.reads.Load() || st.Writes != spec.writes.Load() ||
				st.CorruptReads+st.MissingReads != spec.readErrs.Load() {
				t.Fatalf("%s seed %d: store counted %+v; computes made %d reads (%d failed) and %d writes",
					name, seed, st, spec.reads.Load(), spec.readErrs.Load(), spec.writes.Load())
			}
			if st.Writes != res.Metrics.Computes-res.Metrics.ComputeErrors {
				t.Fatalf("%s seed %d: %d writes from %d computes of which %d failed", name, seed, st.Writes, res.Metrics.Computes, res.Metrics.ComputeErrors)
			}
			if tc.retention == 1 && st.Evictions == 0 {
				t.Fatalf("%s seed %d: a retention-1 chain evicted nothing", name, seed)
			}
		}
	}
}

// TestStoreStatsAreTheWorkersCounts: Result.Store is what the compute contexts
// count, each in its worker's block, from what Slot.Read and Slot.Write
// return. Whether one worker counted or four shared the counting, the sums
// are the ones the store's own per-slot counts gave (the constants: the
// commit before the counts moved, same plans, one worker); BytesRetained is
// still the store's. The plans inject at compute time only: where an
// after-notify fault is first observed depends on the schedule.
func TestStoreStatsAreTheWorkersCounts(t *testing.T) {
	layered := graph.Layered(60, 32, 3, 17, nil)
	layeredPlan := func() *fault.Plan {
		plan := fault.PlanFraction(layered, fault.AnyTask, fault.AfterCompute, 0.05, 7)
		taken := map[graph.Key]bool{}
		for _, k := range plan.Keys() {
			taken[k] = true
		}
		for _, k := range fault.SelectTasks(layered, fault.AnyTask, 38, 8) { // 2 % of 1921
			if !taken[k] {
				plan.Add(k, fault.BeforeCompute, 1)
			}
		}
		return plan
	}
	chain := graph.VersionChain(12, nil)
	chainPlan := func() *fault.Plan {
		return fault.NewPlan().Add(3, fault.AfterCompute, 1).Add(7, fault.BeforeCompute, 1)
	}
	for name, tc := range map[string]struct {
		g         graph.Spec
		retention int
		plan      func() *fault.Plan
		want      block.Stats
	}{
		"layered/faults":      {layered, 0, layeredPlan, block.Stats{Writes: 2017, Reads: 4275, BytesRetained: 15368}},
		"layered/clean":       {layered, 0, fault.NewPlan, block.Stats{Writes: 1921, Reads: 4075, BytesRetained: 15368}},
		"versionchain/faults": {chain, 1, chainPlan, block.Stats{Writes: 29, Reads: 58, Evictions: 15, MissingReads: 3, BytesRetained: 112}},
		"versionchain/clean":  {chain, 1, fault.NewPlan, block.Stats{Writes: 25, Reads: 46, Evictions: 11, BytesRetained: 112}},
	} {
		for _, workers := range []int{1, 4} {
			cfg := Config{Workers: workers, Retention: tc.retention, Plan: tc.plan(), VerifyChecksums: true, Timeout: testTimeout}
			res, err := NewFT(tc.g, cfg).Run()
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			if res.Store != tc.want {
				t.Errorf("%s, %d workers: FT counted %+v, want %+v", name, workers, res.Store, tc.want)
			}
			if cfg.Plan.Len() > 0 {
				continue // the other executors take no plan
			}
			if res, err = NewBaseline(tc.g, cfg).Run(); err != nil || res.Store != tc.want {
				t.Errorf("%s, %d workers: baseline counted %+v (err %v), want %+v", name, workers, res.Store, err, tc.want)
			}
			if res, err = NewSequential(tc.g, tc.retention).Run(); err != nil || res.Store != tc.want {
				t.Errorf("%s: the sequential executor counted %+v (err %v), want %+v", name, res.Store, err, tc.want)
			}
		}
	}

	// A corrupt read, counted by the context that saw it.
	e := NewFT(chain, Config{})
	ref := chain.Output(0)
	e.store.Write(ref.Block, ref.Version, 0, []float64{1})
	e.store.Corrupt(ref.Block, ref.Version, 0)
	ctx := &taskCtx[ftState]{e: e, met: e.met.at(worker{}), t: e.newTask(1, 0)}
	if _, err := ctx.ReadPred(0); err == nil {
		t.Fatal("ReadPred of a corrupted version succeeded")
	}
	if got, want := e.met.storeStats(e.store), (block.Stats{Reads: 1, CorruptReads: 1, BytesRetained: 8}); got != want {
		t.Fatalf("after one corrupt read: %+v, want %+v", got, want)
	}
}

// farSpec renumbers a spec's tasks and blocks so that a third of them stay
// direct-indexed, a third are negative and a third lie above cmap.TableCap:
// the executors' tables, the store's slot table and (through farStatic)
// graph.Static's node table all serve both kinds of key in one run.
type farSpec struct{ inner graph.Spec }

func farKey(k graph.Key) graph.Key {
	switch k % 3 {
	case 1:
		return -k
	case 2:
		return cmap.TableCap + k
	}
	return k
}

func nearKey(k graph.Key) graph.Key {
	switch {
	case k < 0:
		return -k
	case k >= cmap.TableCap:
		return k - cmap.TableCap
	}
	return k
}

func farKeys(ks []graph.Key) []graph.Key {
	out := make([]graph.Key, len(ks))
	for i, k := range ks {
		out[i] = farKey(k)
	}
	return out
}

func (s farSpec) Sink() graph.Key { return farKey(s.inner.Sink()) }
func (s farSpec) Predecessors(k graph.Key) []graph.Key {
	return farKeys(s.inner.Predecessors(nearKey(k)))
}
func (s farSpec) Successors(k graph.Key) []graph.Key { return farKeys(s.inner.Successors(nearKey(k))) }

func (s farSpec) Output(k graph.Key) block.Ref {
	ref := s.inner.Output(nearKey(k))
	ref.Block = block.ID(farKey(graph.Key(ref.Block)))
	return ref
}

func (s farSpec) Compute(ctx graph.Context, k graph.Key) error {
	return s.inner.Compute(farCtx{ctx}, nearKey(k))
}

type farCtx struct{ graph.Context }

func (c farCtx) ReadPred(pred graph.Key) ([]float64, error) { return c.Context.ReadPred(farKey(pred)) }

// farStatic copies a Static graph into one that holds the renumbered keys
// itself, so Static's own table takes them too.
func farStatic(g *graph.Static) *graph.Static {
	out := graph.NewStatic(nil)
	for _, k := range graph.Enumerate(g) {
		ref := g.Output(k)
		ref.Block = block.ID(farKey(graph.Key(ref.Block)))
		out.AddTask(farKey(k), ref)
	}
	for _, k := range graph.Enumerate(g) {
		for _, p := range g.Predecessors(k) {
			out.AddEdge(farKey(p), farKey(k))
		}
	}
	return out.SetSink(farKey(g.Sink()))
}

// TestFarKeys: arbitrary int64 task keys and block IDs still work. Graphs
// whose keys fall on both sides of the direct-indexed range run to the
// sequential result under the fault-tolerant executor, the baseline, and
// recovery — faults on a retention-1 version chain, where recovering a
// version re-executes the chain of evicted versions before it through the
// recovery table and replaceTask.
func TestFarKeys(t *testing.T) {
	chain, layered := graph.VersionChain(9, nil), graph.Layered(6, 8, 3, 11, nil)
	for name, tc := range map[string]struct {
		spec      graph.Spec
		retention int
	}{
		"versionchain/wrapped": {farSpec{chain}, 1},
		"versionchain/static":  {farStatic(chain), 1},
		"layered/wrapped":      {farSpec{layered}, 0},
		"layered/static":       {farStatic(layered), 0},
	} {
		t.Run(name, func(t *testing.T) {
			if err := graph.Validate(tc.spec); err != nil {
				t.Fatal(err)
			}
			kinds := map[string]int{}
			for _, k := range graph.Enumerate(tc.spec) {
				switch {
				case k < 0:
					kinds["negative"]++
				case k >= cmap.TableCap:
					kinds["above"]++
				default:
					kinds["dense"]++
				}
			}
			if kinds["negative"] == 0 || kinds["above"] == 0 || kinds["dense"] == 0 {
				t.Fatalf("keys do not cover all three kinds: %v", kinds)
			}
			want, wantSink := groundTruth(t, tc.spec, tc.retention)

			for _, p := range []int{1, 3} {
				res := verifyFT(t, tc.spec, Config{Workers: p, Retention: tc.retention})
				if res.Tasks != len(want) || res.Metrics.Recoveries != 0 {
					t.Fatalf("FT P=%d: %d tasks (want %d), %d recoveries", p, res.Tasks, len(want), res.Metrics.Recoveries)
				}
			}

			rec := NewRecorder(tc.spec)
			res, err := NewBaseline(rec, Config{Workers: 3, Retention: tc.retention, Timeout: testTimeout}).Run()
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if d := rec.Diff(want); d != "" || fmt.Sprint(res.Sink) != fmt.Sprint(wantSink) {
				t.Fatalf("baseline diverged: %s (sink %v, want %v)", d, res.Sink, wantSink)
			}

			points := []fault.Point{fault.AfterCompute, fault.BeforeCompute, fault.AfterNotify}
			for seed := int64(0); seed < 8; seed++ {
				plan := fault.NewPlan()
				far := 0
				for i, k := range fault.SelectTasks(tc.spec, fault.AnyTask, 5, seed) {
					if k == tc.spec.Sink() && points[i%3] == fault.AfterNotify {
						continue // nothing observes the sink after its notifications
					}
					plan.Add(k, points[i%3], 1+i%2)
					if k < 0 || k >= cmap.TableCap {
						far++
					}
				}
				res := verifyFT(t, tc.spec, Config{Workers: 3, Retention: tc.retention, Plan: plan})
				if res.Metrics.InjectionsFired == 0 || res.Metrics.Recoveries == 0 {
					t.Fatalf("seed %d: %d faults planned (%d on far keys), metrics %v", seed, plan.Len(), far, res.Metrics)
				}
			}
		})
	}
}
