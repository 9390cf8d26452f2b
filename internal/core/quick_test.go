package core

import (
	"testing"
	"testing/quick"

	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

// TestQuickRandomGraphsUnderFaults is the property-based statement of
// Theorem 1: for random layered DAGs, random fault plans (any mix of
// points, task types, repeat-failure counts), any worker count, the
// per-task outputs equal the fault-free sequential execution.
func TestQuickRandomGraphsUnderFaults(t *testing.T) {
	for _, pool := range pools {
		t.Run(pool, func(t *testing.T) { testQuickRandomGraphsUnderFaults(t, pool) })
	}
}

func testQuickRandomGraphsUnderFaults(t *testing.T, pool string) {
	type params struct {
		Layers, Width, MaxIn uint8
		GraphSeed            uint16
		FaultSeed            int16
		Faults               uint8
		Workers              uint8
		PointMix             uint8
		Lives                uint8
	}
	f := func(p params) bool {
		layers := int(p.Layers)%5 + 2
		width := int(p.Width)%6 + 2
		maxIn := int(p.MaxIn)%3 + 1
		g := graph.Layered(layers, width, maxIn, uint64(p.GraphSeed)+1, nil)

		rec0 := NewRecorder(g)
		if _, err := NewSequential(rec0, 0).Run(); err != nil {
			t.Logf("sequential: %v", err)
			return false
		}
		want := rec0.Outputs()

		plan := fault.NewPlan()
		points := []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify}
		keys := fault.SelectTasks(g, fault.AnyTask, int(p.Faults)%12, int64(p.FaultSeed))
		for i, k := range keys {
			plan.Add(k, points[(i+int(p.PointMix))%3], int(p.Lives)%3+1)
		}

		rec := NewRecorder(g)
		cfg := Config{
			Workers:         int(p.Workers)%4 + 1,
			Plan:            plan,
			Timeout:         testTimeout,
			VerifyChecksums: true,
		}
		if _, err := runPool(pool, NewFT(rec, cfg)); err != nil {
			t.Logf("FT: %v", err)
			return false
		}
		if d := rec.Diff(want); d != "" {
			t.Logf("diff: %s", d)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVersionChainsUnderFaults repeats the property on the reuse
// topology with retention 1, where recovery cascades through evicted
// versions.
func TestQuickVersionChainsUnderFaults(t *testing.T) {
	type params struct {
		Length    uint8
		FaultSeed int16
		Faults    uint8
		Workers   uint8
		PointMix  uint8
	}
	f := func(p params) bool {
		n := int(p.Length)%8 + 3
		g := graph.VersionChain(n, nil)
		rec0 := NewRecorder(g)
		if _, err := NewSequential(rec0, 1).Run(); err != nil {
			return false
		}
		want := rec0.Outputs()

		points := []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify}
		plan := fault.NewPlan()
		keys := fault.SelectTasks(g, fault.AnyTask, int(p.Faults)%6, int64(p.FaultSeed))
		for i, k := range keys {
			plan.Add(k, points[(i+int(p.PointMix))%3], 1)
		}

		rec := NewRecorder(g)
		cfg := Config{
			Workers:   int(p.Workers)%3 + 1,
			Retention: 1,
			Plan:      plan,
			Timeout:   testTimeout,
		}
		if _, err := NewFT(rec, cfg).Run(); err != nil {
			t.Logf("FT(n=%d): %v", n, err)
			return false
		}
		if d := rec.Diff(want); d != "" {
			t.Logf("diff(n=%d): %s", n, d)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSoakManySeeds is a deterministic sweep over many graph/fault seed
// combinations (broader than the quick generator reaches) on a fixed
// medium graph.
func TestSoakManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	g := graph.Layered(6, 9, 3, 1234, nil)
	want, _ := groundTruth(t, g, 0)
	points := []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify}
	for seed := int64(0); seed < 30; seed++ {
		plan := fault.NewPlan()
		for i, k := range fault.SelectTasks(g, fault.AnyTask, 10, seed) {
			plan.Add(k, points[(int(seed)+i)%3], 1+i%2)
		}
		rec := NewRecorder(g)
		cfg := Config{Workers: 1 + int(seed)%4, Plan: plan, Timeout: testTimeout}
		if _, err := NewFT(rec, cfg).Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := rec.Diff(want); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}
