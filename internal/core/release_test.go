package core

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ftdag/internal/block"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/sched"
)

// TestRunReleasesItsStore: however a run ends — its sink read, or its sink
// unreadable — every version it wrote has gone to the free list by the time
// Run returns, and the sink the result carries is a copy that outlived it.
func TestRunReleasesItsStore(t *testing.T) {
	g := graph.Layered(6, 8, 3, 11, wideKernel)
	_, want := groundTruth(t, g, 0)
	released := func(t *testing.T, s *block.Store) {
		t.Helper()
		for _, k := range graph.Enumerate(g) {
			ref := g.Output(k)
			if _, err := s.Read(ref.Block, ref.Version); !errors.Is(err, block.ErrNotRetained) {
				t.Fatalf("task %d's output after the run = %v, want ErrNotRetained", k, err)
			}
		}
	}
	sameSink := func(t *testing.T, got []float64) {
		t.Helper()
		if len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
			t.Fatalf("sink after release = %v…, want %v…", got[:1], want[:1])
		}
	}
	cfg := Config{Workers: 2, Timeout: testTimeout, VerifyChecksums: true}
	t.Run("FT", func(t *testing.T) {
		e := NewFT(g, cfg)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameSink(t, res.Sink)
		released(t, e.store)
	})
	t.Run("NABBIT", func(t *testing.T) {
		e := NewBaseline(g, cfg)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameSink(t, res.Sink)
		released(t, e.store)
	})
	t.Run("Sequential", func(t *testing.T) {
		e := NewSequential(g, 0)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameSink(t, res.Sink)
		released(t, e.store)
	})
	t.Run("FT/unreadable-sink", func(t *testing.T) {
		cfg := cfg
		cfg.Plan = fault.NewPlan().Add(g.Sink(), fault.AfterNotify, 1)
		e := NewFT(g, cfg)
		if _, err := e.Run(); err == nil {
			t.Fatal("a run whose sink was corrupted after notify returned no error")
		}
		released(t, e.store)
	})
}

// churn is a layered graph of wide payloads whose computes past the second
// layer hold their workers until the run is aborted, then go on reading their
// predecessors and write: what a cancelled or timed-out run's computes do
// while RunOn releases the store under them.
type churn struct {
	*graph.Static
	width   int
	aborted func() bool
	waiting atomic.Int64 // computes holding their worker
	bad     atomic.Int64 // reads that returned something other than the version
	lost    atomic.Int64 // reads that failed: the store was released under them
}

func (c *churn) Compute(ctx graph.Context, k graph.Key) error {
	if int(k)/c.width >= 2 {
		c.waiting.Add(1)
		for deadline := time.Now().Add(10 * time.Second); !c.aborted() && time.Now().Before(deadline); {
			time.Sleep(20 * time.Microsecond)
		}
	}
	for range 50 {
		for _, p := range c.Predecessors(k) {
			d, err := ctx.ReadPred(p)
			if err != nil {
				c.lost.Add(1)
				return err
			}
			if d[0] != float64(p) || d[len(d)-1] != float64(p) {
				c.bad.Add(1)
			}
		}
	}
	out := block.Alloc(widePayload)
	for i := range out {
		out[i] = float64(k)
	}
	ctx.Write(out)
	return nil
}

// TestReleaseRacesAbortedComputes: a cancelled or timed-out run returns while
// computes are still reading and writing its store, and releases the store on
// the way out. Under -race this is the check that Release and those accesses
// share no unguarded word; with freed buffers poisoned, a read that returned a
// released buffer shows in bad. NABBIT's computes see their reads fail and end
// without a panic.
func TestReleaseRacesAbortedComputes(t *testing.T) {
	for _, how := range []string{"cancel", "timeout"} {
		t.Run("FT/"+how, func(t *testing.T) { testReleaseRacesAbortedComputes(t, NewFT, how) })
		t.Run("NABBIT/"+how, func(t *testing.T) { testReleaseRacesAbortedComputes(t, NewBaseline, how) })
	}
}

func testReleaseRacesAbortedComputes[S state](t *testing.T, newExec func(graph.Spec, Config) *exec[S], how string) {
	const width = 8
	var e *exec[S]
	c := &churn{Static: graph.Layered(6, width, 3, 5, nil), width: width}
	c.aborted = func() bool { return e.group.Aborted() }
	cfg := Config{Workers: 4, VerifyChecksums: true}
	cancel := make(chan struct{})
	if how == "cancel" {
		cfg.Cancel = cancel
	} else {
		cfg.Timeout = 50 * time.Millisecond
	}
	e = newExec(c, cfg)
	pool := sched.NewPool(4)
	done := make(chan error, 1)
	go func() {
		_, err := e.RunOn(pool)
		done <- err
	}()
	for c.waiting.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(cancel)
	select {
	case err := <-done:
		want := map[string]error{"cancel": ErrCancelled, "timeout": ErrTimeout}[how]
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the aborted run did not return")
	}
	if n := stranded(e); n != 0 {
		t.Fatalf("%d buffers left in the workers' caches when RunOn returned", n)
	}
	pool.Close() // waits for the computes the abort left running
	if n := stranded(e); n != 0 {
		t.Fatalf("%d buffers in the workers' caches after the computes the abort left running ended", n)
	}
	if n := c.bad.Load(); n != 0 {
		t.Fatalf("%d reads returned a released buffer", n)
	}
	t.Logf("%d computes held, %d reads failed after the release", c.waiting.Load(), c.lost.Load())
}

// stranded counts the buffers e's workers' caches hold.
func stranded[S state](e *exec[S]) int {
	k := 0
	for i := range e.met.blocks {
		k += int(reflect.ValueOf(&e.met.blocks[i].cache).Elem().FieldByName("held").Int())
	}
	return k
}

// scratchy is a layered graph of wide payloads whose computes take their
// output from the worker's cache (graph.Alloc), read every predecessor, and
// hand the output back (graph.Free) when a read fails, as the apps do.
type scratchy struct {
	*graph.Static
	failed atomic.Int64 // computes whose read failed
}

func (g *scratchy) Compute(ctx graph.Context, k graph.Key) error {
	out := graph.Alloc(ctx, widePayload)
	for i := range out {
		out[i] = float64(k)
	}
	for _, p := range g.Predecessors(k) {
		d, err := ctx.ReadPred(p)
		if err != nil {
			g.failed.Add(1)
			graph.Free(ctx, out)
			return err
		}
		out[0] += d[0]
	}
	ctx.Write(out)
	return nil
}

// TestRunLeavesNoBufferInACache: however a run ends, the buffers its workers'
// caches held — read copies, evicted versions, outputs handed back — are on
// the shared list when RunOn returns, not stranded in the executor: on
// success, by either executor, and when computes' reads failed on versions
// poisoned after notify. The aborted runs are TestReleaseRacesAbortedComputes.
func TestRunLeavesNoBufferInACache(t *testing.T) {
	cfg := Config{Workers: 2, Retention: 1, Timeout: testTimeout}
	check := func(t *testing.T, runOn func(*sched.Pool) (*Result, error), left func() int) {
		t.Helper()
		pool := sched.NewPool(2)
		defer pool.Close()
		if _, err := runOn(pool); err != nil {
			t.Fatal(err)
		}
		if n := left(); n != 0 {
			t.Fatalf("%d buffers left in the workers' caches when RunOn returned", n)
		}
	}
	t.Run("FT", func(t *testing.T) {
		e := NewFT(&scratchy{Static: graph.Layered(8, 8, 3, 7, nil)}, cfg)
		check(t, e.RunOn, func() int { return stranded(e) })
	})
	t.Run("NABBIT", func(t *testing.T) {
		e := NewBaseline(&scratchy{Static: graph.Layered(8, 8, 3, 7, nil)}, cfg)
		check(t, e.RunOn, func() int { return stranded(e) })
	})
	t.Run("FT/reads-failed", func(t *testing.T) {
		g := &scratchy{Static: graph.Layered(8, 8, 3, 7, nil)}
		plan := fault.NewPlan()
		for _, k := range fault.SelectTasks(g, fault.AnyTask, 12, 5) {
			if k != g.Sink() {
				plan.Add(k, fault.AfterNotify, 1)
			}
		}
		cfg := cfg
		cfg.Plan = plan
		e := NewFT(g, cfg)
		check(t, e.RunOn, func() int { return stranded(e) })
		if g.failed.Load() == 0 {
			t.Fatal("no compute's read failed: the plan poisoned nothing a successor read")
		}
	})
}
