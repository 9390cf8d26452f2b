package core

import (
	"errors"
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
		released(t, e.Store())
	})
	t.Run("NABBIT", func(t *testing.T) {
		e := NewBaseline(g, cfg)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameSink(t, res.Sink)
		released(t, e.Store())
	})
	t.Run("Sequential", func(t *testing.T) {
		e := NewSequential(g, 0)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameSink(t, res.Sink)
		released(t, e.Store())
	})
	t.Run("FT/unreadable-sink", func(t *testing.T) {
		cfg := cfg
		cfg.Plan = fault.NewPlan().Add(g.Sink(), fault.AfterNotify, 1)
		e := NewFT(g, cfg)
		if _, err := e.Run(); err == nil {
			t.Fatal("a run whose sink was corrupted after notify returned no error")
		}
		released(t, e.Store())
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
	c.aborted = func() bool { return e.aborted() }
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
	pool.Close() // waits for the computes the abort left running
	if n := c.bad.Load(); n != 0 {
		t.Fatalf("%d reads returned a released buffer", n)
	}
	t.Logf("%d computes held, %d reads failed after the release", c.waiting.Load(), c.lost.Load())
}
