package apps_test

import (
	"fmt"
	"testing"

	"ftdag/internal/apps"
	"ftdag/internal/block"
	"ftdag/internal/core"
	"ftdag/internal/graph"
	"ftdag/internal/harness"
)

// wholeReads hands the computes a context without ReadPredAt, so
// graph.ReadPredAt takes its fallback: ReadPred of the whole tile and a gather
// from the copy.
type wholeReads struct{ graph.Spec }

type wholeCtx struct{ graph.Context }

func (s wholeReads) Compute(ctx graph.Context, k graph.Key) error {
	return s.Spec.Compute(wholeCtx{ctx}, k)
}

// TestBoundaryReadsMatchFallback: every LCS and SW tile is bit for bit the
// same whether its compute gathers the boundary through the executor's
// ReadPredAt or through ReadPred and a gather, under the sequential, FT and
// NABBIT executors, at tile sizes down to one cell.
func TestBoundaryReadsMatchFallback(t *testing.T) {
	for _, name := range []string{"LCS", "SW"} {
		for _, cfg := range []apps.Config{{N: 64, B: 16, Seed: 3}, {N: 20, B: 4, Seed: 4}, {N: 5, B: 1, Seed: 5}} {
			t.Run(fmt.Sprintf("%s/N%dB%d", name, cfg.N, cfg.B), func(t *testing.T) {
				a := mustApp(t, name, cfg)
				fallback := core.NewRecorder(wholeReads{a.Spec()})
				if _, err := core.NewSequential(fallback, a.Retention()).Run(); err != nil {
					t.Fatal(err)
				}
				want := fallback.Outputs()
				c := core.Config{Workers: 2, Retention: a.Retention(), Timeout: testTimeout}
				for exec, run := range map[string]func(graph.Spec) (*core.Result, error){
					"sequential": func(s graph.Spec) (*core.Result, error) { return core.NewSequential(s, a.Retention()).Run() },
					"FT": func(s graph.Spec) (*core.Result, error) {
						v := c
						v.VerifyChecksums = true
						return core.NewFT(s, v).Run()
					},
					"NABBIT": func(s graph.Spec) (*core.Result, error) { return core.NewBaseline(s, c).Run() },
				} {
					rec := core.NewRecorder(a.Spec())
					if _, err := run(rec); err != nil {
						t.Fatalf("%s: %v", exec, err)
					}
					if d := rec.Diff(want); d != "" {
						t.Fatalf("%s through ReadPredAt differs from the fallback: %s", exec, d)
					}
				}
			})
		}
	}
}

// TestBoundaryReadsCountOnce: a boundary read is one store access, as the
// whole-tile read it replaced was. At QuickSizes (16×16 tiles) LCS and SW
// read 240 upper, 240 left and 225 upper-left neighbours: 705 reads under
// every executor, as before boundary reads.
func TestBoundaryReadsCountOnce(t *testing.T) {
	for _, name := range []string{"LCS", "SW"} {
		a := mustApp(t, name, harness.QuickSizes()[name])
		c := core.Config{Workers: 2, Retention: a.Retention(), Timeout: testTimeout}
		v := c
		v.VerifyChecksums = true
		for exec, run := range map[string]func() (*core.Result, error){
			"sequential": core.NewSequential(a.Spec(), a.Retention()).Run,
			"FT":         core.NewFT(a.Spec(), v).Run,
			"NABBIT":     core.NewBaseline(a.Spec(), c).Run,
		} {
			res, err := run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, exec, err)
			}
			if res.Store.Reads != 705 || res.Store.Writes != 256 {
				t.Fatalf("%s %s: %d reads and %d writes, want 705 and 256", name, exec, res.Store.Reads, res.Store.Writes)
			}
		}
	}
}

// gatherCtx serves ReadPredAt from a map of outputs and gives every written
// tile back to the free list, so a compute's own allocations are all that
// testing.AllocsPerRun sees.
type gatherCtx struct {
	outs map[graph.Key][]float64
}

func (c gatherCtx) ReadPred(p graph.Key) ([]float64, error) { return c.outs[p], nil }
func (c gatherCtx) ReadPredAt(p graph.Key, dst []float64, runs ...block.Run) error {
	block.Gather(dst, c.outs[p], runs...)
	return nil
}
func (c gatherCtx) Write(d []float64) { block.Free(d) }

// TestBoundaryReadAllocations: an interior LCS or SW tile's compute allocates
// nothing but its tile, which the free list serves — its boundary and its
// neighbours' running maxima are read into the tile itself — where it made
// one allocation for its left column and corner before the tile carried a
// copy of its last column, and two (top and left) when it read whole tiles.
func TestBoundaryReadAllocations(t *testing.T) {
	for _, name := range []string{"LCS", "SW"} {
		a := mustApp(t, name, apps.Config{N: 192, B: 64, Seed: 1})
		spec := a.Spec()
		seq := core.NewRecorder(spec)
		if _, err := core.NewSequential(seq, a.Retention()).Run(); err != nil {
			t.Fatal(err)
		}
		ctx := gatherCtx{outs: seq.Outputs()}
		k := graph.Key(4) // tile (1, 1) of 3×3: upper, left and upper-left neighbours
		if allocs := testing.AllocsPerRun(20, func() {
			if err := spec.Compute(ctx, k); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: an interior tile's compute allocated %v times, want 0", name, allocs)
		}
	}
}
