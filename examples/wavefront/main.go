// Wavefront: a dynamic programming stencil expressed as a *dynamic* task
// graph — the Spec interface is implemented directly, so tasks, dependences,
// and block mappings are computed on demand rather than materialised. The
// example reuses a rolling window of data-block buffers (the paper's
// memory-reuse configuration) and demonstrates the cascading re-execution
// that recovery performs when a fault is discovered after the faulty task's
// buffer slot has already been recycled.
//
// The kernel is an edit-distance-style recurrence over an R×C tile grid:
// tile (i,j) depends on (i-1,j), (i,j-1), (i-1,j-1). Tiles write into a pool
// of two buffer rows, so tile (i,j) overwrites the buffer of tile (i-2,j);
// anti-dependence edges make that reuse safe (all readers of a buffer
// version precede the next writer).
//
//	go run ./examples/wavefront
package main

import (
	"fmt"
	"log"

	"ftdag"
)

// wavefront implements ftdag.Spec directly.
type wavefront struct {
	rows, cols int
	tile       int // cells per tile edge
	a, b       []byte
}

func (wf *wavefront) key(i, j int) ftdag.Key        { return ftdag.Key(i*wf.cols + j) }
func (wf *wavefront) coords(k ftdag.Key) (int, int) { return int(k) / wf.cols, int(k) % wf.cols }

func (wf *wavefront) Sink() ftdag.Key { return wf.key(wf.rows-1, wf.cols-1) }

func (wf *wavefront) Predecessors(k ftdag.Key) []ftdag.Key {
	i, j := wf.coords(k)
	var ps []ftdag.Key
	if i > 0 {
		ps = append(ps, wf.key(i-1, j))
	}
	if j > 0 {
		ps = append(ps, wf.key(i, j-1))
	}
	if i > 0 && j > 0 {
		ps = append(ps, wf.key(i-1, j-1))
	}
	// Anti-dependences: tile (i,j) reuses tile (i-2,j)'s buffer, so the
	// readers of that buffer to the right must already be done.
	if i >= 2 && j+1 < wf.cols {
		ps = append(ps, wf.key(i-2, j+1), wf.key(i-1, j+1))
	}
	return ps
}

func (wf *wavefront) Successors(k ftdag.Key) []ftdag.Key {
	i, j := wf.coords(k)
	var ss []ftdag.Key
	if i+1 < wf.rows {
		ss = append(ss, wf.key(i+1, j))
	}
	if j+1 < wf.cols {
		ss = append(ss, wf.key(i, j+1))
	}
	if i+1 < wf.rows && j+1 < wf.cols {
		ss = append(ss, wf.key(i+1, j+1))
	}
	if j > 0 {
		if i+2 < wf.rows {
			ss = append(ss, wf.key(i+2, j-1))
		}
		if i+1 < wf.rows && i >= 1 {
			ss = append(ss, wf.key(i+1, j-1))
		}
	}
	return ss
}

// Output maps tile (i,j) to buffer (i mod 2, j), version i/2 — two live
// buffer rows for the whole computation.
func (wf *wavefront) Output(k ftdag.Key) ftdag.BlockRef {
	i, j := wf.coords(k)
	return ftdag.BlockRef{
		Block:   ftdag.BlockID((i%2)*wf.cols + j),
		Version: i / 2,
	}
}

// Compute runs the edit-distance recurrence on the tile. The output layout
// is tile*tile cells; the sink tile's last cell is the distance.
func (wf *wavefront) Compute(ctx ftdag.Context, k ftdag.Key) error {
	i, j := wf.coords(k)
	t := wf.tile
	// Only the neighbours' boundary is read: the last row above, the last
	// column to the left and the last cell above-left, as strided runs.
	top := make([]float64, t)
	left := make([]float64, t)
	corner := make([]float64, 1)
	if i > 0 {
		if err := ftdag.ReadPredAt(ctx, wf.key(i-1, j), top, ftdag.BlockRun{Off: (t - 1) * t, Stride: 1, N: t}); err != nil {
			return err
		}
	} else {
		for c := 0; c < t; c++ {
			top[c] = float64(j*t + c) // first row: distance from empty prefix
		}
	}
	if j > 0 {
		if err := ftdag.ReadPredAt(ctx, wf.key(i, j-1), left, ftdag.BlockRun{Off: t - 1, Stride: t, N: t}); err != nil {
			return err
		}
	} else {
		for r := 0; r < t; r++ {
			left[r] = float64(i*t + r)
		}
	}
	switch {
	case i > 0 && j > 0:
		if err := ftdag.ReadPredAt(ctx, wf.key(i-1, j-1), corner, ftdag.BlockRun{Off: t*t - 1, Stride: 1, N: 1}); err != nil {
			return err
		}
	case i > 0:
		corner[0] = float64(i * t)
	case j > 0:
		corner[0] = float64(j * t)
	}
	out := make([]float64, t*t)
	for r := 0; r < t; r++ {
		gi := i*t + r
		for c := 0; c < t; c++ {
			gj := j*t + c
			var up, lf, dg float64
			if r == 0 {
				up = top[c]
			} else {
				up = out[(r-1)*t+c]
			}
			if c == 0 {
				lf = left[r]
			} else {
				lf = out[r*t+c-1]
			}
			switch {
			case r == 0 && c == 0:
				dg = corner[0]
			case r == 0:
				dg = top[c-1]
			case c == 0:
				dg = left[r-1]
			default:
				dg = out[(r-1)*t+c-1]
			}
			cost := 1.0
			if wf.a[gi] == wf.b[gj] {
				cost = 0
			}
			best := dg + cost
			if up+1 < best {
				best = up + 1
			}
			if lf+1 < best {
				best = lf + 1
			}
			out[r*t+c] = best
		}
	}
	ctx.Write(out)
	return nil
}

// reference is the plain O(N²) edit distance.
func (wf *wavefront) reference() int {
	n := len(wf.a)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if wf.a[i-1] == wf.b[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if prev[j]+1 < best {
				best = prev[j] + 1
			}
			if cur[j-1]+1 < best {
				best = cur[j-1] + 1
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

func randomDNA(n int, seed uint64) []byte {
	s := make([]byte, n)
	for i := range s {
		seed ^= seed >> 12
		seed ^= seed << 25
		seed ^= seed >> 27
		s[i] = "ACGT"[(seed*0x2545F4914F6CDD1D)%4]
	}
	return s
}

func main() {
	const tiles, tile = 12, 16
	n := tiles * tile
	wf := &wavefront{rows: tiles, cols: tiles, tile: tile,
		a: randomDNA(n, 1), b: randomDNA(n, 2)}

	if err := ftdag.Validate(wf); err != nil {
		log.Fatalf("spec invalid: %v", err)
	}
	fmt.Println("graph:", ftdag.Analyze(wf))
	want := wf.reference()

	// Fault-free, with the two-buffer reuse (retention 1: one version per
	// buffer slot lives at a time).
	res, err := ftdag.Run(wf, ftdag.Config{Workers: 4, Retention: 1})
	if err != nil {
		log.Fatal(err)
	}
	report("fault-free", res, tile, want)

	// Now corrupt a mid-grid tile *after it has notified its successors*.
	// By the time a consumer touches the corrupted output, the buffer
	// window has often moved past the failed tile, so recovery must
	// re-execute the chain of tasks that rebuild the needed versions.
	victim := wf.key(tiles/2, tiles/2)
	plan := ftdag.NewPlan().Add(victim, ftdag.AfterNotify, 1)
	res, err = ftdag.Run(wf, ftdag.Config{Workers: 4, Retention: 1, Plan: plan})
	if err != nil {
		log.Fatal(err)
	}
	report("after-notify fault", res, tile, want)
	fmt.Printf("recovery cascade: %d recoveries, %d resets, %d tasks re-executed\n",
		res.Metrics.Recoveries, res.Metrics.Resets, res.ReexecutedTasks)
}

func report(label string, res *ftdag.Result, tile, want int) {
	got := int(res.Sink[tile*tile-1])
	status := "OK"
	if got != want {
		status = fmt.Sprintf("WRONG (want %d)", want)
	}
	fmt.Printf("%-20s edit distance=%d [%s]  elapsed=%v  computes=%d\n",
		label, got, status, res.Elapsed, res.Metrics.Computes)
	if got != want {
		log.Fatal("result mismatch")
	}
}
