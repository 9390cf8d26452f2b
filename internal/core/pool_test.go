package core

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftdag/internal/graph"
)

// fifoPool is the executor's second pool: P goroutines over one
// mutex-guarded FIFO, and one run's group. submit and every spawn append to
// the queue, and a worker takes the oldest entry it may run: an entry
// spawned avoiding a worker is skipped by that worker, unless the pool has
// only worker 0. An aborted pool's queued jobs are taken and dropped unrun,
// as a sched.Group's are. There is no deque and no steal: what the executor
// gets right on it, it gets right without the production pool's
// owner-LIFO/thief-FIFO order.
type fifoPool struct {
	workers int
	mu      sync.Mutex
	cond    *sync.Cond // a push, quiescence, Abort and close broadcast on it
	queue   []fifoEntry
	pending int // jobs queued or running
	closed  bool
	aborted atomic.Bool
	exited  sync.WaitGroup
}

type fifoEntry struct {
	j     job
	arg   int
	avoid int // the worker that must not run it, or -1
}

// jobFunc is a test's function as a job.
type jobFunc func(w worker)

func (f jobFunc) run(w worker, _ int) { f(w) }

func newFIFOPool(workers int) *fifoPool {
	p := &fifoPool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.exited.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work(worker{id: i})
	}
	return p
}

func (p *fifoPool) push(e fifoEntry) {
	p.mu.Lock()
	p.queue = append(p.queue, e)
	p.pending++
	p.cond.Broadcast() // a Signal could wake only the worker the entry avoids
	p.mu.Unlock()
}

func (p *fifoPool) submit(j job)                   { p.push(fifoEntry{j: j, avoid: -1}) }
func (p *fifoPool) spawn(_ worker, j job, arg int) { p.push(fifoEntry{j: j, arg: arg, avoid: -1}) }
func (p *fifoPool) spawnAvoiding(w worker, j job)  { p.push(fifoEntry{j: j, avoid: w.id}) }

func (p *fifoPool) Wait() {
	p.mu.Lock()
	for p.pending > 0 && !p.aborted.Load() {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

func (p *fifoPool) Abort() {
	p.aborted.Store(true)
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *fifoPool) Aborted() bool { return p.aborted.Load() }

// take removes the oldest entry w may run, waiting for one; it reports false
// once the pool is closed and holds nothing w may run.
func (p *fifoPool) take(w worker) (fifoEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for i, e := range p.queue {
			if e.avoid != w.id || p.workers == 1 {
				p.queue = slices.Delete(p.queue, i, i+1)
				return e, true
			}
		}
		if p.closed {
			return fifoEntry{}, false
		}
		p.cond.Wait()
	}
}

func (p *fifoPool) work(w worker) {
	defer p.exited.Done()
	for {
		e, ok := p.take(w)
		if !ok {
			return
		}
		if !p.Aborted() {
			e.j.run(w, e.arg)
		}
		p.mu.Lock()
		if p.pending--; p.pending == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
		runtime.Gosched() // the other workers take jobs too, at GOMAXPROCS=1
	}
}

// close stops the workers once the queue is empty and waits for them.
func (p *fifoPool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.exited.Wait()
}

// pools names the pools the executor's Theorem-1 tests run on: the
// production work-stealing pool and the FIFO pool.
var pools = []string{"sched", "fifo"}

// runPool executes e on the named pool, of e's Config.Workers workers.
func runPool[S state](pool string, e *exec[S]) (*Result, error) {
	if pool == "sched" {
		return e.Run()
	}
	p := newFIFOPool(e.cfg.workers())
	defer p.close()
	return e.runOn(p)
}

// withWorker runs f as a job on a one-worker FIFO pool that is e's group,
// and waits until f and everything it spawned has run: the routines of
// Fig. 2 and Fig. 3 take the worker they run on, and spawn through e's group.
func withWorker[S state](t *testing.T, e *exec[S], f func(w worker)) {
	t.Helper()
	p := newFIFOPool(1)
	e.group = p
	p.submit(jobFunc(f))
	done := make(chan struct{})
	go func() {
		p.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(testTimeout):
		t.Fatal("worker did not quiesce")
	}
	p.close()
}

// TestSchedImportedOnlyByTheSeam: of the package's non-test files only
// pool.go imports the production scheduler, so the executor runs on any pool
// that pool.go's worker, job and group describe.
func TestSchedImportedOnlyByTheSeam(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "pool.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "ftdag/internal/sched" {
				t.Errorf("%s imports %s: only pool.go may", name, path)
			}
		}
	}
}

// TestFIFOPoolComputesOnEveryWorker: a run on the FIFO pool computes on every
// one of its workers, so the Theorem-1 tests that run on it run on P
// goroutines, not one. Each of the sink's P sources holds its worker until
// all P hold one, which only P workers taking jobs side by side can do.
func TestFIFOPoolComputesOnEveryWorker(t *testing.T) {
	const workers = 4
	var holding atomic.Int32
	g := graph.NewStatic(func(key graph.Key, vals [][]float64) []float64 {
		if len(vals) == 0 {
			holding.Add(1)
			for deadline := time.Now().Add(testTimeout); holding.Load() < workers && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
		}
		return []float64{1}
	})
	g.AddTaskAuto(workers).SetSink(workers)
	for k := graph.Key(0); k < workers; k++ {
		g.AddTaskAuto(k).AddEdge(k, workers)
	}
	e := NewFT(g, Config{Workers: workers, Timeout: 2 * testTimeout})
	if _, err := runPool("fifo", e); err != nil {
		t.Fatal(err)
	}
	for i := range e.met.blocks {
		if n := e.met.blocks[i].computes.Load(); n == 0 {
			t.Errorf("worker %d of %d computed nothing", i, workers)
		}
	}
}
