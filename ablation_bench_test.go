// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - block-version retention: single-assignment (unbounded) vs reuse (1)
//     vs two versions (2), measuring both fault-free cost and the recovery
//     cascade length the paper's §VI discusses for Floyd-Warshall;
//   - FT bookkeeping: the fault-tolerant executor vs the plain NABBIT
//     baseline, isolating the cost of bit vectors, life numbers, and the
//     recovery table (the paper's Figure 4 claim: within noise).
package ftdag_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/apps/fw"
	"ftdag/internal/block"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/harness"
	"ftdag/internal/replica"
	"ftdag/internal/sched"
)

// BenchmarkAblationRetention sweeps the block-version retention on FW: the
// paper chose two versions per block specifically to bound the recovery
// cascade; retention 0 (single assignment) removes cascades entirely at the
// cost of memory, and the reexec/op metric shows the cascade length each
// policy pays under after-compute faults.
func BenchmarkAblationRetention(b *testing.B) {
	a, err := fw.New(apps.Config{N: 128, B: 16, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	count := scaled(a, 512)
	for _, retention := range []int{0, 2, 3} {
		b.Run(fmt.Sprintf("faulty/K%d", retention), func(b *testing.B) {
			var reexec int64
			var bytes int64
			for i := 0; i < b.N; i++ {
				plan := fault.PlanCount(a.Spec(), fault.VRand, fault.AfterCompute, count, int64(i))
				res, err := core.NewFT(a.Spec(), core.Config{
					Workers:   2,
					Retention: retention,
					Plan:      plan,
				}).Run()
				if err != nil {
					b.Fatal(err)
				}
				reexec += res.ReexecutedTasks
				bytes += res.Store.BytesRetained
			}
			b.ReportMetric(float64(reexec)/float64(b.N), "reexec/op")
			b.ReportMetric(float64(bytes)/float64(b.N)/1e6, "retainedMB")
		})
		b.Run(fmt.Sprintf("clean/K%d", retention), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := core.NewFT(a.Spec(), core.Config{
					Workers:   2,
					Retention: retention,
				}).Run()
				if err != nil {
					b.Fatal(err)
				}
				bytes += res.Store.BytesRetained
			}
			b.ReportMetric(float64(bytes)/float64(b.N)/1e6, "retainedMB")
		})
	}
}

// BenchmarkAblationFTBookkeeping isolates the fault-tolerance bookkeeping
// cost (bit vectors, life tracking, recovery table) by comparing the FT
// executor against the plain NABBIT baseline on identical graphs — the
// paper's Figure 4 comparison, as a microbenchmark.
func BenchmarkAblationFTBookkeeping(b *testing.B) {
	for _, name := range benchOrder {
		a := benchApp(b, name)
		b.Run(name+"/baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewBaseline(a.Spec(), core.Config{
					Workers: 2, Retention: a.Retention(),
				}).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/ft", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFT(b, a, 2, nil)
			}
		})
	}
}

// BenchmarkAblationTraversalOverhead measures the pure scheduling cost per
// task by running graphs whose computes are trivial: the difference between
// executors is all bookkeeping.
func BenchmarkAblationTraversalOverhead(b *testing.B) {
	g := graph.Layered(50, 40, 4, 7, func(key graph.Key, vals [][]float64) []float64 {
		return []float64{1}
	})
	props := graph.Analyze(g)
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewBaseline(g, core.Config{Workers: 2}).Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(props.Tasks), "tasks")
	})
	b.Run("ft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewFT(g, core.Config{Workers: 2}).Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(props.Tasks), "tasks")
	})
}

// desc mirrors the part of core.Task that check() reads: the poisoned flag,
// a bit of the state word.
type desc struct {
	state atomic.Uint32
	key   graph.Key
	life  int
	preds [3]graph.Key
}

func (d *desc) check() error {
	if d.state.Load()&4 != 0 {
		return fault.Errorf(d.key, d.life)
	}
	return nil
}

//go:noinline
func (d *desc) work() { d.life++ }

// The closure-shaped try/catch the FT routines had, and the straight-line
// form they have now; work stands for the calls that kept the closure from
// being inlined.
func (d *desc) tryClosure() {
	err := func() error {
		if err := d.check(); err != nil {
			return err
		}
		d.work()
		return nil
	}()
	if err != nil {
		panic(err)
	}
}

func (d *desc) tryStraight() {
	if err := d.check(); err != nil {
		panic(err)
	}
	d.work()
}

// chain is a Runner that respawns itself, through its group when it has one.
type chain struct {
	g    *sched.Group
	left int
	done chan struct{}
}

func (c *chain) Run(w *sched.Worker, _ int) {
	switch c.left--; {
	case c.left < 0:
		close(c.done)
	case c.g != nil:
		c.g.SpawnRunner(w, c, 0)
	default:
		w.SpawnRunner(c, 0)
	}
}

// Nil as the executor sees it on a fault-free, untraced run; package-level
// so that the compiler does not fold the nil checks away.
var (
	noPlan  *fault.Plan
	noSet   *replica.Set
	taxSink int
	taxPtr  any
)

// BenchmarkAblationFTTax is the ledger of what fault tolerance costs a
// fault-free task (ROADMAP item 5): each row times one mechanism the NABBIT
// baseline does without — alone, on one goroutine, so uncontended — and
// multiplies it by how often a task of Layered(400, 256, 3), bench/'s
// finegrain_dag graph, pays it, counted from one run's Result. tax-ns/op is
// the mechanism's cost over doing without it, tax-ns/task that times
// events/task. Before the straight-line path a task paid check() once more per
// traversal and the closure once per check(); before PR 25 a grouped job paid
// two tally pairs, a notification a bit and a join decrement, and a nil plan
// four calls. The measured rows are whole runs, FT minus baseline per task,
// for the rows to be summed against (EXPERIMENTS.md "Quiescence without a
// shared counter", "The baseline's RMW count").
func BenchmarkAblationFTTax(b *testing.B) {
	g := graph.Layered(400, 256, 3, 1, nil)
	res, err := core.NewFT(g, core.Config{Workers: 2, VerifyChecksums: true}).Run()
	if err != nil {
		b.Fatal(err)
	}
	tasks := float64(res.Tasks)
	notifs := float64(res.Metrics.Notifications) / tasks
	edges := notifs - 1 // a traversal and a notification per predecessor, one notification more: the task's own
	reads := float64(res.Store.Reads) / tasks
	writes := float64(res.Store.Writes) / tasks
	spawns := float64(res.Sched.Spawns) / tasks

	// with and without take turns, a sixteenth of the iterations at a time, so
	// that a slow spell of the host lands on both.
	row := func(name string, perTask float64, with, without func(n int)) {
		b.Run(name, func(b *testing.B) {
			var tax time.Duration
			for n, left := max(b.N/16, 1), b.N; left > 0; left -= n {
				n = min(n, left)
				start := time.Now()
				with(n)
				tax += time.Since(start)
				if without != nil {
					start = time.Now()
					without(n)
					tax -= time.Since(start)
				}
			}
			perOp := float64(tax) / float64(b.N)
			b.ReportMetric(perOp, "tax-ns/op")
			b.ReportMetric(perTask, "events/task")
			b.ReportMetric(perOp*perTask, "tax-ns/task")
		})
	}

	descs := make([]desc, 1024)
	for i := range descs {
		descs[i].preds = [3]graph.Key{graph.Key(i), graph.Key(i + 1), graph.Key(i + 2)}
	}
	row("check", edges+notifs+1, func(n int) {
		for i := 0; i < n; i++ {
			if descs[i&1023].check() != nil {
				taxSink++
			}
		}
	}, nil)
	row("closure-try", 0, func(n int) {
		for i := 0; i < n; i++ {
			descs[i&1023].tryClosure()
		}
	}, func(n int) {
		for i := 0; i < n; i++ {
			descs[i&1023].tryStraight()
		}
	})

	// The two descriptors as the executors allocate them: core.Task is 144
	// bytes, a size class of its own, core.BaselineTask 120, allocated as
	// 128; both hold pointers.
	row("descriptor-24B", 1, func(n int) {
		for i := 0; i < n; i++ {
			taxPtr = new(core.Task)
		}
	}, func(n int) {
		for i := 0; i < n; i++ {
			taxPtr = new(core.BaselineTask)
		}
	})

	// A notification, as notifyOnce makes it (Join): FT clears the notifier's
	// bit, and the clear that empties the vector is the join; the baseline
	// decrements its join counter. One descriptor of each per Layered task
	// (three predecessors and the self slot), re-armed by the notification
	// that makes it ready.
	fts := make([]core.Task, 1024)
	nabbits := make([]core.BaselineTask, 1024)
	for i := range fts {
		fts[i].Arm(4)
		nabbits[i].Arm(4)
	}
	row("bit-test-and-clear", notifs, func(n int) {
		for i := 0; i < n; i++ {
			t := &fts[i&1023]
			if _, last := t.Join(i >> 10 & 3); last {
				t.Arm(4)
			}
		}
	}, func(n int) {
		for i := 0; i < n; i++ {
			t := &nabbits[i&1023]
			if _, last := t.Join(i >> 10 & 3); last {
				t.Arm(4)
			}
		}
	})
	row("pred-index", edges, func(n int) {
		for i := 0; i < n; i++ {
			d := &descs[i&1023]
			for j, p := range d.preds {
				if p == d.preds[i%3] {
					taxSink += j
					break
				}
			}
		}
	}, func(n int) {
		for i := 0; i < n; i++ {
			taxSink += int(descs[i&1023].preds[i%3])
		}
	})

	pool := sched.NewPool(1)
	defer pool.Close()
	cycle := func(grouped bool) func(n int) {
		return func(n int) {
			c := &chain{left: n, done: make(chan struct{})}
			if grouped {
				c.g = pool.NewGroup()
				c.g.Submit(func(w *sched.Worker) { c.Run(w, 0) })
			} else {
				pool.Submit(func(w *sched.Worker) { c.Run(w, 0) })
			}
			<-c.done
		}
	}
	row("group-spawn", spawns, cycle(true), cycle(false))

	for _, size := range []struct {
		name    string
		f64     int
		perTask float64 // a Layered payload is one float64; the apps' blocks are the 8 KiB ones
	}{{"8B", 1, 1}, {"8KiB", 1024, 0}} {
		payload := make([]float64, size.f64)
		for i := range payload {
			payload[i] = float64(i) + 0.5
		}
		read := func(opts ...block.Option) func(n int) {
			s := block.NewStore(0, opts...)
			s.Write(0, 0, 0, payload) // a copy: both rows' stores read payload
			sl := s.Slot(0)
			var arena block.Arena
			return func(n int) {
				for i := 0; i < n; i++ {
					d, err := sl.Read(0, &arena, nil)
					if err != nil {
						b.Fatal(err)
					}
					if len(d) >= block.PoolMin {
						block.Free(d)
					} else {
						arena.Reset()
					}
				}
			}
		}
		row("verified-read/"+size.name, reads*size.perTask, read(block.WithVerification()), read())
		// The baseline's writes are checksummed too: a row of the table, not of the difference.
		row("write-checksum/"+size.name, writes*size.perTask, func(n int) {
			for i := 0; i < n; i++ {
				taxSink += int(block.Checksum(payload))
			}
		}, nil)
	}

	row("plan-fire-nil", 4, func(n int) {
		for i := 0; i < n; i++ {
			if noPlan.Fire(graph.Key(i), 0, fault.AfterCompute) {
				taxSink++
			}
		}
	}, nil)
	row("replicate-contains-nil", 1, func(n int) {
		for i := 0; i < n; i++ {
			if noSet.Contains(graph.Key(i)) {
				taxSink++
			}
		}
	}, nil)

	// Whole runs as bench/ makes them: FT verifies what it reads, the
	// baseline does not. On one worker the difference is what the rows above
	// should sum to; on two it is what finegrain_dag sees of it, for the
	// Layered graph (per task) and for one quick LCS plus one quick SW, which
	// finegrain_dag runs eight times each (per pair of runs).
	type item struct {
		spec      graph.Spec
		retention int
	}
	whole := func(items []item, workers int, baseline bool) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				for _, it := range items {
					var err error
					if baseline {
						_, err = core.NewBaseline(it.spec, core.Config{Workers: workers, Retention: it.retention}).Run()
					} else {
						_, err = core.NewFT(it.spec, core.Config{Workers: workers, Retention: it.retention, VerifyChecksums: true}).Run()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	layered := []item{{g, 0}}
	row("measured/layered-1worker", 1/tasks, whole(layered, 1, false), whole(layered, 1, true))
	row("measured/layered-2workers", 1/tasks, whole(layered, 2, false), whole(layered, 2, true))
	var quick []item
	for _, name := range []string{"LCS", "SW"} {
		a, err := harness.MakeApp(name, harness.QuickSizes()[name])
		if err != nil {
			b.Fatal(err)
		}
		quick = append(quick, item{a.Spec(), a.Retention()})
	}
	row("measured/quick-lcs-sw-2workers", 0, whole(quick, 2, false), whole(quick, 2, true))
}

// BenchmarkAppsVerifySplit splits FT's cost on each app at
// harness.BenchSizes, two workers, into the paper's part and verification's:
// every iteration runs the app under NABBIT, under FT with the paper's
// detection model alone (a fault is seen through the injector's flag: no
// checksum is verified) and under FT + VerifyChecksums, as bench/'s FT legs
// run, starting each iteration at the next of the three so that a slow spell
// of the host lands on all of them. nabbit_ms is NABBIT's time per run,
// paper_ratio flag-only FT ÷ NABBIT (Fig. 4's ratio) and verify_ms FT + verify
// − flag-only FT per run: what hashing the reads costs. bench/ reports no
// such split, and its traced runs read whole tiles, so they do not show a
// change to what a boundary read hashes.
func BenchmarkAppsVerifySplit(b *testing.B) {
	sizes := harness.BenchSizes()
	for _, name := range benchOrder {
		a, err := harness.MakeApp(name, sizes[name])
		if err != nil {
			b.Fatal(err)
		}
		c := core.Config{Workers: 2, Retention: a.Retention()}
		v := c
		v.VerifyChecksums = true
		legs := [3]func() (*core.Result, error){
			func() (*core.Result, error) { return core.NewBaseline(a.Spec(), c).Run() },
			func() (*core.Result, error) { return core.NewFT(a.Spec(), c).Run() },
			func() (*core.Result, error) { return core.NewFT(a.Spec(), v).Run() },
		}
		b.Run(name, func(b *testing.B) {
			var spent [3]time.Duration // NABBIT, flag-only FT, FT + verify
			for i := 0; i < b.N; i++ {
				for j := range legs {
					leg := (i + j) % len(legs)
					start := time.Now()
					if _, err := legs[leg](); err != nil {
						b.Fatal(err)
					}
					spent[leg] += time.Since(start)
				}
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
			b.ReportMetric(ms(spent[0]), "nabbit_ms")
			b.ReportMetric(float64(spent[1])/float64(spent[0]), "paper_ratio")
			b.ReportMetric(ms(spent[2]-spent[1]), "verify_ms")
		})
	}
}
