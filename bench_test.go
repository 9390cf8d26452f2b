// Benchmarks regenerating each table and figure of the paper's evaluation
// (§VI). Each benchmark runs the measurement its table/figure is built
// from; custom metrics report the quantities the paper plots (re-executed
// tasks, recoveries) alongside ns/op. The experiment harness (cmd/ftbench)
// prints the full formatted tables; these benches are the `go test -bench`
// entry points and use reduced problem sizes so the whole suite completes
// on a small host.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig5a -benchtime=5x
package ftdag_test

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/apps/chol"
	"ftdag/internal/apps/fw"
	"ftdag/internal/apps/lcs"
	"ftdag/internal/apps/lu"
	"ftdag/internal/apps/sw"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
)

var benchSizes = map[string]apps.Config{
	"LCS":      {N: 512, B: 32, Seed: 1},
	"SW":       {N: 512, B: 32, Seed: 2},
	"FW":       {N: 128, B: 16, Seed: 3},
	"LU":       {N: 192, B: 16, Seed: 4},
	"Cholesky": {N: 256, B: 16, Seed: 5},
}

var benchMakers = map[string]apps.Maker{
	"LCS":      lcs.New,
	"SW":       sw.New,
	"FW":       fw.New,
	"LU":       lu.New,
	"Cholesky": chol.New,
}

var benchOrder = []string{"LCS", "LU", "Cholesky", "FW", "SW"}

var benchApps = map[string]apps.App{}

func benchApp(b *testing.B, name string) apps.App {
	b.Helper()
	if a, ok := benchApps[name]; ok {
		return a
	}
	a, err := benchMakers[name](benchSizes[name])
	if err != nil {
		b.Fatal(err)
	}
	benchApps[name] = a
	return a
}

func runFT(b *testing.B, a apps.App, workers int, plan *fault.Plan) *core.Result {
	b.Helper()
	res, err := core.NewFT(a.Spec(), core.Config{
		Workers:   workers,
		Retention: a.Retention(),
		Plan:      plan,
	}).Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// scaled maps the paper's 512-fault count onto the bench-sized graphs
// (512/65536 of the task count, at least 1).
func scaled(a apps.App, paperCount int) int {
	t := graph.Analyze(a.Spec()).Tasks
	n := int(float64(paperCount)*float64(t)/65536.0 + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// BenchmarkTable1GraphStats regenerates Table I: per-benchmark graph
// construction and structural analysis (T, E, S reported as metrics).
func BenchmarkTable1GraphStats(b *testing.B) {
	for _, name := range benchOrder {
		b.Run(name, func(b *testing.B) {
			var p graph.Props
			for i := 0; i < b.N; i++ {
				a, err := benchMakers[name](benchSizes[name])
				if err != nil {
					b.Fatal(err)
				}
				p = graph.Analyze(a.Spec())
			}
			b.ReportMetric(float64(p.Tasks), "T")
			b.ReportMetric(float64(p.Edges), "E")
			b.ReportMetric(float64(p.CriticalPath), "S")
		})
	}
}

// BenchmarkFig4Baseline and BenchmarkFig4FT regenerate Figure 4: execution
// time of the non-fault-tolerant and fault-tolerant schedulers without
// faults, across worker counts (speedup = sequential time / these times).
func BenchmarkFig4Baseline(b *testing.B) {
	for _, name := range benchOrder {
		a := benchApp(b, name)
		for _, p := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/P%d", name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := core.NewBaseline(a.Spec(), core.Config{
						Workers: p, Retention: a.Retention(),
					}).Run()
					if err != nil {
						b.Fatal(err)
					}
					_ = res
				}
			})
		}
	}
}

func BenchmarkFig4FT(b *testing.B) {
	for _, name := range benchOrder {
		a := benchApp(b, name)
		for _, p := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/P%d", name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runFT(b, a, p, nil)
				}
			})
		}
	}
}

// BenchmarkFig4Sequential provides the T1 numerator of Figure 4's speedups.
func BenchmarkFig4Sequential(b *testing.B) {
	for _, name := range benchOrder {
		a := benchApp(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewSequential(a.Spec(), a.Retention()).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFaultScenario is the shared body of the fault-injection benchmarks.
func benchFaultScenario(b *testing.B, name string, point fault.Point, typ fault.TaskType, count int) {
	a := benchApp(b, name)
	var reexec, recoveries int64
	for i := 0; i < b.N; i++ {
		plan := fault.PlanCount(a.Spec(), typ, point, count, int64(i))
		res := runFT(b, a, 4, plan)
		reexec += res.ReexecutedTasks
		recoveries += res.Metrics.Recoveries
	}
	b.ReportMetric(float64(count), "faults")
	b.ReportMetric(float64(reexec)/float64(b.N), "reexec/op")
	b.ReportMetric(float64(recoveries)/float64(b.N), "recoveries/op")
}

// BenchmarkFig5a regenerates Figure 5a: fixed (512-equivalent) fault count
// at the before-compute and after-compute points on each task type.
func BenchmarkFig5a(b *testing.B) {
	points := map[string]fault.Point{"before": fault.BeforeCompute, "after": fault.AfterCompute}
	types := map[string]fault.TaskType{"v0": fault.V0, "vrand": fault.VRand, "vlast": fault.VLast}
	for _, name := range benchOrder {
		for pn, pt := range points {
			for tn, ty := range types {
				b.Run(fmt.Sprintf("%s/%s/%s", name, pn, tn), func(b *testing.B) {
					benchFaultScenario(b, name, pt, ty, scaled(benchApp(b, name), 512))
				})
			}
		}
	}
}

// BenchmarkFig5b regenerates Figure 5b: 2% and 5% of all tasks fail
// (v=rand, before/after compute).
func BenchmarkFig5b(b *testing.B) {
	points := map[string]fault.Point{"before": fault.BeforeCompute, "after": fault.AfterCompute}
	for _, name := range benchOrder {
		a := benchApp(b, name)
		t := graph.Analyze(a.Spec()).Tasks
		for _, pct := range []int{2, 5} {
			for pn, pt := range points {
				b.Run(fmt.Sprintf("%s/%dpct/%s", name, pct, pn), func(b *testing.B) {
					benchFaultScenario(b, name, pt, fault.VRand, t*pct/100)
				})
			}
		}
	}
}

// BenchmarkTable2 regenerates Table II: after-notify faults on each task
// type; the reexec/op metric is the table's re-executed-task statistic.
func BenchmarkTable2(b *testing.B) {
	types := map[string]fault.TaskType{"v0": fault.V0, "vlast": fault.VLast, "vrand": fault.VRand}
	for _, name := range benchOrder {
		for tn, ty := range types {
			b.Run(fmt.Sprintf("%s/%s", name, tn), func(b *testing.B) {
				benchFaultScenario(b, name, fault.AfterNotify, ty, scaled(benchApp(b, name), 512))
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: after-notify overhead for the fixed
// count per task type plus the 2% and 5% v=rand scenarios.
func BenchmarkFig6(b *testing.B) {
	for _, name := range benchOrder {
		a := benchApp(b, name)
		t := graph.Analyze(a.Spec()).Tasks
		b.Run(name+"/512eq-v0", func(b *testing.B) {
			benchFaultScenario(b, name, fault.AfterNotify, fault.V0, scaled(a, 512))
		})
		b.Run(name+"/512eq-vrand", func(b *testing.B) {
			benchFaultScenario(b, name, fault.AfterNotify, fault.VRand, scaled(a, 512))
		})
		b.Run(name+"/512eq-vlast", func(b *testing.B) {
			benchFaultScenario(b, name, fault.AfterNotify, fault.VLast, scaled(a, 512))
		})
		b.Run(name+"/2pct", func(b *testing.B) {
			benchFaultScenario(b, name, fault.AfterNotify, fault.VRand, t*2/100)
		})
		b.Run(name+"/5pct", func(b *testing.B) {
			benchFaultScenario(b, name, fault.AfterNotify, fault.VRand, t*5/100)
		})
	}
}

// BenchmarkFig7 regenerates Figure 7: recovery overhead vs worker count for
// the fixed-count (a) and 5% (b) scenarios, after-compute faults on v=rand.
func BenchmarkFig7(b *testing.B) {
	for _, name := range benchOrder {
		a := benchApp(b, name)
		t := graph.Analyze(a.Spec()).Tasks
		for _, p := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/512eq/P%d", name, p), func(b *testing.B) {
				count := scaled(a, 512)
				var reexec int64
				for i := 0; i < b.N; i++ {
					plan := fault.PlanCount(a.Spec(), fault.VRand, fault.AfterCompute, count, int64(i))
					res := runFT(b, a, p, plan)
					reexec += res.ReexecutedTasks
				}
				b.ReportMetric(float64(reexec)/float64(b.N), "reexec/op")
			})
			b.Run(fmt.Sprintf("%s/5pct/P%d", name, p), func(b *testing.B) {
				count := t * 5 / 100
				var reexec int64
				for i := 0; i < b.N; i++ {
					plan := fault.PlanCount(a.Spec(), fault.VRand, fault.AfterCompute, count, int64(i))
					res := runFT(b, a, p, plan)
					reexec += res.ReexecutedTasks
				}
				b.ReportMetric(float64(reexec)/float64(b.N), "reexec/op")
			})
		}
	}
}

// BenchmarkFixedCounts covers the paper's small constant-count scenarios
// (1, 8, 64 re-executions: §VI-B reports no statistically significant
// overhead for these).
func BenchmarkFixedCounts(b *testing.B) {
	for _, name := range benchOrder {
		for _, count := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/%d", name, count), func(b *testing.B) {
				benchFaultScenario(b, name, fault.AfterCompute, fault.VRand, count)
			})
		}
	}
}

// benchLayered is the fine-grain fixed-cost benchmark: the graph of bench/'s
// finegrain_dag (102 401 trivial tasks), so ns/task, B/task and allocs/task
// are what an executor spends per task on traversal, notification and block
// access. It runs one worker per P, so -cpu 1,2 prints T1 and T2, and
// cpu-ns/task — the process's user and system time, the collector's included —
// at two Ps over one P is how much the work grows when a worker is added.
func benchLayered(b *testing.B, run func(graph.Spec, core.Config) (*core.Result, error)) {
	g := graph.Layered(400, 256, 3, 1, nil)
	cfg := core.Config{Workers: runtime.GOMAXPROCS(0), VerifyChecksums: true}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tasks := 0
	cpu := processCPU(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tasks = res.Tasks
	}
	b.StopTimer()
	cpu = processCPU(b) - cpu
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(tasks)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/task")
	b.ReportMetric(float64(cpu.Nanoseconds())/n, "cpu-ns/task")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/task")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/task")
}

// processCPU is the user and system time the process has used so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func BenchmarkLayeredFT(b *testing.B) {
	benchLayered(b, func(g graph.Spec, c core.Config) (*core.Result, error) { return core.NewFT(g, c).Run() })
}

func BenchmarkLayeredBaseline(b *testing.B) {
	benchLayered(b, func(g graph.Spec, c core.Config) (*core.Result, error) { return core.NewBaseline(g, c).Run() })
}
