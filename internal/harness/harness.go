// Package harness drives the paper's experimental evaluation (§VI): it
// constructs benchmark instances, runs them under the sequential, baseline,
// and fault-tolerant executors with configurable fault scenarios, and prints
// the rows and series of every table and figure (Table I, Figures 4–7,
// Table II).
//
// Because this reproduction runs on whatever host it is given rather than
// the paper's 48-core Opteron, sizes are configurable: the default "bench"
// sizes keep a full suite run in minutes, and -paper selects the original
// problem sizes. Fixed fault counts are expressed both literally (1, 8, 64,
// 512) and as the paper-equivalent fraction of the scaled task count.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
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

// AppNames is the fixed presentation order used by the paper's tables.
var AppNames = []string{"LCS", "LU", "Cholesky", "FW", "SW"}

// makers maps app names to constructors.
var makers = map[string]apps.Maker{
	"LCS":      lcs.New,
	"SW":       sw.New,
	"FW":       fw.New,
	"LU":       lu.New,
	"Cholesky": chol.New,
}

// MakeApp constructs the named benchmark app with the given configuration.
// Exported for callers outside the harness's scenario flow — the multi-job
// service tests and the ftserve daemon build per-job app instances directly.
func MakeApp(name string, cfg apps.Config) (apps.App, error) {
	mk, ok := makers[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown app %q (have %v)", name, AppNames)
	}
	return mk(cfg)
}

// Sizes holds one problem configuration per benchmark.
type Sizes map[string]apps.Config

// BenchSizes are the default scaled-down configurations (whole-suite runs
// stay tractable on a small host while keeping thousands of tasks per
// graph).
func BenchSizes() Sizes {
	return Sizes{
		"LCS":      {N: 2048, B: 64, Seed: 1},
		"SW":       {N: 2048, B: 64, Seed: 2},
		"FW":       {N: 384, B: 32, Seed: 3},
		"LU":       {N: 512, B: 32, Seed: 4},
		"Cholesky": {N: 640, B: 32, Seed: 5},
	}
}

// QuickSizes are tiny configurations for tests and smoke runs.
func QuickSizes() Sizes {
	return Sizes{
		"LCS":      {N: 256, B: 16, Seed: 1},
		"SW":       {N: 256, B: 16, Seed: 2},
		"FW":       {N: 96, B: 16, Seed: 3},
		"LU":       {N: 128, B: 16, Seed: 4},
		"Cholesky": {N: 160, B: 16, Seed: 5},
	}
}

// PaperSizes are the original Table I configurations. Running them requires
// hardware comparable to the paper's testbed.
func PaperSizes() Sizes {
	return Sizes{
		"LCS":      {N: 512 * 1024, B: 2 * 1024, Seed: 1},
		"SW":       {N: 6016, B: 128, Seed: 2},
		"FW":       {N: 5120, B: 128, Seed: 3},
		"LU":       {N: 10240, B: 128, Seed: 4},
		"Cholesky": {N: 10240, B: 128, Seed: 5},
	}
}

// Options configures a harness run.
type Options struct {
	Sizes Sizes
	// Runs is the number of repetitions per measurement (paper: 10).
	Runs int
	// Cores are the worker counts swept by Figures 4 and 7
	// (paper: 1, 2, 4, 8, 16, 32, 44).
	Cores []int
	// Workers is the worker count for the single-P fault experiments.
	Workers int
	// Seed seeds fault-site selection.
	Seed int64
	// Verify re-checks the sink against the app's reference
	// implementation on the first run of every scenario.
	Verify bool
	// Out receives the formatted tables.
	Out io.Writer
	// CSVDir, when set, additionally writes each experiment's rows as
	// <CSVDir>/<experiment>.csv for plotting.
	CSVDir string
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.Sizes == nil {
		o.Sizes = BenchSizes()
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{1, 2, 4, 8}
	}
	if o.Workers <= 0 {
		o.Workers = o.Cores[len(o.Cores)-1]
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Harness caches constructed apps and fault-free base timings.
type Harness struct {
	opts  Options
	insts map[string]apps.App
	props map[string]graph.Props
	seq   map[string]time.Duration // sequential FT-structure times
	chain map[string]float64       // re-execution chain length per "app/point/type"
}

// New builds a harness (apps are constructed lazily).
func New(opts Options) *Harness {
	return &Harness{
		opts:  opts.Defaults(),
		insts: make(map[string]apps.App),
		props: make(map[string]graph.Props),
		seq:   make(map[string]time.Duration),
		chain: make(map[string]float64),
	}
}

// App returns (constructing if needed) the named benchmark instance.
func (h *Harness) App(name string) apps.App {
	if a, ok := h.insts[name]; ok {
		return a
	}
	cfg, ok := h.opts.Sizes[name]
	if !ok {
		panic("harness: no size configured for " + name)
	}
	a, err := makers[name](cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: building %s: %v", name, err))
	}
	h.insts[name] = a
	return a
}

// Props returns the static graph properties of the named benchmark.
func (h *Harness) Props(name string) graph.Props {
	if p, ok := h.props[name]; ok {
		return p
	}
	p := graph.Analyze(h.App(name).Spec())
	h.props[name] = p
	return p
}

// gomaxprocs raises GOMAXPROCS to at least p for the duration of a
// measurement, restoring it afterwards via the returned func.
func gomaxprocs(p int) func() {
	old := runtime.GOMAXPROCS(0)
	if p > old {
		runtime.GOMAXPROCS(p)
		return func() { runtime.GOMAXPROCS(old) }
	}
	return func() {}
}

// RunFT executes the named app once under the FT scheduler with cfg, its
// Retention taken from the app and GOMAXPROCS raised to cfg.Workers; the
// caller sets the Plan, the Replicate set or the Spans.
func (h *Harness) RunFT(name string, cfg core.Config, verify bool) (*core.Result, error) {
	a := h.App(name)
	restore := gomaxprocs(cfg.Workers)
	defer restore()
	cfg.Retention = a.Retention()
	res, err := core.NewFT(a.Spec(), cfg).Run()
	if err != nil {
		return nil, fmt.Errorf("%s (P=%d): %w", name, cfg.Workers, err)
	}
	if verify {
		if err := a.VerifySink(res.Sink); err != nil {
			return nil, fmt.Errorf("%s (P=%d): %w", name, cfg.Workers, err)
		}
	}
	return res, nil
}

// RunBaseline executes the named app once under the non-FT scheduler.
func (h *Harness) RunBaseline(name string, workers int) (*core.Result, error) {
	a := h.App(name)
	restore := gomaxprocs(workers)
	defer restore()
	res, err := core.NewBaseline(a.Spec(), core.Config{
		Workers:   workers,
		Retention: a.Retention(),
	}).Run()
	if err != nil {
		return nil, fmt.Errorf("%s baseline (P=%d): %w", name, workers, err)
	}
	return res, nil
}

// SeqTime measures (once, cached) the sequential execution time of the
// named app — the T1 denominator of the speedup plots.
func (h *Harness) SeqTime(name string) (time.Duration, error) {
	if d, ok := h.seq[name]; ok {
		return d, nil
	}
	a := h.App(name)
	res, err := core.NewSequential(a.Spec(), a.Retention()).Run()
	if err != nil {
		return 0, fmt.Errorf("%s sequential: %w", name, err)
	}
	if h.opts.Verify {
		if err := a.VerifySink(res.Sink); err != nil {
			return 0, err
		}
	}
	h.seq[name] = res.Elapsed
	return res.Elapsed, nil
}

// ScaledCount maps one of the paper's fixed fault counts (which assumed
// 64K–174K-task graphs) onto the configured graph size, preserving the
// fraction of tasks the paper's count represented on its smallest graph
// (512/65536 ≈ 0.78%). Literal counts are used when the graph is at least
// paper-sized; every result line reports the actual count used.
func (h *Harness) ScaledCount(name string, paperCount int) int {
	t := h.Props(name).Tasks
	if t >= 65536 {
		return paperCount
	}
	n := int(float64(paperCount)*float64(t)/65536.0 + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// sortedCores returns the option's core counts, ascending.
func (h *Harness) sortedCores() []int {
	cs := append([]int(nil), h.opts.Cores...)
	sort.Ints(cs)
	return cs
}

// CalibrateCount returns an injection count whose expected total
// re-execution is close to target, following the paper's methodology: the
// scenarios are defined by the amount of work lost ("injected failures
// causing 2% and 5% of the total number of tasks to be re-executed"), and
// with memory reuse a single fault cascades into a chain of recomputed
// versions, so the injection count must be divided by the mean chain
// length. The chain length is estimated with a small pilot run and cached
// per (app, point, type).
func (h *Harness) CalibrateCount(name string, point fault.Point, typ fault.TaskType, target int) (int, error) {
	if target < 1 {
		target = 1
	}
	if point == fault.BeforeCompute {
		// Before-compute faults re-execute nothing; the paper pairs
		// them with the after-compute task sets, so calibrate as if
		// the same faults struck after compute.
		point = fault.AfterCompute
	}
	key := fmt.Sprintf("%s/%v/%v", name, point, typ)
	if c, ok := h.chain[key]; ok {
		return scaleByChain(target, c), nil
	}
	pilot := target / 8
	if pilot < 2 {
		pilot = 2
	}
	if pilot > 16 {
		pilot = 16
	}
	var reexec int64
	const pilotRuns = 2
	for r := 0; r < pilotRuns; r++ {
		plan := fault.PlanCount(h.App(name).Spec(), typ, point, pilot, h.opts.Seed+1000+int64(r))
		res, err := h.RunFT(name, core.Config{Workers: h.opts.Workers, Plan: plan}, false)
		if err != nil {
			return 0, fmt.Errorf("calibrating %s: %w", key, err)
		}
		reexec += res.ReexecutedTasks
	}
	c := float64(reexec) / float64(pilotRuns*pilot)
	if c < 1 {
		c = 1
	}
	h.chain[key] = c
	return scaleByChain(target, c), nil
}

func scaleByChain(target int, chain float64) int {
	n := int(float64(target)/chain + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
