// Command bench is the repository's one layered benchmark (BENCHMARK.json).
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One invocation runs one workload: it builds its inputs from the seed, sets
// up several times (setup_s is the median), measures for the given number of
// seconds, checks every result against a sequential reference digest, prints
// a readable report, and ends standard output with one JSON line holding the
// end-to-end metrics (trace 0) or the per-layer metrics (trace 1) that
// BENCHMARK.json declares. See README.md for every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // tiny inputs and a sub-second window, for the smoke test
	root     string // checkout root: BENCHMARK.json, go.mod, cmd/ftserve
	out      string // when set, the result line is also appended to this file
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outLine is what -out appends: the result plus what produced it, so
// bench/compare can group runs by workload.
type outLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name from BENCHMARK.json")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and window (smoke test)")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	fs.StringVar(&o.out, "out", "", "append the result line to this file (input of bench/compare)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	o.trace = trace != 0

	// SIGINT/SIGTERM cancel the run; deferred clean-up in run stops the
	// child and removes the run directory before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.out != "" {
		if err := appendLine(o.out, outLine{o.workload, o.seed, o.trace, *res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	return 0
}

func appendLine(path string, l outLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close() // the write error is the one reported
		return err
	}
	return f.Close()
}

// env is what one run shares between set-up, measurement and probes.
type env struct {
	o       options
	nproc   int // GOMAXPROCS = Workers = generator connections
	runDir  string
	rec     *recorder // nil unless tracing
	cal     *calibrator
	report  io.Writer
	tally   *tally
	metrics map[string]float64
}

// run executes one workload and returns the result line. Everything it
// starts or creates is gone when it returns, on success, failure and cancel.
func run(ctx context.Context, o options, report io.Writer) (*result, error) {
	man, err := loadManifest(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	w, ok := workloads[o.workload]
	if !ok || !man.hasWorkload(o.workload) {
		return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json has %v)", o.workload, man.workloadNames())
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	nproc := runtime.GOMAXPROCS(0)
	e := &env{
		o:       o,
		nproc:   nproc,
		report:  report,
		cal:     newCalibrator(nproc),
		tally:   &tally{workload: o.workload, seed: o.seed},
		metrics: map[string]float64{},
	}
	if o.trace {
		e.rec = newRecorder()
	}
	e.runDir = filepath.Join(o.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.runDir)

	fmt.Fprintf(report, "workload %s  seed %d  seconds %g  trace %v  nproc %d\n",
		o.workload, o.seed, o.seconds, o.trace, e.nproc)
	if err := w(ctx, e); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.trace {
		if err := e.rec.writeFile(filepath.Join(o.root, ".bench_build", "trace",
			fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))); err != nil {
			return nil, err
		}
	}
	e.printMetrics()

	decl := man.EndToEnd
	if o.trace {
		decl = man.PerLayer
	}
	res := &result{
		Correct:   e.tally.failed == 0,
		Attempted: e.tally.attempted,
		Failed:    e.tally.failed,
		Metrics:   make(map[string]metricValue, len(decl)),
	}
	for _, d := range decl {
		v, ok := e.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but workload %s did not measure it", d.Name, o.workload)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range e.metrics {
		if !man.declares(name) {
			return nil, fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not declare", o.workload, name)
		}
	}
	e.tally.print(report)
	return res, nil
}

// set records a measured value under its metric name.
func (e *env) set(name string, v float64) { e.metrics[name] = v }

func (e *env) printMetrics() {
	names := make([]string, 0, len(e.metrics))
	for n := range e.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(e.report, "metrics:")
	for _, n := range names {
		fmt.Fprintf(e.report, "  %-36s %.6g\n", n, e.metrics[n])
	}
}

// tally counts operations and lists the failed ones by (workload, app, seed):
// a digest mismatch, an executor error, a non-2xx reply or a timeout is a
// failed operation, never a silent pass.
type tally struct {
	mu        sync.Mutex
	workload  string
	seed      int64
	attempted int
	failed    int
	notes     []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(app, why string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf("FAILED workload=%s app=%s seed=%d: %s", t.workload, app, t.seed, why))
	}
}

func (t *tally) print(w io.Writer) {
	for _, n := range t.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "operations: attempted %d, failed %d\n", t.attempted, t.failed)
}

// window turns the -seconds argument into the duration of a phase that gets
// the given share of it.
func (e *env) window(share float64) time.Duration {
	return time.Duration(share * e.o.seconds * float64(time.Second))
}
