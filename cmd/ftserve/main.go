// Command ftserve runs the fault-tolerant task-graph scheduler as a
// long-lived HTTP/JSON service: one shared work-stealing pool serving many
// concurrent task-graph jobs (internal/service), with admission control,
// per-job deadlines and cancellation, and per-job metrics/trace retrieval.
//
//	ftserve -addr :8080 -workers 4 -maxjobs 4 -queue 64 -data-dir /var/lib/ftserve
//
// With -data-dir the daemon is durable: every job state transition goes
// through a checksummed write-ahead log (internal/journal), submissions are
// fsynced before they are acknowledged, and a restart replays the journal —
// finished jobs come back queryable (state, sink digest, metrics) and
// unfinished ones are rebuilt from their persisted request JSON and re-run.
// SIGINT/SIGTERM trigger a graceful shutdown: admission stops, in-flight
// jobs get -grace to finish, and the journal is snapshotted and flushed
// before exit.
//
// The HTTP API is internal/cluster's Node — the one every backend in the
// tree serves (see Node.Mux for the route table); what is ftserve's own is
// the flags, the signals and the request vocabulary below.
//
// With -debug-addr a second listener serves net/http/pprof (profiles,
// goroutine dumps) without exposing them on the public address.
//
// A submission body names either a benchmark app or a synthetic DAG:
//
//	{"app": "LU", "n": 96, "b": 16, "seed": 4, "verify": true,
//	 "faults": {"count": 3, "point": "after-compute", "type": "any", "seed": 9},
//	 "deadline_ms": 5000}
//	{"synthetic": {"layers": 4, "width": 8, "max_in": 3, "seed": 7}, "verify": true}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (the -debug-addr listener)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/cluster"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/harness"
	"ftdag/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		workers   = flag.Int("workers", 0, "shared pool size (0: GOMAXPROCS)")
		maxJobs   = flag.Int("maxjobs", 4, "max concurrently executing jobs")
		queue     = flag.Int("queue", 64, "admission queue capacity")
		dataDir   = flag.String("data-dir", "", "journal directory for durable jobs (empty: in-memory only)")
		debugAddr = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty: disabled)")
		grace     = flag.Duration("grace", 10*time.Second, "graceful-shutdown drain budget for in-flight jobs")
		procName  = flag.String("proc-name", "", "process label for spans and the black box (empty: derived from -addr)")
		spansCap  = flag.Int("spans", 8192, "process-wide span ring capacity for distributed tracing (0: tracing off)")
		flightCap = flag.Int("flight", 4096, "flight-recorder ring capacity; persisted under <data-dir>/blackbox (0: off)")
	)
	flag.Parse()

	proc := *procName
	if proc == "" {
		proc = "ftserve-" + strings.Trim(strings.ReplaceAll(*addr, ":", "-"), "-")
	}
	// The recorders are write-behind: a SIGKILL leaves a parseable box at
	// most one flush interval stale; panic, SIGTERM, and replay-after-crash
	// snapshot immediately with the reason recorded.
	be, err := cluster.OpenBackend(cluster.BackendConfig{
		Name:       proc,
		DataDir:    *dataDir,
		Service:    service.Config{Workers: *workers, MaxConcurrentJobs: *maxJobs, MaxQueuedJobs: *queue},
		Build:      rebuildJob,
		Spans:      *spansCap,
		Flight:     *flightCap,
		DrainGrace: *grace,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftserve: %v\n", err)
		os.Exit(1)
	}
	srv := be.Service
	if *debugAddr != "" {
		go func() {
			log.Printf("ftserve: pprof debug server on %s", *debugAddr)
			// nil handler = DefaultServeMux, which net/http/pprof
			// populated at import.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("ftserve: debug server: %v", err)
			}
		}()
	}
	log.Printf("ftserve: serving on %s (workers=%d maxjobs=%d queue=%d durable=%v)",
		*addr, srv.Config().Workers, srv.Config().MaxConcurrentJobs, srv.Config().MaxQueuedJobs, *dataDir != "")

	httpSrv := &http.Server{Addr: *addr, Handler: be.Node.Mux()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting HTTP first (bounded by the same
	// grace budget), then drain the service — in-flight jobs get -grace to
	// finish, anything still running is left incomplete in the journal for
	// the next boot, and the journal is snapshotted and closed.
	log.Printf("ftserve: signal received; draining (grace %v)", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("ftserve: http shutdown: %v", err)
	}
	cancel()
	stats := srv.Shutdown(*grace)
	if err := be.Flight.Close("sigterm"); err != nil {
		log.Printf("ftserve: final black box: %v", err)
	}
	log.Printf("ftserve: drained; pool stats: %v", stats)
}

// jobRequest is the submission body.
type jobRequest struct {
	// App names a benchmark kernel (LCS, SW, FW, LU, Cholesky) sized by
	// N/B/Seed (unset fields fall back to the quick sizes).
	App  string `json:"app,omitempty"`
	N    int    `json:"n,omitempty"`
	B    int    `json:"b,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Synthetic requests a random layered DAG instead of an app kernel.
	Synthetic *syntheticRequest `json:"synthetic,omitempty"`
	// Faults attaches a deterministic fault-injection plan.
	Faults *faultRequest `json:"faults,omitempty"`
	// Recovery selects the job's recovery strategy: "ftnabbit" (default),
	// "replicate-all", or "replicate-selective" (sized by ReplicaBudget).
	Recovery string `json:"recovery,omitempty"`
	// ReplicaBudget is the fraction of tasks to replicate under
	// recovery=replicate-selective (0 uses the server default).
	ReplicaBudget float64 `json:"replica_budget,omitempty"`
	// DeadlineMS bounds the job's execution time in milliseconds.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Verify checks the sink against the sequential reference.
	Verify bool `json:"verify,omitempty"`
}

type syntheticRequest struct {
	Layers int    `json:"layers"`
	Width  int    `json:"width"`
	MaxIn  int    `json:"max_in"`
	Seed   uint64 `json:"seed"`
}

type faultRequest struct {
	// Count and Fraction are mutually exclusive ways to size the plan:
	// an absolute number of injected tasks, or a fraction of all tasks.
	Count    int     `json:"count,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Point    string  `json:"point"` // before-compute, after-compute, after-notify
	Type     string  `json:"type"`  // any, v0, vlast, vrand
	Seed     int64   `json:"seed"`
}

func parseTaskType(s string) (fault.TaskType, error) {
	switch strings.ToLower(s) {
	case "", "any":
		return fault.AnyTask, nil
	case "v0":
		return fault.V0, nil
	case "vlast":
		return fault.VLast, nil
	case "vrand":
		return fault.VRand, nil
	}
	return fault.AnyTask, fmt.Errorf("unknown task type %q (want any, v0, vlast, vrand)", s)
}

// buildJob turns a request into a JobSpec (constructing the graph and, when
// asked, a verification closure against the sequential reference).
func buildJob(req jobRequest) (service.JobSpec, error) {
	var spec service.JobSpec
	switch {
	case req.Synthetic != nil && req.App != "":
		return spec, fmt.Errorf("specify app or synthetic, not both")
	case req.Synthetic != nil:
		sr := *req.Synthetic
		if sr.Layers < 1 || sr.Width < 1 {
			return spec, fmt.Errorf("synthetic needs layers >= 1 and width >= 1")
		}
		if sr.MaxIn < 1 {
			sr.MaxIn = 2
		}
		g := graph.Layered(sr.Layers, sr.Width, sr.MaxIn, sr.Seed|1, nil)
		spec.Name = fmt.Sprintf("synthetic %dx%d", sr.Layers, sr.Width)
		spec.Spec = g
		if req.Verify {
			seqRes, err := core.NewSequential(g, 0).Run()
			if err != nil {
				return spec, fmt.Errorf("synthetic ground truth: %w", err)
			}
			want := seqRes.Sink
			spec.Verify = func(res *core.Result) error { return diffSink(res.Sink, want) }
		}
	case req.App != "":
		cfg, ok := harness.QuickSizes()[req.App]
		if !ok {
			cfg = apps.Config{}
		}
		if req.N > 0 {
			cfg.N = req.N
		}
		if req.B > 0 {
			cfg.B = req.B
		}
		if req.Seed != 0 {
			cfg.Seed = req.Seed
		}
		a, err := harness.MakeApp(req.App, cfg)
		if err != nil {
			return spec, err
		}
		spec.Name = fmt.Sprintf("%s N=%d B=%d", a.Name(), cfg.N, cfg.B)
		spec.Spec = a.Spec()
		spec.Retention = a.Retention()
		if req.Verify {
			spec.Verify = func(res *core.Result) error { return a.VerifySink(res.Sink) }
		}
	default:
		return spec, fmt.Errorf("request needs an app name or a synthetic DAG")
	}
	if f := req.Faults; f != nil && (f.Count > 0 || f.Fraction > 0) {
		if f.Count > 0 && f.Fraction > 0 {
			return spec, fmt.Errorf("faults: count (%d) and fraction (%g) are mutually exclusive; set one", f.Count, f.Fraction)
		}
		if f.Fraction > 1 {
			return spec, fmt.Errorf("faults: fraction %g out of range (0, 1]", f.Fraction)
		}
		point, err := fault.ParsePoint(orDefault(f.Point, "after-compute"))
		if err != nil {
			return spec, err
		}
		typ, err := parseTaskType(f.Type)
		if err != nil {
			return spec, err
		}
		if f.Fraction > 0 {
			spec.Plan = fault.PlanFraction(spec.Spec, typ, point, f.Fraction, f.Seed)
		} else {
			spec.Plan = fault.PlanCount(spec.Spec, typ, point, f.Count, f.Seed)
		}
	}
	pol, err := service.ParseRecovery(req.Recovery)
	if err != nil {
		return spec, err
	}
	spec.Recovery = pol
	spec.ReplicaBudget = req.ReplicaBudget
	if req.DeadlineMS > 0 {
		spec.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	return spec, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// rebuildJob is the daemon's whole vocabulary as one function of the request
// bytes: cluster.Node calls it on a live submission's body and journals that
// body, and the service calls it on the journaled payload after a crash, so
// replay goes through exactly the construction a live submission did. (The
// journaled fault-plan manifest — the original run's exact injections — then
// overrides the plan derived here from the request's seed.) json.Unmarshal
// rejects trailing bytes after the first value; a streaming decoder would not.
// It ignores keys the vocabulary no longer has, so a payload journaled before
// a key was dropped still replays.
func rebuildJob(body []byte) (service.JobSpec, error) {
	var req jobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return service.JobSpec{}, fmt.Errorf("decoding request: %w", err)
	}
	return buildJob(req)
}

// diffSink compares a sink against the sequential ground truth.
func diffSink(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("sink length %d != reference %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return fmt.Errorf("sink[%d] = %g, reference %g", i, got[i], want[i])
		}
	}
	return nil
}
