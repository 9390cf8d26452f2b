package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"ftdag/internal/bitvec"
	"ftdag/internal/block"
	"ftdag/internal/cluster"
	"ftdag/internal/cmap"
	"ftdag/internal/deque"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/replica"
	"ftdag/internal/sched"
	"ftdag/internal/service"
	"ftdag/internal/stats"
	"ftdag/internal/trace"
)

// Layer probes: the cost of one operation of each layer, measured in
// isolation over the package's public functions only. They run under -trace,
// each for well under a second: the operation count is calibrated so one
// sample takes about probeSample, and the median of probeSamples is reported.
const (
	probeSamples = 5
	probeSample  = 30 * time.Millisecond
)

// stopwatch times the measured part of a probe sample, so a probe's set-up
// stays out of both the time and the allocation count.
type stopwatch struct {
	start   time.Time
	wall    time.Duration // begin to end: what the operation count is calibrated on
	dur     time.Duration // the measured time: wall, unless the probe sums its own intervals
	mallocs uint64
}

func (s *stopwatch) begin() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs = m.Mallocs
	s.start = time.Now()
}

func (s *stopwatch) end() {
	s.wall = time.Since(s.start)
	s.dur = s.wall
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs = m.Mallocs - s.mallocs
}

// probe runs fn(n, sw) — n operations between sw.begin and sw.end — and
// returns the median ns and allocations per operation.
func (e *env) probe(fn func(n int, sw *stopwatch)) (nsPerOp, allocsPerOp float64) {
	samples, sample := probeSamples, probeSample
	if e.o.smoke {
		samples, sample = 1, 200*time.Microsecond
	}
	n := 1
	for {
		var sw stopwatch
		fn(n, &sw)
		if sw.wall >= sample/8 || n >= 1<<24 {
			n = int(float64(n)*float64(sample)/float64(sw.wall+1)) + 1
			break
		}
		n *= 4
	}
	var ns, allocs []float64
	for i := 0; i < samples; i++ {
		var sw stopwatch
		fn(n, &sw)
		ns = append(ns, float64(sw.dur)/float64(n))
		allocs = append(allocs, float64(sw.mallocs)/float64(n))
	}
	return stats.Median(ns), stats.Median(allocs)
}

// runProbes measures every layer probe, against an ftserve child of its own
// for the HTTP and router ones, and prints ns/op and allocs/op of each.
func (e *env) runProbes(ctx context.Context) error {
	fmt.Fprintln(e.report, "layer probes (median of 5):")
	for _, p := range probes {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		begin := time.Now()
		ns, allocs := e.probe(func(n int, sw *stopwatch) { p.fn(e, n, sw) })
		e.set(p.metric, ns/p.per)
		if p.metric == "sched.spawn_exec_ns" {
			e.set("sched.spawn_allocs", allocs)
		}
		fmt.Fprintf(e.report, "  %-34s %12.2f  (%.1f ns/op, %.2f allocs/op, %v)\n",
			p.metric, ns/p.per, ns, allocs, time.Since(begin).Round(time.Millisecond))
	}
	bin, err := e.buildFtserve(ctx)
	if err != nil {
		return err
	}
	c, err := e.startChild(ctx, bin)
	if err != nil {
		return err
	}
	defer c.stop()
	client := &http.Client{Timeout: doneTimeout}
	defer client.CloseIdleConnections()
	ns, allocs := e.probe(func(n int, sw *stopwatch) {
		sw.begin()
		for i := 0; i < n; i++ {
			httpDo(client, http.MethodGet, c.url+"/healthz", nil)
		}
		sw.end()
	})
	e.set("http.healthz_rtt_us", ns/1e3)
	fmt.Fprintf(e.report, "  %-34s %12.2f  (%.1f ns/op, %.2f client allocs/op)\n", "http.healthz_rtt_us", ns/1e3, ns, allocs)
	hop := routeHop(client, c.url, e.o.smoke)
	e.set("cluster.route_hop_us", hop)
	fmt.Fprintf(e.report, "  %-34s %12.2f  (POST /jobs through an in-process cluster.Router minus direct)\n", "cluster.route_hop_us", hop)
	return nil
}

// httpDo performs one request and drains the reply; it reports the status.
func httpDo(client *http.Client, method, url string, body []byte) int {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	_ = resp.Body.Close()                 // nothing was written; the read above saw any error
	return resp.StatusCode
}

// routeHop is the added latency of the shard router on a submission: the
// same tiny job posted through an in-process cluster.Router in front of the
// child and directly, in turns; the difference of the medians, in µs.
func routeHop(client *http.Client, backend string, smoke bool) float64 {
	rt := cluster.NewRouter(cluster.RouterConfig{})
	if err := rt.AddBackend("bench", backend); err != nil {
		return 0
	}
	front := httptest.NewServer(rt.Mux())
	defer front.Close()
	body := []byte(`{"synthetic":{"layers":1,"width":1,"max_in":1,"seed":1}}`)
	var direct, routed []float64
	pairs := 40
	if smoke {
		pairs = 2
	}
	for i := 0; i < pairs; i++ {
		for _, target := range []struct {
			url string
			out *[]float64
		}{{backend, &direct}, {front.URL, &routed}} {
			start := time.Now()
			if httpDo(client, http.MethodPost, target.url+"/jobs", body) == http.StatusAccepted {
				*target.out = append(*target.out, float64(time.Since(start))/1e3)
			}
		}
	}
	return stats.Median(routed) - stats.Median(direct)
}

// probeDef is one in-process probe: fn performs n operations between
// sw.begin and sw.end; the metric is ns per operation divided by per (1000
// for a µs metric, the KiB per operation for a per-KiB one).
type probeDef struct {
	metric string
	per    float64
	fn     func(e *env, n int, sw *stopwatch)
}

// probeBlock is the payload of the block and digest probes: 8 KiB, the size
// of a 32×32 tile of float64.
const probeBlockFloats = 1024

var probeSink uint64 // keeps probe results live

var probes = []probeDef{
	{"deque.push_pop_ns", 1, func(_ *env, n int, sw *stopwatch) {
		d, v := deque.New[int](), 0
		sw.begin()
		for i := 0; i < n; i++ {
			d.PushBottom(&v)
			d.PopBottom()
		}
		sw.end()
	}},
	{"deque.steal_ns", 1, func(_ *env, n int, sw *stopwatch) {
		// Filled and drained in batches; only the steals are on the clock.
		const batch = 1024
		d, v := deque.New[int](), 0
		var total time.Duration
		sw.begin()
		for done := 0; done < n; done += batch {
			for i := 0; i < batch; i++ {
				d.PushBottom(&v)
			}
			start := time.Now()
			for i := 0; i < batch; i++ {
				d.Steal()
			}
			total += time.Since(start)
		}
		sw.end()
		sw.dur = total * time.Duration(n) / time.Duration((n+batch-1)/batch*batch)
	}},
	{"bitvec.set_notify_ns", 1, func(_ *env, n int, sw *stopwatch) {
		v := bitvec.New(64)
		sw.begin()
		for i := 0; i < n; i++ {
			v.Set(i & 63)
			if v.TestAndClear(i & 63) {
				probeSink++
			}
		}
		sw.end()
	}},
	{"cmap.load_or_store_ns", 1, func(_ *env, n int, sw *stopwatch) {
		// Half inserts, half hits: a task is inserted once and found again
		// by every later successor.
		m, v := cmap.New[*int](), new(int)
		mk := func() *int { return v }
		sw.begin()
		for i := 0; i < n; i++ {
			m.LoadOrStore(int64(i/2), mk)
		}
		sw.end()
	}},
	{"block.write_ns_per_kib", probeBlockFloats * 8 / 1024, func(_ *env, n int, sw *stopwatch) {
		s, data := block.NewStore(1), make([]float64, probeBlockFloats)
		sw.begin()
		for i := 0; i < n; i++ {
			s.Write(block.ID(i&63), i>>6, int64(i), data)
		}
		sw.end()
	}},
	{"block.read_verify_ns_per_kib", probeBlockFloats * 8 / 1024, func(_ *env, n int, sw *stopwatch) {
		s, data := block.NewStore(0, block.WithVerification()), make([]float64, probeBlockFloats)
		for b := 0; b < 64; b++ {
			s.Write(block.ID(b), 0, int64(b), data)
		}
		sw.begin()
		for i := 0; i < n; i++ {
			if _, err := s.Read(block.ID(i&63), 0); err != nil {
				probeSink++
			}
		}
		sw.end()
	}},
	{"replica.digest_ns_per_kib", probeBlockFloats * 8 / 1024, func(_ *env, n int, sw *stopwatch) {
		data := make([]float64, probeBlockFloats)
		sw.begin()
		for i := 0; i < n; i++ {
			probeSink += replica.Digest(data)
		}
		sw.end()
	}},
	{"sched.spawn_exec_ns", 1, func(_ *env, n int, sw *stopwatch) {
		// A self-chaining spawn on one worker: the cycle every task-graph
		// edge takes.
		p := sched.NewPool(1)
		done, left := make(chan struct{}), n
		var f sched.Func
		f = func(w *sched.Worker) {
			if left--; left > 0 {
				w.Spawn(f)
				return
			}
			close(done)
		}
		sw.begin()
		p.Submit(f)
		<-done
		sw.end()
		p.Close()
	}},
	{"sched.submit_pickup_us", 1e3, func(e *env, n int, sw *stopwatch) {
		// Submit to an idle pool until the job runs: wake, ring, pickup. The
		// pool is given a moment to park between jobs, outside the clock, so
		// the reported time is the sum of the submit→start gaps.
		p := sched.NewPool(e.nproc)
		started := make(chan time.Time)
		var total time.Duration
		sw.begin()
		for i := 0; i < n; i++ {
			p.Wait()
			time.Sleep(50 * time.Microsecond)
			at := time.Now()
			p.Submit(func(*sched.Worker) { started <- time.Now() })
			total += (<-started).Sub(at)
		}
		sw.end()
		sw.dur = total
		p.Close()
	}},
	{"journal.append_sync_us", 1e3, func(e *env, n int, sw *stopwatch) {
		journalProbe(e, n, 1, sw)
	}},
	{"journal.append_sync_us_grouped", 1e3, func(e *env, n int, sw *stopwatch) {
		journalProbe(e, n, e.nproc, sw)
	}},
	{"service.submit_done_us", 1e3, func(e *env, n int, sw *stopwatch) {
		// In process, no journal: admission queue, runner pickup, a
		// four-task graph on the shared pool, completion.
		srv := service.New(service.Config{Workers: e.nproc, MaxConcurrentJobs: e.nproc})
		spec := service.JobSpec{Name: "probe", Spec: graph.Diamond(nil)}
		sw.begin()
		for i := 0; i < n; i++ {
			h, err := srv.Submit(spec)
			if err != nil {
				continue
			}
			if _, err := h.Wait(); err != nil {
				probeSink++
			}
		}
		sw.end()
		srv.Close()
	}},
	{"metrics.observe_enabled_ns", 1, func(_ *env, n int, sw *stopwatch) {
		h := metrics.NewRegistry().Histogram("bench_probe_seconds", "probe")
		sw.begin()
		for i := 0; i < n; i++ {
			h.ObserveDuration(time.Duration(i))
		}
		sw.end()
	}},
	{"trace.span_enabled_ns", 1, func(_ *env, n int, sw *stopwatch) {
		sp := trace.NewSpans("bench", 8192)
		span := trace.Span{Trace: trace.NewTraceID(), Name: "compute", Job: 1}
		sw.begin()
		for i := 0; i < n; i++ {
			span.ID, span.Task = sp.NextID(), int64(i)
			sp.Emit(span)
		}
		sw.end()
	}},
	{"trace.flight_emit_ns", 1, func(_ *env, n int, sw *stopwatch) {
		f := trace.NewFlight("bench", 4096)
		sw.begin()
		for i := 0; i < n; i++ {
			f.Emit("probe", "emit", 1, int64(i), 0, trace.SpanContext{})
		}
		sw.end()
	}},
}

// journalProbe appends n fsynced records from the given number of concurrent
// writers to a fresh journal under the run directory.
func journalProbe(e *env, n, writers int, sw *stopwatch) {
	dir, err := os.MkdirTemp(e.runDir, "journal-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(journal.Options{Dir: dir, Logf: func(string, ...any) {}})
	if err != nil {
		return
	}
	payload := bytes.Repeat([]byte("x"), 100)
	var wg sync.WaitGroup
	sw.begin()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += writers {
				rec := journal.Record{Kind: journal.Submitted, ID: int64(i + 1), Time: time.Now(), Name: "probe", Payload: payload}
				if err := j.Append(rec); err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sw.end()
	_ = j.Close() // the journal is deleted next
}
