package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ftdag/internal/fault"
	"ftdag/internal/harness"
	"ftdag/internal/journal"
	"ftdag/internal/service"
	"ftdag/internal/stats"
)

// The service workload drives one durable ftserve child over loopback with a
// job mix of the five apps at quick sizes, round-robin, every fourth job under
// a three-fault after-compute plan. The same mix is also run in process (the
// "twin"): it supplies the reference digests, the in-process job time that
// overhead_ratio is taken against, and under -trace the DAG-layer metrics.

// closedPollEvery and openPollEvery are the status-poll periods. The closed
// loop needs the completion promptly (its next request waits for it); the open
// loop takes the server-reported finish time, so it can poll lazily and not
// load the server.
const (
	closedPollEvery = time.Millisecond
	openPollEvery   = 5 * time.Millisecond
	// doneTimeout fails a job that is still not terminal this long after it
	// was acknowledged.
	doneTimeout = 30 * time.Second
)

// buildMix builds the job mix: one cycle of len(apps) × serviceFaultEvery
// jobs, each with its request body, twin graph, plan and reference digest.
func buildMix(e *env) ([]dagItem, error) {
	sizes := serviceSizes()
	apps := make([]dagItem, 0, len(harness.AppNames))
	for i, name := range harness.AppNames {
		cfg := sizes[name]
		cfg.Seed = appSeed(e.o.seed, i)
		it, err := appItem(name, cfg)
		if err != nil {
			return nil, err
		}
		it.request = map[string]any{"app": name, "n": cfg.N, "b": cfg.B, "seed": cfg.Seed}
		apps = append(apps, it)
	}
	mix := make([]dagItem, len(apps)*serviceFaultEvery)
	for j := range mix {
		it := apps[j%len(apps)]
		if j%serviceFaultEvery == serviceFaultEvery-1 {
			planSeed := e.o.seed*1000 + int64(j)
			// The same plan the server builds from the request.
			it.plan = func(int) *fault.Plan {
				return fault.PlanCount(it.spec, fault.AnyTask, fault.AfterCompute, serviceFaultCount, planSeed)
			}
			req := map[string]any{"faults": map[string]any{
				"count": serviceFaultCount, "point": "after-compute", "type": "any", "seed": planSeed}}
			for k, v := range it.request {
				req[k] = v
			}
			it.request = req
		}
		mix[j] = it
	}
	return mix, nil
}

// svc is the client side of a run against one child.
type svc struct {
	e      *env
	c      *child
	mix    []dagItem
	bodies [][]byte
	submit *http.Client // at most nproc connections
	poll   *http.Client // one more, for status polls
	rec    *recorder    // spans around HTTP calls while not nil
	nextID atomic.Int64 // position in the mix, across phases
}

func newSvc(e *env, c *child, mix []dagItem) (*svc, error) {
	s := &svc{e: e, c: c, mix: mix}
	for i := range mix {
		b, err := json.Marshal(mix[i].request)
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	s.submit = &http.Client{Timeout: doneTimeout, Transport: &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc}}
	s.poll = &http.Client{Timeout: doneTimeout, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return s, nil
}

func (s *svc) close() {
	s.submit.CloseIdleConnections()
	s.poll.CloseIdleConnections()
}

// job is one submitted job as the client saw it.
type job struct {
	sent
	mixIdx int
	code   int   // HTTP status of the submission (0: transport error)
	id     int64 // server job id
	err    error
	st     service.Status // last polled status
	ackAt  time.Time
}

// post submits mix job mixIdx and fills in the reply.
func (s *svc) post(j *job) {
	start := time.Now()
	resp, err := s.submit.Post(s.c.url+"/jobs", "application/json", bytes.NewReader(s.bodies[j.mixIdx]))
	if err != nil {
		j.err = err
		return
	}
	defer resp.Body.Close()
	j.code = resp.StatusCode
	if resp.StatusCode == http.StatusAccepted {
		var st service.Status
		if j.err = json.NewDecoder(resp.Body).Decode(&st); j.err == nil {
			j.id = st.ID
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	j.ackAt = time.Now()
	if s.rec != nil {
		s.rec.add(layerHTTPSubmit, -1, int64(j.mixIdx), start, j.ackAt.Sub(start), j.ackAt.Sub(start))
	}
}

// status polls the job once.
func (s *svc) status(client *http.Client, j *job) {
	start := time.Now()
	resp, err := client.Get(fmt.Sprintf("%s/jobs/%d", s.c.url, j.id))
	if err != nil {
		j.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("GET /jobs/%d: %s", j.id, resp.Status)
		return
	}
	j.err = json.NewDecoder(resp.Body).Decode(&j.st)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if s.rec != nil {
		d := time.Since(start)
		s.rec.add(layerHTTPStatus, -1, int64(j.mixIdx), start, d, d)
	}
}

// check counts the job as an operation: anything but a 202 followed by a
// success whose digest matches the reference is a failure.
func (s *svc) check(j *job) bool {
	it := &s.mix[j.mixIdx]
	switch {
	case j.err != nil:
		s.e.tally.fail(it.name, j.err.Error())
	case j.code != http.StatusAccepted:
		s.e.tally.fail(it.name, fmt.Sprintf("POST /jobs answered %d", j.code))
	case !j.st.State.Terminal():
		s.e.tally.fail(it.name, fmt.Sprintf("job %d not finished %v after its acknowledgement", j.id, doneTimeout))
	case j.st.State != service.Succeeded:
		s.e.tally.fail(it.name, fmt.Sprintf("job %d ended %v: %s", j.id, j.st.State, j.st.Error))
	case j.st.SinkDigest != it.want:
		s.e.tally.fail(it.name, fmt.Sprintf("job %d sink digest differs from the sequential reference", j.id))
	default:
		s.e.tally.ok()
		return true
	}
	return false
}

// closedLoop runs nproc clients, each submitting its next job as soon as the
// previous one is done, until the given number of jobs have been submitted.
// It returns completed jobs per second. The count, not the time, is fixed so
// that the number of jobs the server has seen by the end of a run (and with
// it the memory it holds) does not depend on how fast it is.
func (s *svc) closedLoop(ctx context.Context, jobs int) float64 {
	start := time.Now()
	var taken, done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for taken.Add(1) <= int64(jobs) && ctx.Err() == nil {
				j := &job{mixIdx: int(s.nextID.Add(1)-1) % len(s.mix)}
				s.post(j)
				for j.err == nil && j.code == http.StatusAccepted && !j.st.State.Terminal() &&
					time.Since(j.ackAt) < doneTimeout && ctx.Err() == nil {
					time.Sleep(closedPollEvery)
					s.status(s.submit, j)
				}
				if s.check(j) {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// phase is what one open-loop phase yields, in milliseconds.
type phase struct {
	rate            float64
	jobs            []*job
	ack, done       []float64 // from the intended send time
	pre, wait, exec []float64 // intended → server's submitted stamp → started → finished
	rtt, late       []float64
	rejected        int
	backlogAtEnd    int
}

// openLoopPhase sends Poisson arrivals at the rate for the window, latency
// taken from each request's intended send time, and learns each job's
// server-reported finish time from a lazy status poll.
func (s *svc) openLoopPhase(ctx context.Context, rate float64, window time.Duration, seed int64) phase {
	offsets := schedule(seed, rate, window)
	if len(offsets) == 0 {
		return phase{rate: rate}
	}
	jobs := make([]*job, len(offsets))
	for i := range jobs {
		jobs[i] = &job{mixIdx: int(s.nextID.Add(1)-1) % len(s.mix)}
	}
	acked := make(chan *job, len(jobs))
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		s.pollUntilDone(ctx, acked)
	}()
	sents := openLoop(ctx, time.Now(), offsets, s.e.nproc, func(i int) {
		s.post(jobs[i])
		if jobs[i].err == nil && jobs[i].code == http.StatusAccepted {
			acked <- jobs[i]
		}
	})
	close(acked)
	<-pollDone

	p := phase{rate: rate, jobs: jobs}
	lastDue := sents[len(sents)-1].intended
	for i, j := range jobs {
		j.sent = sents[i]
		if j.code == http.StatusTooManyRequests {
			p.rejected++
		}
		p.late = append(p.late, ms(j.late))
		if !s.check(j) {
			continue
		}
		p.ack = append(p.ack, ms(j.latency()))
		p.rtt = append(p.rtt, ms(j.end.Sub(j.begin)))
		p.done = append(p.done, ms(j.st.Finished.Sub(j.intended)))
		p.pre = append(p.pre, ms(j.st.Submitted.Sub(j.intended)))
		p.wait = append(p.wait, ms(j.st.Started.Sub(j.st.Submitted)))
		p.exec = append(p.exec, ms(j.st.Finished.Sub(j.st.Started)))
		if j.st.Finished.After(lastDue) {
			p.backlogAtEnd++
		}
	}
	return p
}

// pollUntilDone polls every acknowledged job each openPollEvery until it is
// terminal (or doneTimeout passes), over the one polling connection.
func (s *svc) pollUntilDone(ctx context.Context, acked <-chan *job) {
	var pending []*job
	tick := time.NewTicker(openPollEvery)
	defer tick.Stop()
	for acked != nil || len(pending) > 0 {
		select {
		case j, ok := <-acked:
			if !ok {
				acked = nil
			} else {
				pending = append(pending, j)
			}
			continue
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		keep := pending[:0]
		for _, j := range pending {
			s.status(s.poll, j)
			if j.err == nil && !j.st.State.Terminal() && time.Since(j.ackAt) < doneTimeout {
				keep = append(keep, j)
			}
		}
		pending = keep
	}
}

// merge appends another slice of the same phase.
func (p *phase) merge(o phase) {
	p.rate = o.rate
	p.jobs = append(p.jobs, o.jobs...)
	p.ack, p.done = append(p.ack, o.ack...), append(p.done, o.done...)
	p.pre, p.wait, p.exec = append(p.pre, o.pre...), append(p.wait, o.wait...), append(p.exec, o.exec...)
	p.rtt, p.late = append(p.rtt, o.rtt...), append(p.late, o.late...)
	p.rejected += o.rejected
	p.backlogAtEnd = o.backlogAtEnd
}

func (p phase) print(e *env, label string) {
	q := func(xs []float64, f float64) float64 { return stats.Quantile(xs, f) }
	half := len(p.done) / 2
	fmt.Fprintf(e.report, "open loop %-4s %6.1f jobs/s: sent %d  ack_ms p50 %.3f p95 %.3f p99 %.3f  done_ms p50 %.3f p95 %.3f p99 %.3f  queue_wait_ms p50 %.3f p95 %.3f  exec_ms p50 %.3f  late_ms p95 %.3f  rejected %d  backlog at end %d  done_ms p50 first/second half %.3f/%.3f\n",
		label, p.rate, len(p.jobs), q(p.ack, .5), q(p.ack, .95), q(p.ack, .99), q(p.done, .5), q(p.done, .95), q(p.done, .99),
		q(p.wait, .5), q(p.wait, .95), q(p.exec, .5), q(p.late, .95), p.rejected, p.backlogAtEnd,
		stats.Median(p.done[:half]), stats.Median(p.done[half:]))
}

// journalStats reads the child's journal counters from GET /debug/state.
func (s *svc) journalStats() (journal.Stats, error) {
	var d struct {
		Journal journal.Stats `json:"journal"`
	}
	resp, err := s.poll.Get(s.c.url + "/debug/state")
	if err != nil {
		return d.Journal, err
	}
	defer resp.Body.Close()
	return d.Journal, json.NewDecoder(resp.Body).Decode(&d)
}

// serviceMeasure is what the phases of one run against the child yield.
type serviceMeasure struct {
	twin        dagMeasure // the first twin slice (its traced reps feed the DAG layers)
	twinJobMS   []float64  // every twin job of every slice
	low, high   phase      // traced runs only
	ref, traced phase      // reference rate: the slices without spans, and the one with
	closedJobs  int        // jobs of one closed-loop slice
	rates       []float64  // closed-loop jobs/s of each slice
	// The child's journal counters and MemStats around the slices, and its
	// peak resident set after the last phase.
	journalBefore, journalAfter journal.Stats
	memBefore, memAfter         childMem
	rssMB                       float64
}

// measure runs the phases. The twin, the reference rate and the closed loop
// take turns in slices, so a slow spell of the host a few seconds long hits a
// part of each and not all of one; the medians then leave it out. A traced run
// also visits the low and high rates, and its last reference-rate slice records
// spans while the others do not, which gives the tracing overhead.
func (s *svc) measure(ctx context.Context) (serviceMeasure, error) {
	e := s.e
	var m serviceMeasure
	refShare, closedShare := shareRef, shareClosed
	if e.o.trace {
		refShare, closedShare = traceShareRef, traceShareClosed
	}
	m.closedJobs = max(e.nproc, int(closedJobsPerSec*e.window(closedShare).Seconds()/serviceSlices))

	// The twin: the mix in process, one cycle per rep, as the server runs it
	// (FT executor, no checksum verification on reads).
	runTwin := func() dagMeasure {
		t := e.measureDAG(ctx, s.mix, execConfig{faults: true}, nil, e.window(shareTwin/(serviceSlices+1)))
		m.twinJobMS = append(m.twinJobMS, t.jobMS...)
		return t
	}
	m.twin = runTwin()
	if e.o.trace {
		m.low = s.openLoopPhase(ctx, rateLow, e.window(traceShareLow), e.o.seed*10+1)
		m.low.print(e, "low")
	}
	var err error
	if m.journalBefore, err = s.journalStats(); err != nil {
		return m, err
	}
	if m.memBefore, err = s.c.memStats(); err != nil {
		return m, err
	}
	for i := 0; i < serviceSlices; i++ {
		traced := e.o.trace && i == serviceSlices-1
		if traced {
			s.rec = e.rec
		}
		p := s.openLoopPhase(ctx, rateRef, e.window(refShare/serviceSlices), e.o.seed*10+2+int64(i)*100)
		s.rec = nil
		if traced {
			m.traced = p
		} else {
			m.ref.merge(p)
		}
		m.rates = append(m.rates, s.closedLoop(ctx, m.closedJobs))
		runTwin()
	}
	m.ref.print(e, "ref")
	if m.memAfter, err = s.c.memStats(); err != nil {
		return m, err
	}
	if m.journalAfter, err = s.journalStats(); err != nil {
		return m, err
	}
	if e.o.trace {
		m.traced.print(e, "ref+")
		m.high = s.openLoopPhase(ctx, rateHigh, e.window(traceShareHigh), e.o.seed*10+3)
		m.high.print(e, "high")
	}
	fmt.Fprintf(e.report, "closed loop, %d clients, %d jobs a slice: jobs/s %.1f\n", e.nproc, m.closedJobs, m.rates)
	if m.rssMB, err = peakRSSMB(s.c.cmd.Process.Pid); err != nil {
		return m, err
	}
	if err := ctx.Err(); err != nil {
		return m, err
	}
	if len(m.ref.done) == 0 {
		return m, fmt.Errorf("no job succeeded at the reference rate:\n%s", s.c.logTail())
	}
	return m, nil
}

func runService(ctx context.Context, e *env) error {
	var mix []dagItem
	var c *child
	// The last set-up's child serves the run; it is stopped on every path.
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	setup, err := e.timeSetup(func() error {
		bin, err := e.buildFtserve(ctx)
		if err != nil {
			return err
		}
		if mix, err = buildMix(e); err != nil {
			return err
		}
		c, err = e.startChild(ctx, bin)
		return err
	}, func() {
		c.stop()
		c = nil
	})
	if err != nil {
		return err
	}
	s, err := newSvc(e, c, mix)
	if err != nil {
		return err
	}
	defer s.close()
	m, err := s.measure(ctx)
	if err != nil {
		return err
	}
	ru := c.stop()
	c = nil
	if ru == nil {
		return fmt.Errorf("no resource usage for the ftserve child")
	}

	jobs := len(m.ref.jobs) + len(m.traced.jobs) + serviceSlices*m.closedJobs // between the two MemStats readings
	done, twinP50, capacity := stats.Median(m.ref.done), stats.Median(m.twinJobMS), stats.Median(m.rates)
	e.set("setup_s", setup)
	e.set("makespan_ms", done)
	e.set("overhead_ratio", done/twinP50)
	e.set("throughput_per_s", capacity)
	e.set("alloc_mb", float64(m.memAfter.totalAlloc-m.memBefore.totalAlloc)/1e6/float64(jobs))
	e.set("max_rss_mb", m.rssMB)
	fmt.Fprintf(e.report, "makespan_ms = done_ms p50 at the reference rate (%d jobs); overhead_ratio base: in-process job_ms p50 %.3f (%d jobs); throughput_per_s = median closed-loop slice\n",
		len(m.ref.done), twinP50, len(m.twinJobMS))
	if !e.o.trace {
		return nil
	}
	e.dagLayers("the in-process twin", m.twin)
	e.serviceLayers(m, capacity, rusageCPU(ru))
	return e.runProbes(ctx)
}

// serviceLayers sets the per-layer metrics of a traced run against the child
// and prints the service's attribution row, which replaces the twin's. The
// service's layers are read in the slice where its spans were recorded.
func (e *env) serviceLayers(m serviceMeasure, capacity, serverCPU float64) {
	q := stats.Quantile
	t, low, high := m.traced, m.low, m.high
	appends := m.journalAfter.Appends - m.journalBefore.Appends
	fsyncs := m.journalAfter.Fsyncs - m.journalBefore.Fsyncs
	e.set("journal.appends", float64(appends))
	e.set("journal.fsyncs", float64(fsyncs))
	e.set("journal.appends_per_fsync", share(appends, fsyncs))
	e.set("service.capacity_jobs_per_s", capacity)
	e.set("service.ack_p50_ms", q(t.ack, .5))
	e.set("service.ack_p95_ms", q(t.ack, .95))
	e.set("service.done_p50_ms", q(t.done, .5))
	e.set("service.done_p95_ms", q(t.done, .95))
	e.set("service.done_p50_ms_low", q(low.done, .5))
	e.set("service.done_p50_ms_high", q(high.done, .5))
	e.set("service.queue_wait_ms_p50", q(t.wait, .5))
	e.set("service.queue_wait_ms_p95", q(t.wait, .95))
	e.set("service.queue_wait_ms_p95_high", q(high.wait, .95))
	e.set("service.exec_ms_p50", q(t.exec, .5))
	e.set("service.rejected_429", float64(low.rejected+m.ref.rejected+t.rejected+high.rejected))
	e.set("service.backlog_at_end", float64(t.backlogAtEnd))
	e.set("http.submit_rtt_ms_p50", q(t.rtt, .5))
	// The worst of the three rates.
	e.set("loadgen.late_p95_ms", max(q(low.late, .95), q(append(m.ref.late, t.late...), .95), q(high.late, .95)))
	e.set("loadgen.sent", float64(len(low.jobs)+len(m.ref.jobs)+len(t.jobs)+len(high.jobs)))
	e.set("proc.server_cpu_s", serverCPU)
	e.set("proc.gc_pause_ms", ms(m.memAfter.pauseSince(m.memBefore)))
	e.set("trace.overhead_ratio", q(t.done, .5)/q(m.ref.done, .5))

	pre, wait, exec, done := q(t.pre, .5), q(t.wait, .5), q(t.exec, .5), q(t.done, .5)
	rem := done - pre - wait - exec
	e.set("attribution.remainder_pct", 100*rem/done)
	fmt.Fprintf(e.report, "attribution (reference rate, medians, ms): submit %.3f (intended send to the server's submitted stamp: HTTP, decode, build)  + queue_wait %.3f (journal fsync, admission queue, pickup)  + exec %.3f  vs done %.3f: remainder %.1f%%;  ack %.3f overlaps submit and queue_wait;  non-exec share of done %.1f%%\n",
		pre, wait, exec, done, 100*rem/done, q(t.ack, .5), 100*(1-exec/done))
}
