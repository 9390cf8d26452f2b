// Cluster soak: node-kill failover testing for the shard layer. The
// parent spawns three child backend processes (each a journaled
// cluster.Node over the crash-soak job vocabulary), fronts them with an
// in-process Router, and mirrors the busiest backend's WAL into a standby
// directory over /journal/stream. Once the standby has caught up the
// parent SIGKILLs that backend mid-storm and requires three things at
// once: every routed job still reaches a terminal state whose digest
// equals its sequential reference (survivor re-execution is benign by
// determinism), the promoted standby journal holds every submission the
// victim acknowledged (the at-most-one-group-commit-batch loss bound,
// zero here because the kill waits for catch-up), and the router's
// routing/failover counters reconcile exactly with the one injected kill.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ftdag/internal/cluster"
	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// runClusterChild is one backend of the soak cluster: the backend ftserve
// boots (cluster.OpenBackend) over the crash-soak job vocabulary, on an
// ephemeral port printed on stdout for the parent to scrape. On boot the
// service replays whatever the journal holds — for a child started over the
// promoted standby mirror, that is the killed victim's WAL, so its
// incomplete jobs re-run here automatically. Every child flies with the
// black box, appended to every 50ms, so a SIGKILL — the soak's weapon —
// leaves a parseable box at most one flush behind for the parent to collect.
func runClusterChild(dataDir string, workers int, timeout time.Duration) error {
	be, err := cluster.OpenBackend(cluster.BackendConfig{
		Name:       filepath.Base(dataDir),
		DataDir:    dataDir,
		Service:    service.Config{Workers: workers, MaxConcurrentJobs: 2, MaxQueuedJobs: 256},
		Build:      crashRebuild(timeout),
		Spans:      8192,
		Flight:     4096,
		DrainGrace: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", ln.Addr())
	return http.Serve(ln, be.Node.Mux())
}

// runClusterSoak is the parent orchestrator. With blackbox, the soak also
// asserts the observability layer: every SIGKILLed child leaves a
// parseable black box whose job-submit events reconcile with the router's
// placements and failover metrics, and one kill-to-reroute job's merged
// cluster trace (GET /debug/cluster-trace/{id}) holds spans from the
// router plus at least two backend processes under one trace ID, with the
// failover-resubmit span parented to the original cluster-submit span.
func runClusterSoak(seed int64, njobs, workers int, timeout time.Duration, verbose, blackbox bool) {
	s := newSoak("cluster")
	root, fatalf := s.root, s.fatalf
	fmt.Printf("ftsoak: cluster soak seed=%d jobs=%d root=%s\n", seed, njobs, root)

	// Deterministic job list and sequential reference digests. Faults are
	// restricted to compute points and the per-task delay stretched so the
	// SIGKILL reliably lands while the victim still has jobs in flight.
	jobs := crashJobList(seed, njobs)
	for i := range jobs {
		jobs[i].Points = "compute"
		jobs[i].DelayMS = 30
		if blackbox {
			// Stretch per-task delay so the SIGKILL reliably lands with
			// victim jobs still in flight — the merged-trace assertion
			// needs at least one rerouted AND standby-replayed job.
			jobs[i].DelayMS = 60
		}
	}
	wantDigest := s.references(jobs)

	// Each backend's data dir is <root>/<name>.
	start := func(name string) *proc {
		dir := filepath.Join(root, name)
		p := s.start(name,
			"-clusterchild",
			"-datadir", dir,
			"-maxworkers", fmt.Sprint(workers),
			"-timeout", fmt.Sprint(timeout))
		if err := p.listening(10 * time.Second); err != nil {
			fatalf("%v", err)
		}
		if verbose {
			fmt.Printf("backend %s on %s (%s)\n", name, p.url, dir)
		}
		return p
	}
	for _, name := range []string{"b0", "b1", "b2"} {
		start(name)
	}

	// The router runs in-process so the soak can reconcile its metrics
	// registry directly at the end.
	reg := metrics.NewRegistry()
	routerSpans, routerFlight, err := trace.NewRecorders("router", 8192, 2048, root)
	if err != nil {
		fatalf("router black box: %v", err)
	}
	rt := cluster.NewRouter(cluster.RouterConfig{
		Client:         s.client,
		Registry:       reg,
		HealthInterval: 25 * time.Millisecond,
		FailThreshold:  2,
		Tracer:         routerSpans,
		Flight:         routerFlight,
	})
	for _, n := range s.procs {
		if err := rt.AddBackend(n.name, n.url); err != nil {
			fatalf("adding backend %s: %v", n.name, err)
		}
	}
	rt.Start()
	defer rt.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("router listener: %v", err)
	}
	go func() { _ = http.Serve(ln, rt.Mux()) }()
	routerURL := "http://" + ln.Addr().String()

	// Submit every job through the router, shard-pinned by job name so the
	// placement is a pure function of the ring.
	placements := make([]placed, 0, njobs)
	perBackend := make(map[string]int)
	for _, c := range jobs {
		body, err := json.Marshal(c)
		if err != nil {
			fatalf("%v", err)
		}
		req, err := http.NewRequest(http.MethodPost, routerURL+"/jobs", bytes.NewReader(body))
		if err != nil {
			fatalf("%v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Shard-Key", c.name())
		resp, err := s.client.Do(req)
		if err != nil {
			fatalf("submitting %s: %v", c.name(), err)
		}
		var rs cluster.RoutedStatus
		err = json.NewDecoder(resp.Body).Decode(&rs)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			fatalf("submitting %s: status %d, decode err %v", c.name(), resp.StatusCode, err)
		}
		placements = append(placements, placed{rs.ID, c.name(), rs.Backend})
		perBackend[rs.Backend]++
	}

	// The victim is the busiest backend — the kill should orphan as many
	// in-flight jobs as possible.
	victim := s.procs[0]
	for _, n := range s.procs {
		if perBackend[n.name] > perBackend[victim.name] {
			victim = n
		}
	}
	if verbose {
		fmt.Printf("placement %v; victim %s\n", perBackend, victim.name)
	}

	// Mirror the victim's WAL into the standby directory until caught up.
	// Two consecutive error-free syncs guarantee every record present when
	// the first began — in particular every acknowledged submission — is
	// durable in the mirror before the kill.
	standbyDir := filepath.Join(root, "standby")
	fl, err := cluster.NewFollower(victim.url, standbyDir, s.client)
	if err != nil {
		fatalf("standby follower: %v", err)
	}
	syncDeadline := time.Now().Add(15 * time.Second)
	var mirrored int64
	for clean := 0; clean < 2; {
		if time.Now().After(syncDeadline) {
			fatalf("standby never caught up: %+v", fl.Stats())
		}
		n, err := fl.Sync()
		if err != nil {
			clean = 0
			time.Sleep(10 * time.Millisecond)
			continue
		}
		mirrored += n
		clean++
	}

	if blackbox {
		// Give the children's write-behind flushers (50ms interval) three
		// ticks so every submission-time event is on disk: the
		// box-vs-placement reconciliation tolerates losing only the final
		// flush window, which this sleep moves past the submissions.
		time.Sleep(150 * time.Millisecond)
	}

	// SIGKILL the victim mid-storm; the health loop must declare it dead
	// and re-route its incomplete jobs to the survivors.
	killedAt := time.Now()
	victim.kill()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		v, _ := reg.Value("ftrouter_failover_total")
		if v == 1 {
			break
		}
		if time.Now().After(deadline) {
			fatalf("ftrouter_failover_total = %v, want 1", v)
		}
	}
	// Kill-to-reroute latency as the parent observes it: health-probe
	// detection (FailThreshold misses at HealthInterval) plus the reroute
	// resubmissions; ftrouter_failover_seconds records the reroute part.
	failoverMS := time.Since(killedAt).Milliseconds()

	// Promote the standby and hold it to the loss bound: every submission
	// the victim acknowledged must be journaled in the mirror (the kill
	// waited for catch-up, so even the one-batch allowance goes unused),
	// and any terminal state it captured must carry the reference digest.
	promoted, err := fl.Promote(journal.Options{})
	if err != nil {
		fatalf("promoting standby: %v", err)
	}
	standbyByName := make(map[string]*journal.JobState)
	for _, js := range promoted.State().Jobs {
		standbyByName[js.Name] = js
	}
	var replayed []placed // victim jobs the standby will re-run
	for _, p := range placements {
		if p.backend != victim.name {
			continue
		}
		js, ok := standbyByName[p.name]
		if !ok {
			fatalf("%s was acknowledged by %s but is missing from the promoted standby journal (exceeds the one-batch loss bound)", p.name, victim.name)
		}
		if js.State == journal.Succeeded && js.SinkDigest != wantDigest[p.name] {
			fatalf("standby digest for %s = %s, want %s", p.name, js.SinkDigest, wantDigest[p.name])
		}
		if !js.Terminal() {
			replayed = append(replayed, p)
		}
	}
	if err := promoted.Close(); err != nil {
		fatalf("closing promoted journal: %v", err)
	}

	// Boot the promoted mirror as a fourth backend: its service replays the
	// victim's incomplete jobs from the streamed WAL, independently of the
	// router's re-routing — determinism makes the duplication benign.
	standby := start("standby")
	if err := rt.AddBackend(standby.name, standby.url); err != nil {
		fatalf("adding standby backend: %v", err)
	}

	// Every routed job must reach Succeeded with its reference digest, the
	// victim's via re-execution on a survivor.
	for _, p := range placements {
		rs := pollJSON(s, fmt.Sprintf("%s/jobs/%d", routerURL, p.id), "router status for "+p.name,
			fmt.Sprintf("job %d (%s) never reached a terminal state through the router", p.id, p.name),
			func(rs cluster.RoutedStatus) bool { return rs.State.Terminal() })
		if rs.State != service.Succeeded {
			fatalf("%s finished %v on %s, want succeeded", p.name, rs.State, rs.Backend)
		}
		if rs.SinkDigest != wantDigest[p.name] {
			fatalf("%s digest %s on %s != sequential reference %s (Theorem 1 violation across failover)",
				p.name, rs.SinkDigest, rs.Backend, wantDigest[p.name])
		}
	}

	// The standby's replay converges too: every job it inherited ends
	// Succeeded with the reference digest.
	pollJSON(s, standby.url+"/jobs", "standby jobs", "standby replay never converged",
		func(sts []service.Status) bool {
			for _, st := range sts {
				if !st.State.Terminal() {
					return false
				}
				if st.State != service.Succeeded {
					fatalf("standby replay of %s finished %v, want succeeded", st.Name, st.State)
				}
				if want, ok := wantDigest[st.Name]; !ok || st.SinkDigest != want {
					fatalf("standby replay of %s digest %s, want %s", st.Name, st.SinkDigest, want)
				}
			}
			return true
		})

	// Metric reconciliation against the one injected kill: the per-backend
	// routed counters must sum to submissions + re-routes, exactly one
	// failover latency observation exists, and nothing was rejected.
	rerouted, _ := reg.Value("ftrouter_rerouted_jobs_total")
	routedSum := 0.0
	for _, s := range reg.Gather() {
		if s.Name == "ftrouter_routed_total" {
			routedSum += s.Value
		}
	}
	if int(routedSum) != njobs+int(rerouted) {
		fatalf("ftrouter_routed_total sums to %v, want %d submitted + %v rerouted", routedSum, njobs, rerouted)
	}
	if h, ok := reg.Value("ftrouter_failover_seconds"); !ok || h != 1 {
		fatalf("ftrouter_failover_seconds observations = %v, want exactly 1", h)
	}
	if v, _ := reg.Value("ftrouter_saturated_total"); v != 0 {
		fatalf("ftrouter_saturated_total = %v, want 0 (queues were sized for the storm)", v)
	}

	// Black-box audit: collect every child's flight-recorder box, hold the
	// victim's to the router's placements and failover metrics, and probe
	// one kill-to-reroute job's merged cluster trace. Runs while backends
	// and router are still up (the merge polls /debug/spans live).
	backendProcs, probeName := 0, ""
	if blackbox {
		backendProcs, probeName = auditBlackBoxes(boxAudit{
			soak: s, victim: victim, placements: placements, replayed: replayed,
			routerURL: routerURL, routerSpans: routerSpans, rerouted: int(rerouted),
		})
	}

	rt.Stop()
	_ = ln.Close()
	for _, n := range s.procs {
		n.kill()
	}
	os.RemoveAll(root)
	fmt.Printf("ftsoak: PASS (cluster) — %d jobs across 3 backends (%d KiB WAL mirrored); killed %s holding %d jobs, failover in %dms, %d rerouted to survivors, %d replayed by the promoted standby; every digest matches its sequential reference\n",
		njobs, mirrored>>10, victim.name, perBackend[victim.name], failoverMS, int(rerouted), len(replayed))
	if blackbox {
		fmt.Printf("ftsoak: PASS (blackbox) — every SIGKILLed child left a parseable black box reconciling with the router's placements and failover metrics; job %s's merged trace spans the router + %d backend processes under one trace ID with failover-resubmit parented to the original submit\n",
			probeName, backendProcs)
	}
}
