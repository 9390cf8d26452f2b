// Crash soak: kill-and-restart durability testing for the journaled
// execution service. The parent process derives a deterministic job list
// from the master seed, computes each job's sequential reference digest,
// then repeatedly spawns a child server over one shared -data-dir and
// SIGKILLs it at a random point. Before the final (unkilled) run the parent
// deliberately corrupts the journal's tail and requires the child to
// recover by truncating it with a warning, not by refusing to boot. The
// run passes only if, at the end, every job is journaled Succeeded with a
// sink digest equal to its sequential reference — across however many
// crashes it took to get there.
package main

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ftdag/internal/cluster"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
	"ftdag/internal/service"
)

// crashJob is the self-contained, deterministic description of one soak
// job: everything the child needs to rebuild the identical graph, fault
// plan, and verification after any number of crashes. It doubles as the
// journaled JobSpec.Payload.
type crashJob struct {
	I      int    `json:"i"`
	GSeed  uint64 `json:"gseed"`
	Layers int    `json:"layers"`
	Width  int    `json:"width"`
	MaxIn  int    `json:"max_in"`
	Faults int    `json:"faults"`
	FSeed  int64  `json:"fseed"`
	// Recovery/Budget cycle through the recovery policies so the crash soak
	// round-trips the journaled per-job policy across kills and restarts.
	Recovery string  `json:"recovery,omitempty"`
	Budget   float64 `json:"budget,omitempty"`
	// Points restricts the fault storm: "compute" allows only
	// BeforeCompute/AfterCompute injections, keeping recovery accounting
	// 1:1 with firings (the cluster soak reconciles counters this way);
	// empty allows every point.
	Points string `json:"points,omitempty"`
	// DelayMS overrides the per-task slowdown (0: the default 5ms). The
	// cluster soak stretches tasks further so a SIGKILL reliably lands
	// while the victim still has jobs in flight.
	DelayMS int `json:"delay_ms,omitempty"`
}

func (c crashJob) name() string { return fmt.Sprintf("crash-%d", c.I) }

func (c crashJob) graph() graph.Spec {
	return graph.Layered(c.Layers, c.Width, c.MaxIn, c.GSeed, nil)
}

// slowSpec stretches each task by a fixed delay so a child incarnation is
// actually mid-execution when the parent's SIGKILL lands; without it the
// tiny soak graphs finish before any kill can fire. The delay does not
// change task outputs, so verification against the undelayed sequential
// reference still holds.
type slowSpec struct {
	graph.Spec
	delay time.Duration
}

func (s slowSpec) Compute(ctx graph.Context, key graph.Key) error {
	time.Sleep(s.delay)
	return s.Spec.Compute(ctx, key)
}

// crashJobList derives the deterministic job list from the master seed.
func crashJobList(seed int64, n int) []crashJob {
	rng := mrand.New(mrand.NewSource(seed))
	policies := []struct {
		recovery string
		budget   float64
	}{
		{string(service.RecoverFTNabbit), 0},
		{string(service.RecoverReplicateAll), 0},
		{string(service.RecoverReplicateSelective), 0.5},
	}
	jobs := make([]crashJob, n)
	for i := range jobs {
		jobs[i] = crashJob{
			I:        i,
			GSeed:    rng.Uint64() | 1,
			Layers:   3 + rng.Intn(4),
			Width:    3 + rng.Intn(4),
			MaxIn:    1 + rng.Intn(3),
			Faults:   rng.Intn(6),
			FSeed:    rng.Int63(),
			Recovery: policies[i%len(policies)].recovery,
			Budget:   policies[i%len(policies)].budget,
		}
	}
	return jobs
}

// buildCrashSpec turns a crashJob into a runnable JobSpec: Recorder-wrapped
// graph, the job's deterministic fault plan, and a task-by-task Verify
// against a sequential reference computed fresh in this process.
func buildCrashSpec(c crashJob, timeout time.Duration) (service.JobSpec, error) {
	g := c.graph()
	want, err := truth(g)
	if err != nil {
		return service.JobSpec{}, fmt.Errorf("sequential reference for %s: %w", c.name(), err)
	}
	plan := fault.NewPlan()
	points := []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify}
	if c.Points == "compute" {
		points = points[:2]
	}
	prng := mrand.New(mrand.NewSource(c.FSeed))
	for _, k := range fault.SelectTasks(g, fault.AnyTask, c.Faults, c.FSeed) {
		plan.Add(k, points[prng.Intn(len(points))], 1+prng.Intn(3))
	}
	delay := 5 * time.Millisecond
	if c.DelayMS > 0 {
		delay = time.Duration(c.DelayMS) * time.Millisecond
	}
	spec := verifiedJob(c.name(), slowSpec{Spec: g, delay: delay}, want, plan, timeout)
	spec.Recovery, spec.ReplicaBudget = service.RecoveryPolicy(c.Recovery), c.Budget
	spec.Payload, err = json.Marshal(c)
	return spec, err
}

// crashRebuild is the child's Config.Rebuild: payload JSON back to the
// identical JobSpec (the journaled plan manifest then overrides the
// freshly derived — identical — plan).
func crashRebuild(timeout time.Duration) func([]byte) (service.JobSpec, error) {
	return func(payload []byte) (service.JobSpec, error) {
		var c crashJob
		if err := json.Unmarshal(payload, &c); err != nil {
			return service.JobSpec{}, fmt.Errorf("decoding crash payload: %w", err)
		}
		return buildCrashSpec(c, timeout)
	}
}

// runCrashChild is the child process: boot over the journal the way ftserve
// does (recovering whatever the previous incarnation left and re-enqueueing
// its incomplete jobs), submit jobs never journaled, wait for everything,
// exit 0. The parent may SIGKILL it anywhere in between — that is the point.
func runCrashChild(dataDir string, seed int64, njobs, workers int, timeout time.Duration) error {
	be, err := cluster.OpenBackend(cluster.BackendConfig{
		Name:    "crashchild",
		DataDir: dataDir,
		Service: service.Config{Workers: workers, MaxConcurrentJobs: 2, MaxQueuedJobs: njobs + 4},
		Build:   crashRebuild(timeout),
	})
	if err != nil {
		return err
	}
	srv := be.Service
	have := make(map[string]bool)
	for _, st := range srv.Jobs() {
		have[st.Name] = true
	}
	for _, c := range crashJobList(seed, njobs) {
		if have[c.name()] {
			continue
		}
		spec, err := buildCrashSpec(c, timeout)
		if err != nil {
			return err
		}
		if _, err := srv.Submit(spec); err != nil {
			return fmt.Errorf("submit %s: %w", c.name(), err)
		}
		have[c.name()] = true
	}
	if len(have) != njobs {
		return fmt.Errorf("%d distinct jobs restored or submitted, want %d", len(have), njobs)
	}
	for _, st := range srv.Jobs() {
		if h, err := srv.Job(st.ID); err == nil {
			if _, err := h.Wait(); err != nil {
				return fmt.Errorf("%s: %w", st.Name, err)
			}
		}
	}
	srv.Close()
	fmt.Printf("crashchild: all %d jobs terminal\n", njobs)
	return nil
}

// corruptJournalTail simulates a torn write: garbage appended to the
// newest WAL segment (or, when a clean exit left only snapshots, a fresh
// segment holding nothing but garbage after its magic). The next boot must
// truncate it with a warning, not fail.
func corruptJournalTail(dataDir string) (string, error) {
	garbage := make([]byte, 73)
	if _, err := rand.Read(garbage); err != nil {
		return "", err
	}
	files, err := journal.ScanTailDir(dataDir)
	if err != nil {
		return "", err
	}
	if n := len(files.Segments); n > 0 {
		path := filepath.Join(dataDir, journal.SegmentFileName(files.Segments[n-1].Seq))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return "", err
		}
		_, werr := f.Write(garbage)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return path, werr
	}
	// Clean shutdown compacted every segment away: plant a segment, named
	// after the newest snapshot, that is pure garbage past the magic.
	n := len(files.Snapshots)
	if n == 0 {
		return "", fmt.Errorf("nothing to corrupt in %s", dataDir)
	}
	path := filepath.Join(dataDir, journal.SegmentFileName(files.Snapshots[n-1].Seq))
	return path, os.WriteFile(path, append([]byte("FTJRNL01"), garbage...), 0o644)
}

// runCrashSoak is the parent: spawn/kill loop bounded by -cycles kill
// cycles, tail corruption, final verification of every job against its
// sequential reference digest.
func runCrashSoak(seed int64, cycles, njobs, workers int, timeout time.Duration, verbose bool) {
	s := newSoak("crash")
	dataDir := s.root
	fmt.Printf("ftsoak: crash soak seed=%d jobs=%d data-dir=%s\n", seed, njobs, dataDir)

	// Sequential reference digests, computed once up front.
	jobs := crashJobList(seed, njobs)
	wantDigest := s.references(jobs)

	child := func(name string) *proc {
		return s.start(name,
			"-crashchild",
			"-datadir", dataDir,
			"-seed", fmt.Sprint(seed),
			"-crashjobs", fmt.Sprint(njobs),
			"-maxworkers", fmt.Sprint(workers),
			"-timeout", fmt.Sprint(timeout))
	}

	// Kill loop: let each incarnation live 30–400ms, then SIGKILL it.
	// Bounded by kill cycles, not wall clock, so the same -seed -cycles
	// pair replays the same schedule of child lifetimes everywhere.
	krng := mrand.New(mrand.NewSource(seed ^ 0x6b696c6c)) // "kill"
	runs, kills := 0, 0
	for finished := false; kills < cycles && !finished; {
		runs++
		c := child(fmt.Sprintf("child run %d", runs))
		live := time.Duration(30+krng.Intn(370)) * time.Millisecond
		select {
		case <-c.done:
			if c.err != nil {
				s.fatalf("child run %d exited with error: %v", runs, c.err)
			}
			if verbose {
				fmt.Printf("run %d: child finished cleanly\n", runs)
			}
			finished = true
		case <-time.After(live):
			c.kill()
			kills++
			if verbose {
				fmt.Printf("run %d: SIGKILL after %v\n", runs, live)
			}
		}
	}

	// Corrupt the tail, then require the final run to boot through it
	// (truncate-with-warning) and finish every job.
	corrupted, err := corruptJournalTail(dataDir)
	if err != nil {
		s.fatalf("corrupting journal tail: %v", err)
	}
	if verbose {
		fmt.Printf("corrupted tail of %s\n", corrupted)
	}
	final := child("final child run")
	<-final.done
	if final.err != nil {
		s.fatalf("final child run failed: %v", final.err)
	}
	if !strings.Contains(final.output(), "torn tail") {
		s.fatalf("final run did not report the corrupted tail truncation")
	}

	// Final verification straight from the journal: every job Succeeded,
	// every digest equal to its sequential reference.
	jr, err := journal.Open(journal.Options{Dir: dataDir})
	if err != nil {
		s.fatalf("opening journal for verification: %v", err)
	}
	st := jr.State()
	byName := make(map[string]*journal.JobState, len(st.Jobs))
	for _, js := range st.Jobs {
		byName[js.Name] = js
	}
	reexec := int64(0)
	for _, c := range jobs {
		js, ok := byName[c.name()]
		if !ok {
			s.fatalf("%s missing from journal after recovery", c.name())
		}
		if js.State != journal.Succeeded {
			s.fatalf("%s recovered as %v (error %q), want succeeded", c.name(), js.State, js.Error)
		}
		if js.SinkDigest != wantDigest[c.name()] {
			s.fatalf("%s digest %s != sequential reference %s (Theorem 1 violation across restarts)",
				c.name(), js.SinkDigest, wantDigest[c.name()])
		}
		reexec += js.ReexecutedTasks
	}
	if err := jr.Close(); err != nil {
		s.fatalf("closing journal: %v", err)
	}
	os.RemoveAll(dataDir)
	fmt.Printf("ftsoak: PASS (crash) — %d jobs verified across %d run(s), %d kill(s), 1 corrupted tail; %d tasks re-executed\n",
		njobs, runs+1, kills, reexec)
}
