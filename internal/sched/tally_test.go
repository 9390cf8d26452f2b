package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ftdag/internal/deque"
)

// TestTallyNoFalseQuiescence drives a tally the way a pool does — a job is
// added (to a random pair) by its parent before the parent is counted done
// (on another random pair) — while scanners call quiescent() without pause.
// Each round is a root and a few long chains, so that only a handful of jobs
// are outstanding at a time: a scan in the wrong order (added, then done) then
// needs just those few to finish between its passes to be fooled.
// The test keeps its own ground truth: live is raised after a job's added has
// landed and lowered before its done starts, and round is odd from the moment
// a root is outstanding until just before the last job of its tree is counted
// done. A scan that lies wholly inside one odd round must not see quiescence;
// after the last done of a round has landed it must.
func TestTallyNoFalseQuiescence(t *testing.T) {
	const pairs, runners, scanners, rounds, chains, depth = 5, 3, 2, 20, 2, 300
	const perRound = 1 + chains*depth
	tl := newTally(pairs - 1)
	var live, round, landed atomic.Int64

	type item struct{ fan, depth int } // spawns fan children if depth > 0
	work := make(chan item, 1024)
	var wg sync.WaitGroup
	finished := make(chan struct{}, 1)

	add := func(r *rand.Rand, depth int) {
		tl[r.Intn(pairs)].added.Add(1)
		live.Add(1)
		work <- item{1, depth}
	}
	for i := 0; i < runners; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for it := range work {
				if it.depth > 0 {
					for c := 0; c < it.fan; c++ {
						add(r, it.depth-1)
					}
				}
				if live.Add(-1) == 0 {
					round.Add(1) // even: the tree is about to be done
				}
				tl[r.Intn(pairs)].done.Add(1)
				if landed.Add(1)%perRound == 0 {
					finished <- struct{}{}
				}
			}
		}(int64(i) + 1)
	}

	stop := make(chan struct{})
	var scans, violations atomic.Int64
	var scanWG sync.WaitGroup
	scanWG.Add(scanners)
	scan := func() {
		defer scanWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r1 := round.Load()
			q := tl.quiescent()
			if r2 := round.Load(); q && r1 == r2 && r1%2 == 1 {
				violations.Add(1)
			}
			scans.Add(1)
		}
	}
	for i := 0; i < scanners; i++ {
		go scan()
	}

	root := rand.New(rand.NewSource(99))
	for i := 0; i < rounds; i++ {
		tl[root.Intn(pairs)].added.Add(1)
		live.Add(1)
		round.Add(1) // odd: a job is known to be outstanding
		work <- item{chains, depth}
		<-finished
		if !tl.quiescent() {
			t.Fatalf("round %d: not quiescent after the last done (pending %d)", i, tl.pending())
		}
	}
	close(work)
	wg.Wait()
	close(stop)
	scanWG.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("quiescent() returned true %d times (of %d scans) while a job was outstanding", v, scans.Load())
	}
	if tl.pending() != 0 {
		t.Fatalf("pending = %d at the end, want 0", tl.pending())
	}
}

// TestGroupHoldNoFalseQuiescence drives the groups' holds on a live pool:
// outside goroutines, one per group, submit a chain of grouped jobs (each
// spawns the next before it is counted done), and as soon as the chain's last
// job has run they submit the next — half the time after Wait, half the time
// without waiting for the release, so that the Submit races the worker that
// is releasing the hold. Scanners look at the pool's tally without pause. The
// ground truth is each group's round: odd from before the chain's root can
// run (it waits for the round to be raised) until its last job's body ends,
// and all that time one job of the chain is outstanding. A scan that lies
// wholly inside an odd round of some group must not find the pool quiescent;
// Wait must not return inside one; and Stats must count every chain's jobs
// once, the holds not at all.
func TestGroupHoldNoFalseQuiescence(t *testing.T) {
	const submitters, scanners, rounds, chain = 3, 2, 200, 20
	pool := NewPool(4)
	round := make([]atomic.Int64, submitters)

	var link func(g *Group, r *atomic.Int64, left int) Func
	link = func(g *Group, r *atomic.Int64, left int) Func {
		return func(w *Worker) {
			if left == 0 {
				r.Add(1) // even: the chain's last job is about to be counted done
				return
			}
			g.Spawn(w, link(g, r, left-1))
		}
	}

	stop := make(chan struct{})
	var scans, violations atomic.Int64
	var scanWG sync.WaitGroup
	for i := 0; i < scanners; i++ {
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			var r1 [submitters]int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range round {
					r1[i] = round[i].Load()
				}
				q := pool.tally.quiescent()
				for i := range round {
					if r2 := round[i].Load(); q && r1[i] == r2 && r2%2 == 1 {
						violations.Add(1)
					}
				}
				scans.Add(1)
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(r *atomic.Int64) {
			defer wg.Done()
			g := pool.NewGroup()
			for k := 0; k < rounds; k++ {
				gate := make(chan struct{})
				next := link(g, r, chain-1)
				g.Submit(func(w *Worker) {
					<-gate
					next(w)
				})
				r.Add(1) // odd: the root is counted and cannot finish before the gate opens
				close(gate)
				if k%2 == 0 {
					g.Wait()
					if r.Load()%2 == 1 {
						t.Errorf("round %d: Wait returned while the chain was running", k)
						return
					}
					continue
				}
				for r.Load()%2 == 1 {
					runtime.Gosched()
				}
			}
			g.Wait()
		}(&round[i])
	}
	wg.Wait()
	pool.Wait()
	close(stop)
	scanWG.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("the pool's tally was quiescent %d times (of %d scans) while a grouped job was outstanding", v, scans.Load())
	}

	// The race above that is hardest to hit, made to happen: a worker's scan
	// found the group idle, and a Submit came in before it took the lock.
	// The release must look again and keep the hold.
	g := pool.NewGroup()
	gate := make(chan struct{})
	g.Submit(func(*Worker) { <-gate })
	g.release()
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	if !held || pool.tally.quiescent() {
		t.Fatalf("a release with a job of the group outstanding gave the hold back (held %v)", held)
	}
	close(gate)
	g.Wait()
	s := pool.Close()
	jobs, spawns := int64(submitters*rounds*chain+1), int64(submitters*rounds*(chain-1))
	if s.Jobs != jobs || s.Spawns != spawns {
		t.Fatalf("Jobs = %d, Spawns = %d, want %d and %d", s.Jobs, s.Spawns, jobs, spawns)
	}
}

// TestGroupQuiescesWhileWorkerContinues: group A's last job finishes on a
// worker that goes straight on to group B's long-running job. A's waiter must
// be released then — by the scan where the worker leaves A — and not when the
// pool next goes idle.
func TestGroupQuiescesWhileWorkerContinues(t *testing.T) {
	pool := NewPool(1) // one worker, one FIFO shard: the order below is the order run
	defer pool.Close()
	gA, gB := pool.NewGroup(), pool.NewGroup()

	aStarted, aGate := make(chan struct{}), make(chan struct{})
	bStarted, bGate := make(chan struct{}), make(chan struct{})
	gA.Submit(func(w *Worker) {
		close(aStarted)
		<-aGate
	})
	<-aStarted
	gB.Submit(func(w *Worker) {
		close(bStarted)
		<-bGate
	})

	waited := make(chan bool, 1)
	go func() { waited <- gA.WaitTimeout(groupTestTimeout) }()
	// Not synchronization, only odds: give the waiter time to fall asleep on
	// the condition, so that it is the worker's broadcast that releases it
	// and not Wait's own first look at the tally.
	time.Sleep(2 * time.Millisecond)
	close(aGate)

	<-bStarted
	if !<-waited {
		t.Fatal("group A's Wait did not return while the worker was busy with group B")
	}
	if gA.Pending() != 0 {
		t.Fatalf("group A pending = %d after Wait", gA.Pending())
	}
	if gB.Pending() != 1 {
		t.Fatalf("group B pending = %d while its job is blocked, want 1", gB.Pending())
	}
	close(bGate)
	gB.Wait()
	pool.Wait()
}

// TestGroupWaitEdges: Wait on a group that never ran anything and on one that
// is long done returns at once; Wait racing the group's only job returns after
// it; a group aborted with work queued drains to Pending() == 0; and one pool
// serves a thousand groups in turn.
func TestGroupWaitEdges(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()

	empty := pool.NewGroup()
	empty.Wait()
	if empty.Pending() != 0 {
		t.Fatalf("empty group pending = %d", empty.Pending())
	}

	var ran atomic.Int64
	for i := 0; i < 1000; i++ {
		g := pool.NewGroup()
		g.Submit(func(w *Worker) {
			g.Spawn(w, func(*Worker) { ran.Add(1) })
		})
		g.Wait() // races the job: sometimes first, sometimes last
		if got := ran.Load(); got != int64(i+1) {
			t.Fatalf("group %d: Wait returned with %d spawned jobs run, want %d", i, got, i+1)
		}
		if g.Pending() != 0 {
			t.Fatalf("group %d: pending = %d after Wait", i, g.Pending())
		}
		g.Wait() // after quiescence
	}

	g := pool.NewGroup()
	spawned, gate := make(chan struct{}), make(chan struct{})
	g.Submit(func(w *Worker) {
		for i := 0; i < 64; i++ {
			g.Spawn(w, func(*Worker) {})
		}
		close(spawned)
		<-gate // what no thief has taken stays queued until the abort
	})
	<-spawned
	g.Abort()
	g.Wait() // returns on the abort flag
	close(gate)
	pool.Wait()
	waitDrained(t, g)
}

// waitDrained returns when g.Pending() is 0. After Group.Wait has returned
// from quiescence that is at once; after Pool.Wait it is one atomic add away,
// because a job leaves the pool's count just before it leaves its group's.
func waitDrained(t *testing.T, g *Group) {
	t.Helper()
	for deadline := time.Now().Add(groupTestTimeout); g.Pending() != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("group still has %d pending after the pool drained", g.Pending())
		}
	}
}

// TestSchedLayout: a pair fills two cache lines, the counts a job writes live
// in pair arrays outside Pool and Group, and what Pool has written per
// submission and placement is two lines away from what every spawn and every
// turn of the worker loop reads.
func TestSchedLayout(t *testing.T) {
	if sz := unsafe.Sizeof(pair{}); sz != 128 {
		t.Fatalf("pair is %d bytes, want 128: adjust its padding", sz)
	}
	if sz := unsafe.Sizeof(job{}); sz > 40 {
		t.Fatalf("job is %d bytes, want at most 40", sz)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Pool{}), reflect.TypeOf(Group{})} {
		f, ok := typ.FieldByName("tally")
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Fatalf("%s.tally must be a slice: the pairs do not belong on the struct's own lines", typ.Name())
		}
	}
	// A deque is two blocks, thieves' top on the first, the owner's bottom
	// and buf on the second.
	dq := reflect.TypeOf(deque.Deque[job]{})
	for name, want := range map[string]uintptr{"top": 0, "bottom": 128, "buf": 136} {
		if f, ok := dq.FieldByName(name); !ok || f.Offset != want {
			t.Errorf("Deque.%s at offset %d (found %v), want %d", name, f.Offset, ok, want)
		}
	}
	if dq.Size() != 256 {
		t.Errorf("Deque is %d bytes, want 256: adjust its padding", dq.Size())
	}
	var p Pool
	read := map[string]uintptr{
		"parkHead": unsafe.Offsetof(p.parkHead),
		"stop":     unsafe.Offsetof(p.stop),
	}
	written := map[string]uintptr{
		"placedLen": unsafe.Offsetof(p.placedLen),
	}
	for rn, ro := range read {
		for wn, wo := range written {
			if d := int64(wo) - int64(ro); d < 128 && d > -128 {
				t.Errorf("Pool.%s (offset %d) is within 128 bytes of Pool.%s (offset %d)", wn, wo, rn, ro)
			}
		}
	}
}

// TestWorkerLayout takes, on a live pool, the address of every word a worker
// writes per job — its deque's bottom and buf and its ring's first slot, the
// header of free, cur, rng, its pairs of the pool's and of a group's tally —
// and of its deque's top, which thieves write: no two workers' words, and no
// deque's top and bottom, may lie in one 128-byte block. Sizeof cannot say
// that; where the allocator puts the objects decides it.
func TestWorkerLayout(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		pool := NewPool(p)
		g := pool.NewGroup()
		owner := map[uintptr]string{} // 128-byte block → who writes in it
		claim := func(who, what string, addr uintptr) {
			if prev, ok := owner[addr>>7]; ok && prev != who {
				t.Errorf("P=%d: %s.%s (%#x) is in one 128-byte block with a word of %s", p, who, what, addr, prev)
			}
			owner[addr>>7] = who
		}
		for i, w := range pool.workers {
			who := fmt.Sprintf("worker %d", i)
			dq := reflect.ValueOf(w.dq).Elem()
			ring := dq.FieldByName("buf").FieldByName("v").UnsafePointer()
			elts := reflect.NewAt(reflect.TypeOf([]uintptr(nil)), unsafe.Add(ring, 8)).Elem() // ring{mask, elts}
			claim(who, "dq.bottom", dq.FieldByName("bottom").UnsafeAddr())
			claim(who, "dq.buf", dq.FieldByName("buf").UnsafeAddr())
			claim(who, "dq ring[0]", elts.Pointer())
			claim(who, "free", uintptr(unsafe.Pointer(&w.free)))
			claim(who, "free+16", uintptr(unsafe.Pointer(&w.free))+16)
			claim(who, "cur", uintptr(unsafe.Pointer(&w.cur)))
			claim(who, "rng", uintptr(unsafe.Pointer(&w.rng)))
			for name, tl := range map[string]tally{"pool": pool.tally, "group": g.tally} {
				claim(who, name+" tally added", uintptr(unsafe.Pointer(&tl[i].added)))
				claim(who, name+" tally done", uintptr(unsafe.Pointer(&tl[i].done)))
			}
			claim(fmt.Sprintf("the thieves of worker %d", i), "dq.top", dq.FieldByName("top").UnsafeAddr())
		}
		pool.Close()
	}
}

// TestStatsAreThePairs: Stats.Jobs and Stats.Spawns keep their meaning now
// that they are read off the tallies — Jobs is every job executed, Spawns the
// jobs pushed by running jobs, with the root Submit and the placed jobs
// (SpawnAvoiding, grouped and ungrouped) left out. A grouped job is counted in
// the group's pairs alone, the pool's see the group's one hold on the
// external pair, and the group's counts reach Stats when it releases the
// hold, before its Wait returns.
func TestStatsAreThePairs(t *testing.T) {
	pool := NewPool(1)
	g := pool.NewGroup()
	g.Submit(func(w *Worker) {
		for i := 0; i < 10; i++ {
			g.Spawn(w, func(w *Worker) {
				g.Spawn(w, func(*Worker) {})
			})
		}
		g.SpawnAvoiding(w, func(*Worker) {})
	})
	g.Wait()
	if a, d := g.tally[0].added.Load(), g.tally[0].done.Load(); a != 20 || d != 22 {
		t.Fatalf("group's worker pair: added %d done %d, want 20 and 22", a, d)
	}
	if a, d := g.tally.external().added.Load(), g.tally.external().done.Load(); a != 2 || d != 0 {
		t.Fatalf("group's external pair: added %d done %d, want 2 (Submit, SpawnAvoiding) and 0", a, d)
	}
	if a, d := pool.tally[0].added.Load(), pool.tally[0].done.Load(); a != 0 || d != 0 {
		t.Fatalf("pool's worker pair: added %d done %d, want 0 and 0", a, d)
	}
	if a, d := pool.tally.external().added.Load(), pool.tally.external().done.Load(); a != 1 || d != 1 {
		t.Fatalf("pool's external pair: added %d done %d, want the group's hold, taken and released", a, d)
	}
	if s := pool.StatsSnapshot(); s.Jobs != 22 || s.Spawns != 20 {
		t.Fatalf("after the group's Wait: Jobs = %d, Spawns = %d, want 22 and 20", s.Jobs, s.Spawns)
	}
	pool.Submit(func(w *Worker) {
		w.Spawn(func(*Worker) {})
		(*Group)(nil).SpawnAvoiding(w, func(*Worker) {})
	})
	s := pool.Close()
	if s.Jobs != 25 || s.Spawns != 21 {
		t.Fatalf("Jobs = %d, Spawns = %d, want 25 and 21", s.Jobs, s.Spawns)
	}
}
