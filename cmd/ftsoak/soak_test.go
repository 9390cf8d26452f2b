package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftdag/internal/journal"
)

// TestMain lets the proc tests re-exec this test binary as their child:
// `<binary> proc-child <role>` never reaches the tests.
func TestMain(m *testing.M) {
	if len(os.Args) != 3 || os.Args[1] != "proc-child" {
		os.Exit(m.Run())
	}
	switch os.Args[2] {
	case "serve":
		fmt.Println("booting")
		fmt.Fprintln(os.Stderr, "a line on stderr")
		fmt.Println("listening 127.0.0.1:4242")
		fmt.Println("serving")
	case "die":
		fmt.Fprintln(os.Stderr, "cannot bind: address already in use")
		os.Exit(3)
	}
	select {} // "serve" and "quiet" live until killed
}

func startTestChild(t *testing.T, role string) *proc {
	t.Helper()
	p, err := startProc(role, os.Args[0], "proc-child", role)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	return p
}

// TestProcSupervision: the helper scrapes the child's address from its
// stdout, keeps both streams for the failure report, and a kill returns only
// once the child is reaped — nothing is left a zombie.
func TestProcSupervision(t *testing.T) {
	p := startTestChild(t, "serve")
	if err := p.listening(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.url != "http://127.0.0.1:4242" {
		t.Fatalf("scraped url %q", p.url)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(p.output(), "serving"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("output never showed the line after the address: %q", p.output())
		}
	}
	for _, want := range []string{"booting", "a line on stderr"} {
		if !strings.Contains(p.output(), want) {
			t.Errorf("kept output %q lacks %q", p.output(), want)
		}
	}
	pid := p.cmd.Process.Pid
	p.kill()
	if p.cmd.ProcessState == nil || p.err == nil {
		t.Fatalf("kill returned before the child was reaped (state %v, err %v)", p.cmd.ProcessState, p.err)
	}
	if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
		t.Fatalf("pid %d still has a /proc entry after kill: a zombie", pid)
	}
	p.kill() // a second kill of a reaped child is harmless
}

// TestProcReportsStartFailure: a child that dies before it listens, one that
// never says where it listens, and an executable that does not exist are
// each reported — the first two with what the child printed.
func TestProcReportsStartFailure(t *testing.T) {
	err := startTestChild(t, "die").listening(10 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "exited before reporting its address") ||
		!strings.Contains(err.Error(), "exit status 3") || !strings.Contains(err.Error(), "cannot bind: address already in use") {
		t.Fatalf("dead child reported as: %v", err)
	}
	err = startTestChild(t, "quiet").listening(50 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "never reported its address") {
		t.Fatalf("silent child reported as: %v", err)
	}
	if _, err := startProc("ghost", filepath.Join(t.TempDir(), "no-such-binary")); err == nil {
		t.Fatal("starting a missing executable succeeded")
	}
}

// TestCrashRebuildMatchesBuild: what the children journal is json(c), and
// what they rebuild from it after a kill must be the job that was built from
// c the first time — same graph, plan, policy, deadline and payload.
func TestCrashRebuildMatchesBuild(t *testing.T) {
	const timeout = 7 * time.Second
	policies := make(map[string]bool)
	for _, c := range crashJobList(11, 12) {
		built, err := buildCrashSpec(c, timeout)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := crashRebuild(timeout)(payload)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		planA, _ := json.Marshal(built.Plan)
		planB, _ := json.Marshal(rebuilt.Plan)
		if rebuilt.Name != built.Name || string(planA) != string(planB) || built.Plan.Len() != c.Faults ||
			rebuilt.Recovery != built.Recovery || rebuilt.ReplicaBudget != built.ReplicaBudget ||
			rebuilt.Deadline != timeout || built.Deadline != timeout || !rebuilt.VerifyChecksums ||
			string(rebuilt.Payload) != string(payload) || string(built.Payload) != string(payload) ||
			rebuilt.Spec.Sink() != built.Spec.Sink() || rebuilt.Verify == nil {
			t.Fatalf("%s rebuilt as %+v (plan %s), built as %+v (plan %s)", c.name(), rebuilt, planB, built, planA)
		}
		policies[string(built.Recovery)] = true
	}
	if len(policies) != 3 {
		t.Fatalf("the job list exercises policies %v, want all three", policies)
	}
	if _, err := crashRebuild(timeout)([]byte(`{"i":`)); err == nil {
		t.Fatal("a torn payload rebuilt")
	}
}

// TestCorruptJournalTail: both shapes of planted garbage — appended to the
// newest segment of a journal that was killed, and a garbage-only segment
// after a clean shutdown left nothing but a snapshot — leave a directory
// that journal.Open truncates, reports, and replays in full.
func TestCorruptJournalTail(t *testing.T) {
	for _, shutdown := range []string{"killed", "clean"} {
		t.Run(shutdown, func(t *testing.T) {
			dir := t.TempDir()
			jr, err := journal.Open(journal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for id := int64(1); id <= 3; id++ {
				rec := journal.Record{Kind: journal.Submitted, ID: id, Name: fmt.Sprintf("crash-%d", id), Payload: []byte(`{"i":1}`), Time: time.Now()}
				if err := jr.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if shutdown == "clean" {
				if err := jr.Close(); err != nil {
					t.Fatal(err)
				}
				if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 0 {
					t.Fatalf("a clean shutdown left segments %v; this case wants only a snapshot", segs)
				}
			} // "killed": the journal is abandoned as a SIGKILL would leave it

			path, err := corruptJournalTail(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(filepath.Base(path), "wal-") {
				t.Fatalf("corrupted %s, want a WAL segment", path)
			}
			var logged []string
			again, err := journal.Open(journal.Options{Dir: dir, Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }})
			if err != nil {
				t.Fatalf("journal refused to open over the corrupted tail: %v", err)
			}
			defer again.Close()
			if n, truncated := again.Truncated(); !truncated || n < 73 {
				t.Fatalf("Truncated() = %d, %v; want the 73 garbage bytes dropped", n, truncated)
			}
			if !strings.Contains(strings.Join(logged, "\n"), "torn tail") {
				t.Fatalf("no torn-tail warning in %q — the crash soak's parent greps for it", logged)
			}
			if st := again.State(); len(st.Jobs) != 3 || st.Jobs[2] == nil || st.Jobs[2].Name != "crash-2" {
				t.Fatalf("replayed %d jobs after truncation, want the 3 submitted", len(st.Jobs))
			}
		})
	}
}
