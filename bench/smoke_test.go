package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

const testRoot = ".." // the package directory is <checkout>/bench

// leftovers lists what a finished run must not leave behind: its run
// directory, and any process started from it (the ftserve children are given
// data directories under it).
func leftovers(t *testing.T, root string) []string {
	t.Helper()
	runDir := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	var left []string
	if _, err := os.Stat(runDir); err == nil {
		left = append(left, runDir)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if b, err := os.ReadFile(p); err == nil && bytes.Contains(b, []byte(runDir)) {
			left = append(left, p+": "+strings.ReplaceAll(string(b), "\x00", " "))
		}
	}
	return left
}

// Every workload, untraced and traced, at smoke size: the result holds exactly
// the metric names BENCHMARK.json declares for that mode, every digest
// matches, and nothing is left running or on disk.
func TestSmokeEveryWorkload(t *testing.T) {
	man, err := loadManifest(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the driver has %d", len(man.Workloads), len(workloads))
	}
	for _, wl := range man.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				var report bytes.Buffer
				res, err := run(context.Background(), options{
					workload: wl.Name, seed: 3, seconds: 0.2, trace: trace, smoke: true, root: testRoot,
				}, &report)
				if err != nil {
					t.Fatalf("%v\n%s", err, report.String())
				}
				decl := man.EndToEnd
				if trace {
					decl = man.PerLayer
				}
				var want, got []string
				for _, d := range decl {
					want = append(want, d.Name)
				}
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(want)
				sort.Strings(got)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("metrics in the result:\n %v\ndeclared in BENCHMARK.json:\n %v", got, want)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
				}
				if left := leftovers(t, testRoot); len(left) > 0 {
					t.Errorf("left behind: %v", left)
				}
			})
		}
	}
}

// A cancelled run (what SIGINT and SIGTERM do, through the context main
// derives from them) stops its child and removes its directory.
func TestCancelCleansUp(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(800 * time.Millisecond) // inside the measured window, child running
		cancel()
	}()
	var report bytes.Buffer
	_, err := run(ctx, options{workload: "service_durable", seed: 1, seconds: 30, smoke: true, root: testRoot}, &report)
	if err == nil {
		t.Fatalf("a cancelled run returned a result\n%s", report.String())
	}
	if left := leftovers(t, testRoot); len(left) > 0 {
		t.Errorf("left behind: %v", left)
	}
}

// A run that fails (here: the checkout has no program to build) prints no
// result and cleans up.
func TestFailureCleansUp(t *testing.T) {
	root := t.TempDir()
	b, err := os.ReadFile(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if _, err := run(context.Background(), options{workload: "service_durable", seed: 1, seconds: 0.5, smoke: true, root: root}, &report); err == nil {
		t.Fatal("a run in a checkout without cmd/ftserve returned a result")
	}
	if left := leftovers(t, root); len(left) > 0 {
		t.Errorf("left behind: %v", left)
	}
}
