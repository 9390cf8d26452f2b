package core_test

import (
	"runtime"
	"testing"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/core"
	"ftdag/internal/harness"
)

// quickLCS returns harness.QuickSizes' LCS and a function that runs it once
// under FT on two workers with verified reads, checking its sink.
func quickLCS(tb testing.TB) (apps.Config, func()) {
	cfg := harness.QuickSizes()["LCS"]
	a, err := harness.MakeApp("LCS", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, func() {
		res, err := core.NewFT(a.Spec(), core.Config{Workers: 2, Retention: a.Retention(), VerifyChecksums: true, Timeout: 30 * time.Second}).Run()
		if err != nil {
			tb.Fatal(err)
		}
		if err := a.VerifySink(res.Sink); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestWarmRunRecyclesTheTable: LCS is single-assignment, so a run keeps its
// whole table until it ends. Its store then hands every tile to the free
// list, and the next run takes them all from there: a warm run allocates less
// than one table, where without the release it would allocate the table
// afresh. The least of three warm runs is taken, as TotalAlloc counts every
// goroutine's allocations.
func TestWarmRunRecyclesTheTable(t *testing.T) {
	cfg, run := quickLCS(t)
	run() // cold: the tiles are allocated, and handed back when the run ends
	table := uint64(cfg.N * cfg.N * 8)
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= table {
		t.Fatalf("a warm run allocated %d B, not less than the %d B table: its tiles did not come off the free list", least, table)
	}
	t.Logf("a warm run allocated %d B beside a %d B table", least, table)
}

// BenchmarkRerunLCS reruns harness.QuickSizes' LCS on one FT configuration
// (two workers, verified reads) after one warm-up run, so B/op and allocs/op
// are a warm run's: the tripwire for a change that stops a finished run's
// tiles from reaching the next one (make benchsmoke prints it). Freed buffers
// are poisoned in this package's tests, so ns/op is not the apps' speed.
func BenchmarkRerunLCS(b *testing.B) {
	_, run := quickLCS(b)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run()
	}
}
