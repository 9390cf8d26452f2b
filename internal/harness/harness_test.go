package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ftdag/internal/fault"
)

func quickHarness(t *testing.T) (*Harness, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	h := New(Options{
		Sizes:   QuickSizes(),
		Runs:    1,
		Cores:   []int{1, 2},
		Workers: 2,
		Verify:  true,
		Out:     &buf,
	})
	return h, &buf
}

func TestTable1(t *testing.T) {
	h, buf := quickHarness(t)
	if err := h.Table1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "LCS", "Cholesky", "T", "E", "S"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4(t *testing.T) {
	h, _ := quickHarness(t)
	rows, err := h.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames)*2 {
		t.Fatalf("Fig4 produced %d rows, want %d", len(rows), len(AppNames)*2)
	}
	for _, r := range rows {
		if r.Baseline <= 0 || r.FT <= 0 {
			t.Fatalf("non-positive speedup: %+v", r)
		}
	}
}

func TestFig5aAndCounts(t *testing.T) {
	h, _ := quickHarness(t)
	rows, err := h.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames)*6 {
		t.Fatalf("Fig5a produced %d rows, want %d", len(rows), len(AppNames)*6)
	}
	// Before-compute scenarios must re-execute nothing.
	for _, r := range rows {
		if r.Point == fault.BeforeCompute && r.ReexecAvg != 0 {
			t.Fatalf("before-compute re-executed %v tasks: %+v", r.ReexecAvg, r)
		}
		if r.Point == fault.AfterCompute && r.ReexecAvg < float64(r.Count) {
			t.Fatalf("after-compute re-executed %v < injected %d: %+v", r.ReexecAvg, r.Count, r)
		}
	}
}

func TestFig5b(t *testing.T) {
	h, _ := quickHarness(t)
	rows, err := h.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames)*4 {
		t.Fatalf("Fig5b produced %d rows, want %d", len(rows), len(AppNames)*4)
	}
}

func TestTable2(t *testing.T) {
	h, _ := quickHarness(t)
	rows, err := h.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames)*3 {
		t.Fatalf("Table2 produced %d rows, want %d", len(rows), len(AppNames)*3)
	}
	for _, r := range rows {
		if r.Summary.N != 1 {
			t.Fatalf("Table2 summary over %d runs, want 1", r.Summary.N)
		}
		if r.Summary.Min < 0 {
			t.Fatalf("negative re-execution count: %+v", r)
		}
	}
}

func TestFig6(t *testing.T) {
	h, _ := quickHarness(t)
	rows, err := h.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames)*5 {
		t.Fatalf("Fig6 produced %d rows, want %d", len(rows), len(AppNames)*5)
	}
}

func TestFig7(t *testing.T) {
	h, _ := quickHarness(t)
	rows, err := h.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames)*2*2 {
		t.Fatalf("Fig7 produced %d rows, want %d", len(rows), len(AppNames)*4)
	}
}

func TestFixedCounts(t *testing.T) {
	h, _ := quickHarness(t)
	rows, err := h.FixedCounts()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no fixed-count rows")
	}
	for _, r := range rows {
		// Each failed task re-executes at least once; memory reuse can
		// cascade the recovery into recomputing evicted earlier
		// versions (paper §VI-C), so more is legal.
		if r.ReexecAvg < float64(r.Count) {
			t.Fatalf("%s: after-compute fixed count %d re-executed %v, want >= count",
				r.App, r.Count, r.ReexecAvg)
		}
		// LCS is single-assignment: the chain length is always exactly
		// the number of failed tasks.
		if r.App == "LCS" && r.ReexecAvg != float64(r.Count) {
			t.Fatalf("LCS: count %d re-executed %v, want exact", r.Count, r.ReexecAvg)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	h, buf := quickHarness(t)
	if err := h.Run("table1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "done in") {
		t.Fatal("missing completion marker")
	}
	if err := h.Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestScaledCount(t *testing.T) {
	h, _ := quickHarness(t)
	for _, name := range AppNames {
		c := h.ScaledCount(name, 512)
		if c < 1 {
			t.Fatalf("%s: scaled count %d", name, c)
		}
		tasks := h.Props(name).Tasks
		if c > tasks/10 {
			t.Fatalf("%s: scaled count %d too large for %d tasks", name, c, tasks)
		}
	}
}

func TestSizesPresets(t *testing.T) {
	for _, s := range []Sizes{QuickSizes(), BenchSizes(), PaperSizes()} {
		for _, name := range AppNames {
			cfg, ok := s[name]
			if !ok {
				t.Fatalf("preset missing %s", name)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Runs <= 0 || len(o.Cores) == 0 || o.Workers <= 0 || o.Sizes == nil || o.Out == nil {
		t.Fatalf("Defaults left fields unset: %+v", o)
	}
}

func TestComparators(t *testing.T) {
	h, buf := quickHarness(t)
	rows, err := h.Comparators()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames)*4 {
		t.Fatalf("Comparators produced %d rows, want %d", len(rows), len(AppNames)*4)
	}
	for _, r := range rows {
		if r.CleanTime <= 0 || r.FaultyTime <= 0 {
			t.Fatalf("non-positive time: %+v", r)
		}
		// Selective recovery must re-execute the fewest computes.
		if r.Scheme == "checkpoint" && r.Reexecuted == 0 {
			t.Fatalf("checkpoint rollback re-executed nothing: %+v", r)
		}
		// Only the redundant schemes can catch silent corruptions, and
		// full DMR must catch every one of them.
		switch r.Scheme {
		case "ft-selective", "checkpoint":
			if r.SDCRate != 0 || r.Replicas != 0 {
				t.Fatalf("non-redundant scheme reports replication: %+v", r)
			}
		case "replication":
			if r.SDCRate != 1 {
				t.Fatalf("full DMR missed silent corruptions: %+v", r)
			}
			// FT plus a shadow for every task; recovered tasks run theirs again.
			if tasks := h.Props(r.App).Tasks; r.Replicas < float64(tasks) {
				t.Fatalf("full DMR replicated %.0f of %d tasks: %+v", r.Replicas, tasks, r)
			}
		case "ft-replicate-selective":
			if r.Replicas <= 0 {
				t.Fatalf("selective replication replicated nothing: %+v", r)
			}
		}
	}
	if !strings.Contains(buf.String(), "ft-selective") {
		t.Fatal("missing ft-selective rows")
	}
	if !strings.Contains(buf.String(), "ft-replicate-selective") {
		t.Fatal("missing ft-replicate-selective rows")
	}
}

func TestTheoryExperiment(t *testing.T) {
	h, _ := quickHarness(t)
	rows, err := h.Theory()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames)*2 {
		t.Fatalf("Theory produced %d rows, want %d", len(rows), len(AppNames)*2)
	}
	for _, r := range rows {
		if r.T1 <= 0 || r.TInf <= 0 || r.Greedy <= 0 || r.Ratio <= 0 {
			t.Fatalf("non-positive theory quantities: %+v", r)
		}
		if r.TInf > r.T1+1e-12 {
			t.Fatalf("span exceeds work: %+v", r)
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	h := New(Options{
		Sizes:   QuickSizes(),
		Runs:    1,
		Cores:   []int{1},
		Workers: 1,
		Out:     &buf,
		CSVDir:  dir,
	})
	for _, exp := range []string{"table1", "counts"} {
		if err := h.Run(exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	for _, f := range []string{"table1.csv", "counts.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s has %d lines", f, len(lines))
		}
		if !strings.Contains(lines[0], "app") {
			t.Fatalf("%s header: %q", f, lines[0])
		}
	}
}

func TestCalibrateCount(t *testing.T) {
	h, _ := quickHarness(t)
	// LCS is single-assignment: chain length 1, count == target.
	c, err := h.CalibrateCount("LCS", fault.AfterCompute, fault.VRand, 20)
	if err != nil {
		t.Fatal(err)
	}
	if c != 20 {
		t.Fatalf("LCS calibrated count = %d, want 20 (chain length 1)", c)
	}
	// LU cascades: the calibrated count must be below the target.
	c, err = h.CalibrateCount("LU", fault.AfterCompute, fault.VRand, 40)
	if err != nil {
		t.Fatal(err)
	}
	if c < 1 || c >= 40 {
		t.Fatalf("LU calibrated count = %d, want in [1, 40)", c)
	}
	// Cached: a second call with the same scenario returns consistently.
	c2, err := h.CalibrateCount("LU", fault.AfterCompute, fault.VRand, 40)
	if err != nil || c2 != c {
		t.Fatalf("calibration not cached: %d vs %d (%v)", c, c2, err)
	}
	// Before-compute reuses the after-compute chain estimate.
	cb, err := h.CalibrateCount("LU", fault.BeforeCompute, fault.VRand, 40)
	if err != nil || cb != c {
		t.Fatalf("before-compute calibration = %d, want %d", cb, c)
	}
}

func TestRetentionSweep(t *testing.T) {
	h, buf := quickHarness(t)
	rows, err := h.Retention()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // LU: 4 K values, FW: 3
		t.Fatalf("Retention produced %d rows, want 7", len(rows))
	}
	byKey := map[string]RetentionRow{}
	for _, r := range rows {
		byKey[r.App+"/"+strconv.Itoa(r.Retention)] = r
		if r.CleanTime <= 0 || r.RetainedMB <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
	// Single assignment retains the most memory and never cascades more
	// than the reuse configurations.
	if byKey["LU/0"].RetainedMB <= byKey["LU/1"].RetainedMB {
		t.Fatalf("K=∞ retained %.2fMB <= K=1 %.2fMB",
			byKey["LU/0"].RetainedMB, byKey["LU/1"].RetainedMB)
	}
	if byKey["LU/0"].Reexec > byKey["LU/1"].Reexec {
		t.Fatalf("K=∞ re-executed more (%v) than K=1 (%v)",
			byKey["LU/0"].Reexec, byKey["LU/1"].Reexec)
	}
	if !strings.Contains(buf.String(), "Retention sweep") {
		t.Fatal("missing table header")
	}
}
