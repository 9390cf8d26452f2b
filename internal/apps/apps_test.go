package apps_test

import (
	"fmt"
	"testing"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/apps/chol"
	"ftdag/internal/apps/fw"
	"ftdag/internal/apps/lcs"
	"ftdag/internal/apps/lu"
	"ftdag/internal/apps/sw"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/journal"
)

const testTimeout = 60 * time.Second

var makers = map[string]apps.Maker{
	"LCS":      lcs.New,
	"SW":       sw.New,
	"FW":       fw.New,
	"LU":       lu.New,
	"Cholesky": chol.New,
}

func mustApp(t *testing.T, name string, cfg apps.Config) apps.App {
	t.Helper()
	a, err := makers[name](cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return a
}

// TestSpecsValidate structurally checks every app's predecessor/successor
// symmetry, acyclicity, and output uniqueness at several sizes. This is the
// test that guards FW's anti-dependence edge bookkeeping.
func TestSpecsValidate(t *testing.T) {
	for name := range makers {
		for _, cfg := range []apps.Config{
			{N: 8, B: 4, Seed: 1},
			{N: 16, B: 4, Seed: 2},
			{N: 20, B: 4, Seed: 3},
			{N: 24, B: 8, Seed: 4},
			{N: 24, B: 4, Seed: 5},
			{N: 32, B: 4, Seed: 6},
		} {
			t.Run(fmt.Sprintf("%s/N%dB%d", name, cfg.N, cfg.B), func(t *testing.T) {
				a := mustApp(t, name, cfg)
				if err := graph.Validate(a.Spec()); err != nil {
					t.Fatalf("Validate: %v", err)
				}
			})
		}
	}
}

// TestSequentialMatchesReference runs each app sequentially (with its
// recommended retention) and verifies the sink against the app's unblocked
// reference implementation.
func TestSequentialMatchesReference(t *testing.T) {
	for name := range makers {
		for _, cfg := range []apps.Config{
			{N: 12, B: 4, Seed: 5},
			{N: 24, B: 8, Seed: 6},
			{N: 32, B: 8, Seed: 7},
		} {
			t.Run(fmt.Sprintf("%s/N%dB%d", name, cfg.N, cfg.B), func(t *testing.T) {
				a := mustApp(t, name, cfg)
				seq := core.NewSequential(a.Spec(), a.Retention())
				res, err := seq.Run()
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				if err := a.VerifySink(res.Sink); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// sequentialDigest is the journal.Digest of a's sink computed by the
// sequential executor: a parallel run must reproduce it bit for bit, not
// merely within VerifySink's tolerance.
func sequentialDigest(t *testing.T, a apps.App) string {
	t.Helper()
	res, err := core.NewSequential(a.Spec(), a.Retention()).Run()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	return journal.Digest(res.Sink)
}

// TestFTFaultFreeMatchesReference runs each app under the FT executor with
// several worker counts.
func TestFTFaultFreeMatchesReference(t *testing.T) {
	for name := range makers {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P%d", name, p), func(t *testing.T) {
				a := mustApp(t, name, apps.Config{N: 24, B: 4, Seed: 8})
				res, err := core.NewFT(a.Spec(), core.Config{
					Workers:   p,
					Retention: a.Retention(),
					Timeout:   testTimeout,
				}).Run()
				if err != nil {
					t.Fatalf("FT: %v", err)
				}
				if err := a.VerifySink(res.Sink); err != nil {
					t.Fatal(err)
				}
				if got, want := journal.Digest(res.Sink), sequentialDigest(t, a); got != want {
					t.Fatalf("FT sink digest = %s, sequential %s", got, want)
				}
				if res.Metrics.Recoveries != 0 {
					t.Fatalf("fault-free run performed %d recoveries", res.Metrics.Recoveries)
				}
			})
		}
	}
}

// TestBaselineMatchesReference runs the non-FT NABBIT baseline on each app.
func TestBaselineMatchesReference(t *testing.T) {
	for name := range makers {
		t.Run(name, func(t *testing.T) {
			a := mustApp(t, name, apps.Config{N: 24, B: 4, Seed: 9})
			res, err := core.NewBaseline(a.Spec(), core.Config{
				Workers:   2,
				Retention: a.Retention(),
				Timeout:   testTimeout,
			}).Run()
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if err := a.VerifySink(res.Sink); err != nil {
				t.Fatal(err)
			}
			if got, want := journal.Digest(res.Sink), sequentialDigest(t, a); got != want {
				t.Fatalf("baseline sink digest = %s, sequential %s", got, want)
			}
		})
	}
}

// TestFTWithFaultsMatchesReference injects faults of every kind and type
// into every app and verifies the final result (Theorem 1 end-to-end).
func TestFTWithFaultsMatchesReference(t *testing.T) {
	points := []fault.Point{fault.BeforeCompute, fault.AfterCompute, fault.AfterNotify}
	types := []fault.TaskType{fault.V0, fault.VLast, fault.VRand}
	for name := range makers {
		a := mustApp(t, name, apps.Config{N: 24, B: 4, Seed: 10})
		for _, pt := range points {
			for _, ty := range types {
				t.Run(fmt.Sprintf("%s/%v/%v", name, pt, ty), func(t *testing.T) {
					plan := fault.PlanCount(a.Spec(), ty, pt, 8, 123)
					res, err := core.NewFT(a.Spec(), core.Config{
						Workers:   3,
						Retention: a.Retention(),
						Plan:      plan,
						Timeout:   testTimeout,
					}).Run()
					if err != nil {
						t.Fatalf("FT: %v", err)
					}
					if err := a.VerifySink(res.Sink); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestFTManyFaults loses a large fraction of each app's work.
func TestFTManyFaults(t *testing.T) {
	for name := range makers {
		t.Run(name, func(t *testing.T) {
			a := mustApp(t, name, apps.Config{N: 24, B: 4, Seed: 11})
			plan := fault.PlanFraction(a.Spec(), fault.VRand, fault.AfterCompute, 0.25, 7)
			res, err := core.NewFT(a.Spec(), core.Config{
				Workers:   4,
				Retention: a.Retention(),
				Plan:      plan,
				Timeout:   testTimeout,
			}).Run()
			if err != nil {
				t.Fatalf("FT: %v", err)
			}
			if err := a.VerifySink(res.Sink); err != nil {
				t.Fatal(err)
			}
			if res.Metrics.InjectionsFired == 0 {
				t.Fatal("no injections fired")
			}
		})
	}
}

// TestTableITaskCounts checks the analytic task/edge structure against the
// paper's Table I formulas (scaled): LCS T = nb², FW T = nb³ + nb + 1
// (reductions + sink), LU T = nb(nb+1)(2nb+1)/6.
func TestTableITaskCounts(t *testing.T) {
	const n, b = 24, 4
	nb := n / b

	aLCS := mustApp(t, "LCS", apps.Config{N: n, B: b, Seed: 1})
	p := graph.Analyze(aLCS.Spec())
	if want := nb * nb; p.Tasks != want {
		t.Errorf("LCS T = %d, want %d", p.Tasks, want)
	}
	if want := 3*(nb-1)*(nb-1) + 2*(nb-1); p.Edges != want {
		t.Errorf("LCS E = %d, want %d (paper Table I formula)", p.Edges, want)
	}
	if want := 2*nb - 1; p.CriticalPath != want {
		t.Errorf("LCS S = %d, want %d", p.CriticalPath, want)
	}

	aFW := mustApp(t, "FW", apps.Config{N: n, B: b, Seed: 1})
	p = graph.Analyze(aFW.Spec())
	if want := nb*nb*nb + nb + 1; p.Tasks != want {
		t.Errorf("FW T = %d, want %d", p.Tasks, want)
	}

	aLU := mustApp(t, "LU", apps.Config{N: n, B: b, Seed: 1})
	p = graph.Analyze(aLU.Spec())
	if want := nb * (nb + 1) * (2*nb + 1) / 6; p.Tasks != want {
		t.Errorf("LU T = %d, want %d (paper: 173880 at nb=80)", p.Tasks, want)
	}

	aCh := mustApp(t, "Cholesky", apps.Config{N: n, B: b, Seed: 1})
	p = graph.Analyze(aCh.Spec())
	want := 0
	for k := 0; k < nb; k++ {
		m := nb - 1 - k
		want += 1 + m + m*(m+1)/2
	}
	if p.Tasks != want {
		t.Errorf("Cholesky T = %d, want %d", p.Tasks, want)
	}

	aSW := mustApp(t, "SW", apps.Config{N: n, B: b, Seed: 1})
	p = graph.Analyze(aSW.Spec())
	if want := nb * nb; p.Tasks != want {
		t.Errorf("SW T = %d, want %d", p.Tasks, want)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := lcs.New(apps.Config{N: 10, B: 3}); err == nil {
		t.Fatal("accepted B not dividing N")
	}
	if _, err := lu.New(apps.Config{N: 0, B: 4}); err == nil {
		t.Fatal("accepted N=0")
	}
}

func TestAppNamesAndRetention(t *testing.T) {
	wantRet := map[string]int{"LCS": 0, "SW": 1, "FW": 2, "LU": 1, "Cholesky": 1}
	for name, mk := range makers {
		a, err := mk(apps.Config{N: 8, B: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Errorf("Name() = %q, want %q", a.Name(), name)
		}
		if a.Retention() != wantRet[name] {
			t.Errorf("%s Retention = %d, want %d", name, a.Retention(), wantRet[name])
		}
	}
}

// TestSingleTileInstances: N == B degenerates every benchmark to one or a
// few tasks; the schedulers and verifiers must still work.
func TestSingleTileInstances(t *testing.T) {
	for name := range makers {
		t.Run(name, func(t *testing.T) {
			a := mustApp(t, name, apps.Config{N: 8, B: 8, Seed: 3})
			if err := graph.Validate(a.Spec()); err != nil {
				t.Fatal(err)
			}
			res, err := core.NewFT(a.Spec(), core.Config{
				Workers: 2, Retention: a.Retention(), Timeout: testTimeout,
			}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.VerifySink(res.Sink); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecursiveRecoveryOnApps exercises Guarantee 6 (faults during
// recovery) on the real kernels.
func TestRecursiveRecoveryOnApps(t *testing.T) {
	for name := range makers {
		t.Run(name, func(t *testing.T) {
			a := mustApp(t, name, apps.Config{N: 24, B: 4, Seed: 12})
			plan := fault.NewPlan()
			for _, k := range fault.SelectTasks(a.Spec(), fault.VRand, 4, 77) {
				plan.Add(k, fault.AfterCompute, 3)
			}
			res, err := core.NewFT(a.Spec(), core.Config{
				Workers: 3, Retention: a.Retention(), Plan: plan, Timeout: testTimeout,
			}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.VerifySink(res.Sink); err != nil {
				t.Fatal(err)
			}
			if res.Metrics.InjectionsFired != 12 {
				t.Fatalf("fired %d, want 12", res.Metrics.InjectionsFired)
			}
		})
	}
}
