package service_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"ftdag/internal/apps"
	"ftdag/internal/fault"
	"ftdag/internal/harness"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
)

// taxSizes are the sizes of the service mix bench/'s service_durable
// workload submits: a job of ≈ 0.4–0.9 ms, the size the daemon serves.
var taxSizes = map[string]apps.Config{
	"LCS":      {N: 208, B: 16},
	"SW":       {N: 208, B: 16},
	"FW":       {N: 80, B: 16},
	"LU":       {N: 112, B: 16},
	"Cholesky": {N: 144, B: 16},
}

// BenchmarkRegistryTax prices the registry's instruments per job: b.N jobs
// of the service mix — the five apps round-robin, every fourth job under
// three after-compute faults — submitted one every 12.5 ms, the 80 jobs/s
// reference rate of service_durable, to a two-worker server without a
// registry and to one with, each job waited for before the next. It reports
// each side's exec_ms p50, the server's started-to-finished time, which is
// what a registry adds to (service.exec_ms_p50 in bench/'s service rows).
// The spacing leaves the pool's workers parked between jobs, as the daemon's
// are.
func BenchmarkRegistryTax(b *testing.B) {
	for _, side := range []struct {
		name string
		reg  func() *metrics.Registry
	}{
		{"registry=off", func() *metrics.Registry { return nil }},
		{"registry=on", metrics.NewRegistry},
	} {
		b.Run(side.name, func(b *testing.B) {
			s := service.New(service.Config{Workers: 2, MaxConcurrentJobs: 2, Registry: side.reg()})
			defer s.Close()
			exec := make([]float64, 0, b.N)
			tick := time.NewTicker(12500 * time.Microsecond)
			defer tick.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := harness.AppNames[i%len(harness.AppNames)]
				a, err := harness.MakeApp(name, taxSizes[name])
				if err != nil {
					b.Fatal(err)
				}
				spec := service.JobSpec{Name: name, Spec: a.Spec(), Retention: a.Retention()}
				if i%4 == 3 {
					spec.Plan = fault.PlanCount(a.Spec(), fault.AnyTask, fault.AfterCompute, 3, int64(i))
				}
				<-tick.C
				h, err := s.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Wait(); err != nil {
					b.Fatal(fmt.Errorf("%s: %w", name, err))
				}
				st := h.Status()
				exec = append(exec, float64(st.Finished.Sub(st.Started))/float64(time.Millisecond))
			}
			sort.Float64s(exec)
			b.ReportMetric(exec[len(exec)/2], "exec_ms_p50")
		})
	}
}
