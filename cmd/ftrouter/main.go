// Command ftrouter fronts a fleet of ftserve backends as one
// fault-tolerant service (internal/cluster): job keys are
// consistent-hashed across the fleet, the jobs API is proxied
// transparently, every backend's /healthz is polled, and a dead or
// drained backend's incomplete jobs are resubmitted to survivors from the
// router's copy of each request body — the bytes the backend journaled —
// while finished jobs keep serving their durable digests from the
// router's terminal cache.
//
//	ftrouter -addr :8090 -backends a=http://10.0.0.1:8080,b=http://10.0.0.2:8080
//
// Endpoints mirror ftserve's jobs vocabulary (POST /jobs, GET /jobs,
// GET /jobs/{id}, POST /jobs/{id}/cancel, GET /metrics; GET /healthz
// answers "ok" or "no-backends" with the live-backend and job counts)
// plus POST /drain/{name} to migrate a named backend's shard away for
// maintenance, GET /debug/backends (ring + health + per-backend
// placement), and GET /debug/cluster-trace/{id} — one merged
// Perfetto-compatible trace assembled from the router's spans plus every
// backend's /debug/spans. Submissions may pin their shard with an
// X-Shard-Key header; otherwise the request body is the key, so identical
// requests route identically from any router instance.
//
// With -debug-addr a second listener serves net/http/pprof (profiles,
// goroutine dumps) without exposing them on the public address — the same
// debug parity ftserve has.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (the -debug-addr listener)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ftdag/internal/cluster"
	"ftdag/internal/metrics"
	"ftdag/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "HTTP listen address")
		backends  = flag.String("backends", "", "comma-separated name=url backend list (e.g. a=http://h1:8080,b=http://h2:8080)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0: default)")
		interval  = flag.Duration("health-interval", time.Second, "backend health-check period")
		threshold = flag.Int("fail-threshold", 3, "consecutive health failures before failover")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request backend timeout")
		debugAddr = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty: disabled)")
		procName  = flag.String("proc-name", "", "process label for spans and the black box (empty: derived from -addr)")
		spansCap  = flag.Int("spans", 8192, "span ring capacity for cluster-wide tracing (0: tracing off)")
		flightCap = flag.Int("flight", 4096, "flight-recorder ring capacity; persisted under -data-dir/blackbox (0: off)")
		dataDir   = flag.String("data-dir", "", "directory for the router's black box (empty: recorder off)")
	)
	flag.Parse()

	proc := *procName
	if proc == "" {
		proc = "ftrouter-" + strings.Trim(strings.ReplaceAll(*addr, ":", "-"), "-")
	}
	tracer, flight, err := trace.NewRecorders(proc, *spansCap, *flightCap, *dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftrouter: %v\n", err)
		os.Exit(1)
	}

	reg := metrics.NewRegistry()
	rt := cluster.NewRouter(cluster.RouterConfig{
		Client:         &http.Client{Timeout: *timeout},
		Registry:       reg,
		Vnodes:         *vnodes,
		HealthInterval: *interval,
		FailThreshold:  *threshold,
		Tracer:         tracer,
		Flight:         flight,
	})
	reg.Uptime("Seconds since the router started.")

	n, err := addBackends(rt, *backends)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftrouter: %v\n", err)
		os.Exit(1)
	}
	if n == 0 {
		fmt.Fprintf(os.Stderr, "ftrouter: no backends (-backends name=url,...)\n")
		os.Exit(1)
	}
	rt.Start()
	if *debugAddr != "" {
		go func() {
			log.Printf("ftrouter: pprof debug server on %s", *debugAddr)
			// nil handler = DefaultServeMux, which net/http/pprof
			// populated at import.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("ftrouter: debug server: %v", err)
			}
		}()
	}
	log.Printf("ftrouter: routing across %d backend(s) on %s (health every %v, failover after %d misses)",
		n, *addr, *interval, *threshold)

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Mux()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("ftrouter: signal received; shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("ftrouter: http shutdown: %v", err)
	}
	cancel()
	rt.Stop()
	if err := flight.Close("sigterm"); err != nil {
		log.Printf("ftrouter: final black box: %v", err)
	}
}

// addBackends parses "name=url,name=url" and registers each entry.
func addBackends(rt *cluster.Router, list string) (int, error) {
	if strings.TrimSpace(list) == "" {
		return 0, nil
	}
	n := 0
	for _, ent := range strings.Split(list, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, url, ok := strings.Cut(ent, "=")
		if !ok || name == "" || url == "" {
			return n, fmt.Errorf("bad backend %q (want name=url)", ent)
		}
		if err := rt.AddBackend(name, url); err != nil {
			return n, fmt.Errorf("backend %s: %w", name, err)
		}
		n++
	}
	return n, nil
}
