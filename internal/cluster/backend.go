package cluster

import (
	"fmt"
	"log"
	"time"

	"ftdag/internal/journal"
	"ftdag/internal/metrics"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// BackendConfig is what a process brings to OpenBackend: its name, where
// it keeps state, how big it is, and its job vocabulary.
type BackendConfig struct {
	// Name labels the process in spans, the black box, healthz and logs.
	Name string
	// DataDir holds the journal and the black box; empty runs in memory
	// with no flight recorder.
	DataDir string
	// Service sizes the pool and the admission queue. OpenBackend fills in
	// Journal, Rebuild, Registry, Tracer and Flight.
	Service service.Config
	// Build is the vocabulary: submission body or journaled payload in,
	// JobSpec out: the service's Config.Rebuild, which its Node also builds
	// live submissions with.
	Build func(body []byte) (service.JobSpec, error)
	// Spans and Flight are the recorder ring capacities (< 1: off).
	Spans, Flight int
	// DrainGrace is POST /drain's default grace.
	DrainGrace time.Duration
}

// Backend is a booted jobs backend: the service, its flight recorder (nil
// without a data dir) and the Node that serves them.
type Backend struct {
	Node    *Node
	Service *service.Server
	Flight  *trace.Flight
}

// OpenBackend boots a backend in the order crash recovery needs: open the
// journal (truncating a torn tail) and count what the last incarnation left
// unfinished; start the recorders, so the replay itself is recorded; build
// the service, which restores finished jobs and re-runs the rest through
// Build; box the replay as crash evidence before new work dilutes the ring;
// and mount the Node. A panic on the way — a Build that cannot stomach a
// journaled payload — is boxed before it propagates.
func OpenBackend(cfg BackendConfig) (*Backend, error) {
	sc := cfg.Service
	sc.Rebuild = cfg.Build
	crashed := false
	if cfg.DataDir != "" {
		jr, err := journal.Open(journal.Options{Dir: cfg.DataDir})
		if err != nil {
			return nil, fmt.Errorf("opening journal in %s: %w", cfg.DataDir, err)
		}
		terminal, incomplete := 0, 0
		for _, js := range jr.State().Jobs {
			if js.Terminal() {
				terminal++
			} else {
				incomplete++
			}
		}
		n, torn := jr.Truncated()
		if torn {
			log.Printf("%s: recovered journal with a torn tail (%d bytes dropped)", cfg.Name, n)
		}
		log.Printf("%s: journal %s replayed: %d finished job(s) restored, %d incomplete job(s) to re-run",
			cfg.Name, cfg.DataDir, terminal, incomplete)
		crashed = torn || incomplete > 0
		sc.Journal = jr
	}
	tracer, flight, err := trace.NewRecorders(cfg.Name, cfg.Spans, cfg.Flight, cfg.DataDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			flight.Emit("panic", fmt.Sprint(r), -1, -1, 0, trace.SpanContext{})
			_, _ = flight.Snapshot("panic") // best effort: the panic is the error that matters
			panic(r)
		}
	}()
	sc.Registry, sc.Tracer, sc.Flight = metrics.NewRegistry(), tracer, flight
	srv := service.New(sc)
	if crashed {
		if p, err := flight.Snapshot("replay-after-crash"); err != nil {
			log.Printf("%s: boxing crash replay: %v", cfg.Name, err)
		} else if p != "" {
			log.Printf("%s: crash replay boxed at %s", cfg.Name, p)
		}
	}
	node := NewNode(NodeConfig{Name: cfg.Name, Service: srv, DrainGrace: cfg.DrainGrace})
	return &Backend{Node: node, Service: srv, Flight: flight}, nil
}
