# CI gate for the FT-NABBIT reproduction.
#
#   make ci      — everything a PR must pass: tier-1 gate, vet, lint, race tests, 386 smoke
#   make lint    — run the ftlint static-analysis suite (internal/lint)
#   make race    — race-check the concurrency-critical packages, then sweep the data path at GOMAXPROCS 1, 2, 4, 8
#   make benchbuild — build and vet the nested bench/ module (root `go build ./...` does not see it)
#   make crashsoak — kill-and-restart soak of the durable journaled service
#   make clustersoak — node-kill soak of the shard router + standby failover
#   make blackbox — clustersoak + black-box/merged-trace assertions
#   make sdcsoak — silent-data-corruption storm against selective replication
#   make bench-service — record the service throughput baseline
#   make bench-replica — record the replication overhead-vs-coverage baseline
#   make benchobs — gate: disabled instrumentation must cost <= 2 ns/op
#   make benchsched — gate: allocation-free spawn cycle + throughput floor

GO ?= go

.PHONY: ci build benchbuild test vet lint lint-json race build386 soak crashsoak clustersoak blackbox sdcsoak fuzz bench-service bench-replica benchobs benchsched

ci: build benchbuild test vet lint lint-json race build386 sdcsoak clustersoak blackbox benchsched

# Tier-1 gate (ROADMAP.md): must stay green on every PR.
build:
	$(GO) build ./...

# bench/ is a module of its own that imports internal/... packages: an API
# change there breaks the benchmark without breaking `go build ./...`.
benchbuild:
	cd bench && $(GO) build ./... && $(GO) vet ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repository's own analyzer suite, all eight analyzers: mixed
# atomic/plain field access, blocking ops under a mutex,
# determinism-manifest violations, discarded durability-path errors, 32-bit
# atomic alignment, plus the interprocedural trio — lock-order cycles,
# goroutine leaks, and the fsync-before-ack proof. Suppressions are
# //lint:ignore <analyzer> <reason>; see README "Static analysis".
lint:
	$(GO) run ./cmd/ftlint ./...

# JSON-output smoke: the structured report the scenario-matrix triage
# consumes must parse and schema-validate against live ftlint output —
# -json output is piped straight back into ftlint's own reader.
lint-json:
	$(GO) run ./cmd/ftlint -json ./... | $(GO) run ./cmd/ftlint -validate

# The concurrency-critical packages run under the race detector on every PR:
# the work-stealing runtime, the sharded map backing the task/recovery
# tables, the multi-job service that multiplexes jobs onto one pool, the
# group-commit write-ahead log under it, the shared-mutation observability
# primitives (metrics registry, trace ring), the cluster router/standby
# follower, the continuation-passing executor core, and the fault injector.
# The block data path — store, executors, replica join, the kernels and the
# harness that drives them — and the structures the task descriptor is built
# from (key table, bit vector, graph) are then swept at one, two, four and
# eight Ps, five runs each: the interleavings (steal between notify and
# inject, a shadow racing an evicting writer, a reader of the key table beside
# a page install) differ with the core count, and every PR before 12 was
# developed on one core. Eight Ps on a two-core host is oversubscription: a
# goroutine is preempted inside critical sections that a matched count runs
# straight through. The durable service rides the same sweep — service,
# journal, trace: whether the runner finishes a job before its Submit's fsync
# returns, who shares whose group commit, and a snapshot racing emitters are
# orderings the core count decides — and so do the pool and its deque, whose
# workers' IDs index the executors' counter blocks.
RACE_SWEEP = ./internal/block/... ./internal/core/... ./internal/replica/... ./internal/apps/... ./internal/harness/... ./internal/cmap/... ./internal/bitvec/... ./internal/graph/... ./internal/service/... ./internal/journal/... ./internal/trace/... ./internal/sched/... ./internal/deque/...

race:
	$(GO) test -race ./internal/sched/... ./internal/cmap/... ./internal/service/... ./internal/journal/... ./internal/deque/... ./internal/block/... ./internal/bitvec/... ./internal/metrics/... ./internal/trace/... ./internal/replica/... ./internal/cluster/... ./internal/core/... ./internal/fault/...
	for p in 1 2 4 8; do GOMAXPROCS=$$p $(GO) test -race -count=5 $(RACE_SWEEP) || exit 1; done

# Cross-compile smoke for 32-bit: pairs with the atomicalign analyzer —
# the build proves the tree compiles where 64-bit atomics need 8-byte
# alignment, the analyzer proves the alignment.
build386:
	GOOS=linux GOARCH=386 $(GO) build ./...

# Randomized end-to-end soak (not part of ci; run before releases).
soak:
	$(GO) run ./cmd/ftsoak -duration 30s
	$(GO) run ./cmd/ftsoak -duration 30s -service -jobs 4

# Crash-recovery soak: SIGKILL a child server at random points (-cycles
# kills, or until a run finishes early), restart it from the same journal
# (corrupting the tail once along the way), verify every job across
# restarts against its sequential reference digest.
crashsoak:
	$(GO) run ./cmd/ftsoak -crash -cycles 8 -crashjobs 12 -v

# Cluster failover gate (part of ci): three child backends behind the shard
# router, a standby mirroring the busiest backend's WAL over
# /journal/stream, one SIGKILL mid-storm. Passes only if every routed job
# reaches its sequential reference digest, the promoted standby journal
# holds every submission the victim acknowledged, and the router's
# failover/reroute counters reconcile with the single injected kill.
clustersoak:
	$(GO) run ./cmd/ftsoak -cluster -crashjobs 12 -seed 1
	$(GO) run ./cmd/ftsoak -cluster -crashjobs 12 -seed 2

# Black-box gate (part of ci): the cluster soak with the observability
# layer held to the same standard as the digests — every SIGKILLed child
# must leave a parseable flight-recorder box whose job-submit events
# reconcile with the router's placements and failover metrics, and one
# kill-to-reroute job's merged cluster trace (/debug/cluster-trace/{id})
# must span the router plus >= 2 backend processes under one trace ID with
# the failover-resubmit span parented to the original submit span.
blackbox:
	$(GO) run ./cmd/ftsoak -cluster -blackbox -crashjobs 12 -seed 3

# SDC detection gate (part of ci): storm selective-replication jobs with
# silent corruptions planted on covered tasks (bounded seeds so the run is
# reproducible) and fail unless every injection is detected by its replica
# pair and the per-job counts reconcile with the metrics registry.
sdcsoak:
	$(GO) run ./cmd/ftsoak -sdc -sdciters 24 -seed 1
	$(GO) run ./cmd/ftsoak -sdc -sdciters 24 -seed 2

# Short fuzz passes over the journal's record/segment decoders (seed corpus
# in internal/journal/fuzz_test.go).
fuzz:
	$(GO) test ./internal/journal/ -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/journal/ -fuzz FuzzDecodeRecord -fuzztime 10s
	$(GO) test ./internal/journal/ -fuzz FuzzReplaySegment -fuzztime 10s
	$(GO) test ./internal/journal/ -fuzz FuzzDecodeStreamFrame -fuzztime 10s

# Service throughput baseline (BENCH_service.json).
bench-service:
	$(GO) run ./cmd/ftserve -load 40 -workers 4 -maxjobs 4 -benchout BENCH_service.json

# Replication baseline (BENCH_replica.json + results_csv/replication.csv):
# the selective-vs-full overhead and the budget sweep's detection-rate curve.
bench-replica:
	$(GO) run ./cmd/ftbench -sizes bench -runs 5 -workers 4 -csv results_csv -replicaout BENCH_replica.json

# Observability-overhead gate (BENCH_metrics.json): the disabled
# instrumentation hot path — one nil check per site — must stay under
# 2 ns/op and allocation-free, or the target fails. The same gate covers
# disabled tracing: a nil job-event log (trace_capacity: 0), nil span
# recorder, and nil flight recorder together must clear the same budget.
# Timing-based, so it is not part of `ci`; run it when touching
# internal/metrics, internal/trace, or call sites.
benchobs:
	$(GO) run ./cmd/ftmetrics -max-disabled-ns 2.0 -out BENCH_metrics.json

# Scheduler fast-path gate (BENCH_sched.json), part of `ci`. Two checks:
# the steady-state spawn→execute cycle must stay allocation-free (exact —
# one alloc/op here multiplies across every task-graph edge), and the
# 40-job quick service load must clear a throughput floor. The floor is a
# deliberate tripwire well below steady state (~250 jobs/s on an otherwise
# idle single-core box) because wall-clock throughput on shared hardware
# swings ±30%; it catches serialization bugs (lost wakeups, deadlocked
# shards), not percent-level drift — the alloc gate and the recorded
# latency quantiles are the precise regression signals.
benchsched:
	$(GO) run ./cmd/ftsched -jobs 40 -workers 4 -min-jobs-per-sec 100 -max-spawn-allocs 0 -out BENCH_sched.json
