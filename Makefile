# CI gate for the FT-NABBIT reproduction.
#
#   make ci      — everything a PR must pass: tier-1 gate, vet, lint, race tests, soaks
#   make lint    — run ftlint's one analyzer, errsink (internal/lint), over the root and bench/ modules
#   make race    — race-check the concurrency-critical packages, then sweep the data path at GOMAXPROCS 1, 2, 4, 8
#   make benchbuild — build and vet the nested bench/ module (root `go build ./...` does not see it)
#   make graphsmoke — one faulty ftgraph run that verifies its sink and prints its spans (the tool has no test of its own)
#   make benchsmoke — one run of the fine-grain benchmark at one and two Ps (prints cpu-ns/task), the apps' kernels (ns/tile), the block read path (ns/KiB, whole tiles and boundary reads), the free list at one and two Ps, a warm LCS rerun (B/op, allocs/op), the black box's flush and a span's emit, the registry's cost per service job, then the pool's submit (BenchmarkSubmitThroughput) and spawn→execute (BenchmarkSpawnExecute) cycles; no threshold
#   make crashsoak — kill-and-restart soak of the durable journaled service (part of ci: a smoke test of the crash-point enumeration)
#   make clustersoak — node-kill soak of the shard router + standby failover
#   make blackbox — clustersoak + black-box/merged-trace assertions
#   make sdcsoak — silent-data-corruption storm against selective replication
#   make loc     — non-test Go lines per package and in total, the five largest non-test Go files, then assembly lines per directory and in total (bench/ and testdata/ excluded), then the bytes of README.md, DESIGN.md and EXPERIMENTS.md, each held to ≤ 25 KB by ROADMAP item 2's Cut F

GO ?= go

.PHONY: ci build benchbuild graphsmoke benchsmoke test vet lint race soak crashsoak clustersoak blackbox sdcsoak fuzz loc

ci: build benchbuild test vet lint race graphsmoke benchsmoke sdcsoak crashsoak clustersoak blackbox

# Tier-1 gate (ROADMAP.md): must stay green on every PR.
build:
	$(GO) build ./...

# bench/ is a module of its own that imports internal/... packages: an API
# change there breaks the benchmark without breaking `go build ./...`.
benchbuild:
	cd bench && $(GO) build ./... && $(GO) vet ./...

# The work-inflation row of EXPERIMENTS.md "The second worker" — cpu-ns/task
# at two Ps over one P, FT and baseline — must keep printing, and so must
# what bounds the apps: ns/tile of each kernel beside the textbook loop it
# replaced, over 16 rotating inputs at the BenchSizes tile and at n = 16
# (internal/apps/tile's MulSub, MinPlus, SolveLower, Transpose and SW's fill
# through the AVX2 body and the Go body, and MulSub and MinPlus also through
# the AVX-512 one, rows MulSub/avx512 and MinPlus/avx512 at n = 16 and 32,
# skipped where the CPU has no AVX-512; LU's trsmRight and trsmLeft and Cholesky's
# trsmRightT, transposes included, and getrf and potrf, which are still the
# textbook loops; LCS's bit-parallel and scalar fills), the checksum's
# throughput on each body the CPU has (Go, AVX2, AVX-512), and ns/KiB of a
# verified and a plain Slot.Read, whose one pass
# over the payload is the FT − NABBIT gap on the apps, beside Slot.ReadAt's
# boundary reads of the same 32 KiB: a tile's row, corner, and last column
# both in place (b words b apart: every segment re-hashed) and exported as LCS
# and SW store it (a copy after the cells: one segment). Then a tile's take
# and give-back through the shared free list and through a worker's cache, at
# one P and at two, where the shared list's one lock is contended and the
# caches are not. Then
# the B/op of a warm rerun of the quick LCS: a finished run hands its tiles to
# the free list and the next run takes them, so it stays below the 512 KiB
# table (≈ 210 KB); a change that stops the recycling shows here as the table
# added back. And what the durable daemon's black box costs: a flush's time
# and the bytes it writes (an append of the new events, or now and then a
# rewrite of the box), and a span's emit with the recorders wired beside the
# emit into a bare ring — a span is written to its ring only, so the two rows
# should read the same. Then the enabled cost of the registry: exec_ms p50
# of the service mix at the daemon's 80 jobs/s, without a registry and with
# one. Last, the pool's two paths a job enters by, ns/op and allocs/op: an
# external Submit onto the placement list and a worker's take of it
# (SubmitThroughput), and a spawn onto the worker's own deque and its
# execution (SpawnExecute, 0 allocs/op). No threshold: timing gates do not
# survive this host.
benchsmoke:
	$(GO) test -run '^$$' -bench Layered -benchtime 1x -cpu 1,2 .
	$(GO) test -run '^$$' -bench Kernels -benchtime 200x ./internal/apps/...
	$(GO) test -run '^$$' -bench 'Checksum|SlotRead' -benchtime 20000x ./internal/block
	$(GO) test -run '^$$' -bench AllocFree -benchtime 1000000x -cpu 1,2 ./internal/block
	$(GO) test -run '^$$' -bench RerunLCS -benchtime 20x ./internal/core
	$(GO) test -run '^$$' -bench 'FlightSnapshot|SpanEmit' -benchtime 200x ./internal/trace
	$(GO) test -run '^$$' -bench RegistryTax -benchtime 40x ./internal/service
	$(GO) test -run '^$$' -bench 'SubmitThroughput|SpawnExecute' ./internal/sched

graphsmoke:
	$(GO) run ./cmd/ftgraph -app LU -n 64 -b 16 -p 2 -faults 2 -trace 64 > /dev/null

test:
	$(GO) test ./...

# Again for arm64: internal/apps/tile, internal/block and internal/cpuid have
# amd64 assembly (checked against its Go declarations by asmdecl above) and
# Go-only files for every other architecture, which only a second GOARCH
# compiles.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# errsink, the analyzer left: discarded durability-path errors. Run over the
# root module, then over the nested bench/ module, which imports the journal
# too. The fsync-before-ack order is checked at run time instead, by the
# crash-point enumeration in `go test ./internal/service`.
lint:
	$(GO) run ./cmd/ftlint ./...
	cd bench && $(GO) run ftdag/cmd/ftlint ./...

# The concurrency-critical packages run under the race detector on every PR:
# the work-stealing runtime, the sharded map backing the task/recovery
# tables, the multi-job service that multiplexes jobs onto one pool, the
# group-commit write-ahead log under it, the shared-mutation observability
# primitives (metrics registry, trace ring), the cluster router/standby
# follower, the continuation-passing executor core, the fault injector, and
# the two commands with tests of their own — ftserve's run a real
# service.Server behind the mux it serves, ftsoak's a child supervisor.
# The block data path — store, executors, replica join, the kernels and the
# harness that drives them; the tile kernels and the checksum take their Go
# bodies under -race, which does not see assembly — and the structures the task descriptor is built
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
# workers' IDs index the executors' counter blocks, the cluster router and
# standby (health probes racing submissions and a drain), the metrics
# registry scraped beside its writers, the fault plan fired from every
# worker, and the checkpoint comparator's wave barrier.
RACE_SWEEP = ./internal/block/... ./internal/core/... ./internal/replica/... ./internal/apps/... ./internal/harness/... ./internal/cmap/... ./internal/bitvec/... ./internal/graph/... ./internal/service/... ./internal/journal/... ./internal/trace/... ./internal/sched/... ./internal/deque/... ./internal/cluster/... ./internal/metrics/... ./internal/fault/... ./internal/comparators/...

race:
	$(GO) test -race ./internal/sched/... ./internal/cmap/... ./internal/service/... ./internal/journal/... ./internal/deque/... ./internal/block/... ./internal/bitvec/... ./internal/metrics/... ./internal/trace/... ./internal/replica/... ./internal/cluster/... ./internal/core/... ./internal/fault/... ./cmd/ftserve/... ./cmd/ftsoak/...
	for p in 1 2 4 8; do GOMAXPROCS=$$p $(GO) test -race -count=5 $(RACE_SWEEP) || exit 1; done

# Randomized end-to-end soak (not part of ci; run before releases).
soak:
	$(GO) run ./cmd/ftsoak -duration 30s
	$(GO) run ./cmd/ftsoak -duration 30s -service -jobs 4

# Crash-recovery soak (part of ci, ≈ 2 s once built): SIGKILL a child
# server at random points (-cycles kills, or until a run finishes early),
# restart it from the same journal (corrupting the tail once along the
# way), verify every job across restarts against its sequential reference
# digest. The gate over crash points is TestCrashPoints in
# internal/service, which replays every prefix of a scripted workload's file
# operations; this soak is its smoke test on real processes and files.
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
# in internal/journal/fuzz_test.go) and a standby's apply step over them
# (internal/journal/tail_test.go), the block store's verified boundary
# read (internal/block/readat_test.go) and the checksum's bodies against its
# textbook definition (internal/block/checksum_test.go).
fuzz:
	$(GO) test ./internal/journal/ -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/journal/ -fuzz FuzzDecodeRecord -fuzztime 10s
	$(GO) test ./internal/journal/ -fuzz FuzzReplaySegment -fuzztime 10s
	$(GO) test ./internal/journal/ -fuzz FuzzApplyReply -fuzztime 10s
	$(GO) test ./internal/block/ -run '^$$' -fuzz FuzzSlotReadAt -fuzztime 10s
	$(GO) test ./internal/block/ -run '^$$' -fuzz FuzzChecksumBodies -fuzztime 10s

# Non-test Go lines per package directory and in total, the five largest
# non-test Go files (a cut that names its targets by file reports them), then
# assembly lines per directory and in total: the sizes that ROADMAP item 2 asks
# every cut to report before and after. Last, the bytes of the three large
# docs, Cut F's budget.
LOC = awk -v what="$(1)" '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } END { for (d in n) printf "%6d %s%s\n", n[d], d, what; printf "%6d total%s\n", t, what }' | sort -k2

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -exec wc -l {} + | $(call LOC,)
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -exec wc -l {} + | awk '$$2 != "total" { printf "%6d %s (file)\n", $$1, $$2 }' | sort -rn | head -5
	@find . -name '*.s' ! -path './bench/*' ! -path '*/testdata/*' -exec wc -l {} + | $(call LOC, assembly)
	@wc -c README.md DESIGN.md EXPERIMENTS.md | awk '{ printf "%6d %s (bytes)\n", $$1, $$2 }'
