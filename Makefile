# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet tclint lint test test-short test-race bench bench-compare bench-baseline bench-smoke bench-sweep bench-sweep-smoke fuzz-smoke experiments sweep-smoke server-smoke snapshot-smoke fleet-smoke examples clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (detrand, wallclock, maporder, errwrap,
# ctxplumb, nodeprecated, seedflow, snapfields; see DESIGN.md §6),
# driven through go vet's vettool protocol so results share vet's
# per-package build cache and the interprocedural analyzers' facts ride
# its vetx files. The cmd/ tree is allowlisted for wall-clock reads
# wholesale: operator-facing progress timing and the tcsimd system
# clock live there, never in internal/.
tclint:
	$(GO) build -o bin/tclint ./cmd/tclint
	$(GO) vet -vettool=$(CURDIR)/bin/tclint -wallclock.allow=threadcluster/cmd ./...

# Full local lint: standard vet, the project analyzers, and staticcheck
# when installed (CI always runs it; the local toolbox may not have it).
lint: vet tclint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (CI runs it — install with:" ; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2023.1.7)" ; \
	fi

test:
	$(GO) test ./...

# Short mode skips the multi-minute experiment-shape tests.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark regression guards: compare the broadcast-vs-directory
# coherence benchmarks against BENCH_coherence.json, the seq-vs-
# parallel engine benchmarks plus the SoA-vs-AoS cache hot-path pair
# against BENCH_sim.json, and the incremental clustering per-event
# benchmarks against BENCH_clustering.json, and the generator Next
# benchmarks against BENCH_workloads.json. Fails when a benchmark
# regresses past tolerance, a speedup pair drops below its required
# minimum, or a scaling pair exceeds its max_ratio ceiling (per-event
# cost at 100k threads must stay within 8x of 1k; a B-tree generator's
# Next within 2x of the synthetic scoreboard's); the parallel-engine
# speedup gate only applies on hosts with at least min_cores cores
# (benchcmp skips it below that). The BENCH_sim pipelines concatenate
# two `go test -bench` runs — the machine-level engine pair from
# ./internal/sim and the single-thread cache floor pair from
# ./internal/cache — into one benchcmp input.
bench-compare:
	$(GO) test -run '^$$' -bench BenchmarkCoherence -benchtime 1s ./internal/cache \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_coherence.json
	{ $(GO) test -run '^$$' -bench 'BenchmarkMachineRound32Way(Seq|Parallel)' -benchtime 2s ./internal/sim ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSetAssocHot(SoA|AoSRef)' -benchtime 1s ./internal/cache ; } \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_sim.json
	$(GO) test -run '^$$' -bench BenchmarkIncrementalEvent -benchtime 1s ./internal/clustering \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_clustering.json
	$(GO) test -run '^$$' -bench '(Synthetic|JBB|Rubis)GeneratorNext' -benchtime 1s ./internal/workloads \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_workloads.json

# Refresh the committed baselines from this machine.
bench-baseline:
	$(GO) test -run '^$$' -bench BenchmarkCoherence -benchtime 1s ./internal/cache \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_coherence.json -update
	{ $(GO) test -run '^$$' -bench 'BenchmarkMachineRound32Way(Seq|Parallel)' -benchtime 2s ./internal/sim ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSetAssocHot(SoA|AoSRef)' -benchtime 1s ./internal/cache ; } \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_sim.json -update
	$(GO) test -run '^$$' -bench BenchmarkIncrementalEvent -benchtime 1s ./internal/clustering \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_clustering.json -update
	$(GO) test -run '^$$' -bench '(Synthetic|JBB|Rubis)GeneratorNext' -benchtime 1s ./internal/workloads \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_workloads.json -update

# Report-only benchmark smoke: runs the guarded benchmarks through
# benchcmp -report, which prints every comparison against the committed
# baselines but never fails. Suitable for CI runners whose shared-tenancy
# timing noise makes the bench-compare gates unreliable.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkCoherence -benchtime 1s ./internal/cache \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_coherence.json -report
	{ $(GO) test -run '^$$' -bench 'BenchmarkMachineRound32Way(Seq|Parallel)' -benchtime 2s ./internal/sim ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSetAssocHot(SoA|AoSRef)' -benchtime 1s ./internal/cache ; } \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_sim.json -report
	$(GO) test -run '^$$' -bench BenchmarkIncrementalEvent -benchtime 1s ./internal/clustering \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_clustering.json -report
	$(GO) test -run '^$$' -bench '(Synthetic|JBB|Rubis)GeneratorNext' -benchtime 1s ./internal/workloads \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_workloads.json -report

# Saturation sweep (tcsim bench-sweep): time the scoreboard workload
# over a chips x cores-per-chip x intensity grid under both engines and
# record the knee analysis into BENCH_sim.json's "sweep" section.
bench-sweep:
	$(GO) run ./cmd/tcsim bench-sweep -record BENCH_sim.json

# Fast report-only sweep for CI: a small grid printed to the log, never
# written anywhere and never failing on timing.
bench-sweep-smoke:
	$(GO) run ./cmd/tcsim bench-sweep -chips 1,2,4 -cores 1 -intensity 0.2,0.6 -rounds 6 -warm 2

# Short fuzzing pass over the coherence differential target, the trace
# parser, the snapshot decoder and the sketch estimator's error-bound
# invariants (CI runs the same).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzHierarchyAccess -fuzztime 30s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 15s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSketchEstimate -fuzztime 15s ./internal/clustering

# Race-detector coverage for the concurrent packages, including the
# chip-parallel engine differential (seq vs parallel byte-identity under
# every GOMAXPROCS level), the golden-snapshot compatibility test, the
# snapshot N+M differential (including the sketch state provider), the
# batched-vs-serial slice-barrier drain and broadcast-vs-directory
# differentials at several GOMAXPROCS levels, the incremental-vs-batch
# clustering differential, and the job server + client under load.
test-race:
	$(GO) test -race ./internal/metrics ./internal/sweep
	$(GO) test -race -run 'TestEngine|TestRunSlice|TestSnapshot|TestGolden' ./internal/sim
	$(GO) test -race -short -run 'TestSliceBarrierBatchedVsSerial|TestBroadcastDirectoryEquivalence' -cpu 1,2,4 ./internal/cache
	$(GO) test -race -run 'TestIncremental|TestSketch' -cpu 1,2,4 ./internal/clustering
	$(GO) test -race ./internal/server ./internal/client ./internal/fleet

# End-to-end smoke of the tcsimd job service: boot the daemon, submit a
# grid, require the job digest to equal the offline sweep digest, and
# scrape /metrics.
server-smoke:
	sh ./scripts/server_smoke.sh

# End-to-end smoke of snapshot/restore and checkpoint/resume: a split
# `tcsim snapshot` run must be byte-identical to an unbroken one, and a
# tcsimd job cut down mid-run must resume from its checkpoint to the
# offline sweep digest.
snapshot-smoke:
	sh ./scripts/snapshot_smoke.sh

# End-to-end smoke of the tcfleet coordinator: start two tcsimd
# workers, SIGKILL one mid-sweep, and require the fleet-merged digest
# to equal the offline sweep digest.
fleet-smoke:
	sh ./scripts/fleet_smoke.sh

# Regenerate every table/figure/study of the paper.
experiments:
	$(GO) run ./cmd/tcsim -exp all

# Tiny 2x2 sweep grid as a smoke test of the concurrent runner.
sweep-smoke:
	$(GO) run ./cmd/tcsim sweep \
		-workloads microbenchmark,volano -policies default,clustered \
		-warm 30 -engine 50 -measure 30

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/chatserver
	$(GO) run ./examples/warehouse
	$(GO) run ./examples/auctiondb
	$(GO) run ./examples/numanode

clean:
	$(GO) clean ./...
	rm -rf bin
