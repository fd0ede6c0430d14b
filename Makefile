# Tier-1 verification, the CI gate and the performance run.

.PHONY: all build test check bench

all: build test

build:
	go build ./...

test:
	go test ./...

# check is the CI gate (run on every push/PR by
# .github/workflows/ci.yml): formatting (the whole module must be
# gofmt-clean, including the protocol registry package), static
# analysis, the full test suite under the race detector (the campaign
# runner and the sharded engine are the concurrency hot spots), the
# registry-driven protocol conformance suite, and short end-to-end
# campaign runs through the sweep CLI — the smoke spec, the spec that
# names every registered sweepable protocol, the dynamic-network
# recovery sweep, and the unreliable-channel robustness sweep (trials
# cut down for speed; every trial's output is still validated against
# its final graph, with Byzantine nodes excluded). The lossy spec
# carries the engine axis, so the gate exercises the sync engine, the
# α synchronizer and the loss-tolerant αβ hybrid on every channel; the
# hostile spec drives the same protocols through the voted αβv tier
# against corruption and Byzantine silence, where the αβ hybrid fails.
# The engine test line runs the allocation guards (TestAllocs*) and the
# ladder-queue unit tests outside the race detector, the bit-plane
# memory guard (TestPackedFootprint: packed run state stays under its
# bytes-per-node budget), the async memory guard (TestAsyncFootprint:
# the asynchronous working state, parking's per-node hop log included,
# stays under its bytes-per-node budget) and the dynamic-memo guard
# (TestDynMemoFootprint: the per-state record table stays under its
# bytes-per-state budget); the synchro line runs the compiled-machine
# guard (TestCompiledFootprint: the heap a synchronizer compilation
# retains per interned state stays under its budget, measured outside
# the race detector like the others); the streamed million-node run is
# stonebench's sync-large workload, which `make bench` runs. The benchmark line runs each of the
# root package's microbenchmarks once, so a broken one fails the gate
# instead of rotting; it measures nothing. The fuzz lines are time-boxed
# runs of the two differential walls on fuzz-decoded machines, graphs,
# scenarios and channels: the one synchronous round loop (every backend,
# the flat kernel's settled-node skip, every scenario and channel hook)
# against the synchronous reference engine,
# then the one asynchronous event loop (parking across scenario batches
# and in channel and voted runs, the synchronizer tiers) against the
# asynchronous reference engine.
# stonebench/ is a module of its own, so `go vet ./...` and
# `go test ./...` never reach it; it is vetted and its self-test runs
# here so an engine API change cannot break the benchmark unnoticed.
# The final block is the distributed-sweep gate, on one stonesim build:
# the smoke spec sharded over 3 worker processes (a fresh work
# directory, real re-exec'd `stonesim work` workers) must emit JSON and
# CSV byte-identical to the single-process run once -stripwall removes
# the machine-dependent wall-clock stats; then two hand-started
# `stonesim work` processes share a second fresh work directory with no
# parent process, and the sweep that merges their spills must emit the
# same bytes again.
check: build
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	go vet ./...
	go test -race ./...
	go test ./internal/protocol -run TestConformance -count=1
	go test ./internal/engine -run 'TestAllocs|TestLadder|TestPackedFootprint|TestAsyncFootprint|TestDynMemoFootprint' -count=1
	go test ./internal/synchro -run TestCompiledFootprint -count=1
	go test -run '^$$' -bench . -benchtime 1x .
	go test ./internal/engine -run '^$$' -fuzz FuzzDifferentialSync -fuzztime 15s
	go test ./internal/engine -run '^$$' -fuzz FuzzDifferentialAsync -fuzztime 15s
	go -C stonebench vet .
	go -C stonebench test .
	go run ./cmd/stonesim sweep -spec examples/specs/smoke.json -q -json /tmp/stonesim-smoke.json
	go run ./cmd/stonesim sweep -spec examples/specs/all-protocols.json -q
	go run ./cmd/stonesim sweep -spec examples/specs/churn-mis.json -q -trials 4
	go run ./cmd/stonesim sweep -spec examples/specs/lossy-mis.json -q -trials 4
	go run ./cmd/stonesim sweep -spec examples/specs/hostile-mis.json -q -trials 4
	rm -rf /tmp/stonesim-check-shard /tmp/stonesim-check-claims
	go build -o /tmp/stonesim-check ./cmd/stonesim
	/tmp/stonesim-check sweep -spec examples/specs/smoke.json -q -stripwall -json /tmp/stonesim-shard-1.json -csv /tmp/stonesim-shard-1.csv
	/tmp/stonesim-check sweep -spec examples/specs/smoke.json -q -stripwall -procs 3 -workdir /tmp/stonesim-check-shard -json /tmp/stonesim-shard-3.json -csv /tmp/stonesim-shard-3.csv
	cmp /tmp/stonesim-shard-1.json /tmp/stonesim-shard-3.json
	cmp /tmp/stonesim-shard-1.csv /tmp/stonesim-shard-3.csv
	/tmp/stonesim-check work -workdir /tmp/stonesim-check-claims -spec examples/specs/smoke.json -q & a=$$!; \
		/tmp/stonesim-check work -workdir /tmp/stonesim-check-claims -spec examples/specs/smoke.json -q & b=$$!; \
		wait $$a; sa=$$?; wait $$b; sb=$$?; [ $$sa -eq 0 ] && [ $$sb -eq 0 ]
	/tmp/stonesim-check sweep -spec examples/specs/smoke.json -procs 1 -workdir /tmp/stonesim-check-claims -q -stripwall -json /tmp/stonesim-claims.json -csv /tmp/stonesim-claims.csv
	cmp /tmp/stonesim-shard-1.json /tmp/stonesim-claims.json
	cmp /tmp/stonesim-shard-1.csv /tmp/stonesim-claims.csv
	@echo "check: OK"

# bench is the performance run: stonebench (the benchmark BENCHMARK.json
# describes; see stonebench/README.md) on each of its three workloads
# for 20 CPU seconds, then the root package's microbenchmarks with
# -benchmem. Each microbenchmark answers a question stonebench cannot
# (DESIGN.md "Benchmarks"); model quantities such as rounds and time
# units are cmd/experiments' tables.
bench:
	for w in sync-large sweep hostile; do \
		bash stonebench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; done
	go test -run '^$$' -bench . -benchmem .
