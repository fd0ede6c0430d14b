// Package stoneage is a complete Go implementation of "Stone Age
// Distributed Computing" (Emek, Smula, Wattenhofer; PODC 2013): the
// networked-finite-state-machine (nFSM) model, the Section 3
// synchronizer and multi-letter-query compilers, the Section 4 MIS
// protocol of Figure 1, the Section 5 tree 3-coloring protocol, the
// Section 6 rLBA equivalence in both directions, the classical
// message-passing and beeping baselines the paper compares against, and
// an experiment harness that regenerates an empirical analogue of every
// theorem.
//
// The implementation lives under internal/; see DESIGN.md for the system
// inventory, the compiled execution core's architecture, the
// asynchronous scheduler (a ladder event queue and silent-chain
// parking that replays skipped steps bit-identically to the reference
// engine), the campaign layer, the
// protocol registry, the dynamic-network layer, the
// unreliable-channel axis and the loss-tolerant αβ synchronizer,
// the bit-plane synchronous backend (per-node state and clamped
// counters packed into SoA bit-planes, 64 nodes per word, selected by
// SyncConfig.Backend or automatically at n ≥ 2¹⁶ and bit-identical to
// the flat executor), the streamed graph builders
// (graph.EdgeStream → BuildCSR, which reach n = 10⁶ without ever
// materializing an edge list), the distributed-sweep dispatcher
// (internal/dispatch: `stonesim sweep -procs N` shards a campaign's
// cells over re-exec'd worker processes that coordinate only through
// claim files in a shared work directory, with fsync'd per-cell spill
// checkpoints and lease-based crash recovery, merging byte-identically
// to the in-process run at any shard count), stonebench/ for the benchmark that
// BENCHMARK.json describes (the repository's wall-clock and memory
// ledger: CPU-second medians, bounds, determinism digests and per-layer
// attribution over three workloads; `make bench` runs them and then the
// microbenchmarks in bench_test.go, each of which answers a question
// stonebench cannot), and examples/ for runnable entry points. The
// paper's model quantities — rounds, time units, expansion factors — are
// cmd/experiments' report tables. Tight run loops — the
// campaign workers, `stonesim run -trials`, the benchmarks — reuse
// per-worker scratch arenas (engine.Scratch / protocol.Scratch), which
// makes steady-state execution allocation-free; testing.AllocsPerRun
// guards in internal/engine pin that in `make check`.
//
// Every protocol — the paper's nFSM machines (internal/mis,
// internal/coloring, internal/degcolor), the extended-model matching
// (internal/matching), the self-stabilizing MIS (internal/ssmis), and
// the classical baselines (internal/baseline) — self-registers a
// capability-typed descriptor in the unified registry internal/protocol
// (machine constructor, output decoder, validator, parameter domains,
// shared compile cache). Clients resolve behavior through the registry,
// never through concrete packages: `stonesim protocols` lists the set,
// `stonesim -protocol <name>` runs any entry, campaign specs sweep any
// subset, and adding a protocol is a single protocol.Register call.
//
// Networks need not be static: internal/scenario schedules timed
// mutation batches (edge churn, region crashes and restarts, staggered
// wake-up) that every engine entry point applies mid-run, carrying
// surviving node and port state across topology re-binds, resetting
// perturbed nodes per capability-resolved policies, validating outputs
// against the final graph, and reporting a recovery-time metric. A
// dynamic reference engine pins the fast one differentially, exactly as
// in the static case.
//
// Channels need not be reliable either: internal/channel composes
// deterministic content-seeded models of message loss, duplication,
// bounded reordering and in-alphabet corruption that both engine pairs
// apply to every transmission (bit-identically, via one shared
// expansion helper), plus Byzantine node behaviors (silent, stuck-at,
// babbling) that replace a node's machine and are excluded from output
// validation on the honest-induced subgraph. Protocols declare measured
// tolerances as capabilities with window bounds where relevant
// (`stonesim protocols` prints them); docs/robustness-matrix.md records
// which protocol survives, degrades or breaks under each pathology and
// names the test behind each cell. For lossy links the async engine
// offers a second compilation mode: the loss-tolerant αβ hybrid
// synchronizer (internal/synchro CompileTolerant) re-pulses the current
// generation's letter after a bounded stall timeout, turning the
// α-synchronizer's loss deadlock into mere delay — select it with
// `stonesim -engine async -synchro tolerant` or a campaign `engines`
// axis (sync | sync-packed | async | async-tolerant | async-voted;
// sync-packed forces the bit-plane backend and must aggregate
// bit-identically to sync). A third tier hardens the hybrid against
// corruption and Byzantine silence: the voted αβv synchronizer
// (internal/synchro CompileVoted, `-synchro voted`) commits a
// neighbor's letter only when it holds k of the last 2k−1 receipts
// (sent as k-copy bursts, so reliable-link time-units stay
// bit-identical to αβ), evicts an edge after a bounded run of
// unanswered re-pulses at fully decayed backoff cadence (recorded in
// the run; the permanently-ε port unsticks the pausing feature a
// silent Byzantine neighbor would deadlock), and gates re-pulses with
// a per-edge multiplicative backoff reset by any receipt.
//
// Statistical claims are measured as campaigns: internal/campaign runs
// the declarative cross product protocol × scenario × graph family ×
// size with many trials per cell on a parallel worker pool, with
// per-trial deterministic seeds (aggregates are identical at every
// worker count) — or sharded across worker processes with
// `-procs N -workdir D`, where finished cells are durable and an
// interrupted sweep resumes without re-running them. Run one with
//
//	go run ./cmd/stonesim sweep -spec examples/specs/mis-families.json
//
// which reproduces an MIS round-complexity table over five sparse
// topology families (G(n,p), random geometric, preferential-attachment
// power law, small-world rewiring, torus) at three sizes with 32 trials
// per cell, and emits JSON/CSV via -json/-csv
// (examples/specs/all-protocols.json sweeps every registered protocol;
// examples/specs/churn-mis.json measures recovery under churn, crashes
// and staggered wake-up; examples/specs/lossy-mis.json measures
// robustness under unreliable channels and Byzantine nodes;
// examples/specs/hostile-mis.json measures the voted tier against
// corruption and Byzantine silence — see
// examples/specs/README.md for the spec format). `make check` runs the
// CI gate (also run on every push and pull request by
// .github/workflows/ci.yml): gofmt, go vet, the race-detector test
// suite, the allocation-regression and ladder-queue suites, the
// registry conformance suite, one iteration of each microbenchmark,
// the smoke, all-protocols,
// churn-recovery, channel-robustness and hostile-channel campaigns,
// and the distributed-sweep gate (the smoke spec sharded over 3 worker
// processes must emit bytes identical to the single-process run).
package stoneage
