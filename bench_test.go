package stoneage

// The repository's wall-clock and memory ledger is stonebench (the
// stonebench/ module, described by BENCHMARK.json): medians, bounds,
// digests and per-layer attribution over end-to-end workloads. The
// paper's model quantities (rounds, time units, expansion factors) are
// reported by cmd/experiments. The five microbenchmarks here each
// answer a question neither of those can; DESIGN.md "Benchmarks" states
// them. `make check` runs them once; `make bench` runs them with
// -benchmem after the stonebench workloads.

import (
	"context"
	"fmt"
	"os"
	"testing"

	"stoneage/internal/campaign"
	"stoneage/internal/dispatch"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/lba"
	"stoneage/internal/mis"
	"stoneage/internal/protocol"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"

	// Link the full protocol set so BenchmarkProtocolMatrix covers it.
	_ "stoneage/internal/protocol/std"
)

// BenchmarkProtocolMatrix prices one synchronous run of every
// registered protocol through the shared registry runner: the paper's
// nFSM machines, the extended-model matching and the classical
// baselines, each once per iteration on a capability-compatible
// 256-node instance. A protocol registered anywhere in the binary joins
// the matrix with no bench edits.
func BenchmarkProtocolMatrix(b *testing.B) {
	gnp := graph.GnpConnected(256, 4.0/256, xrand.New(8))
	tree := graph.RandomTree(256, xrand.New(8))
	path := graph.Path(256)
	for _, d := range protocol.All() {
		g := gnp
		switch {
		case d.Caps.Has(protocol.CapNeedsPath):
			g = path
		case d.Caps.Has(protocol.CapNeedsTree):
			g = tree
		}
		bound, err := d.Bind(g, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Name, func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				run, err := bound.RunSync(protocol.SyncConfig{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds = run.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkLBA prices the two Section 6 simulations, which no
// stonebench workload runs: sweep is the Lemma 6.1 two-sweep simulator
// (an LBA running MIS's nFSM on a 128-node graph), path the Lemma 6.2
// nFSM path network deciding a⁸b⁸c⁸.
func BenchmarkLBA(b *testing.B) {
	b.Run("sweep", func(b *testing.B) {
		g := graph.GnpConnected(128, 4.0/128, xrand.New(9))
		for i := 0; i < b.N; i++ {
			if _, err := lba.SimulateNFSM(mis.Protocol(), g, lba.SweepConfig{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path", func(b *testing.B) {
		tm := lba.ABC()
		input := make([]lba.Symbol, 0, 24)
		for _, s := range []lba.Symbol{lba.SymA, lba.SymB, lba.SymC} {
			for i := 0; i < 8; i++ {
				input = append(input, s)
			}
		}
		rounds := 0
		for i := 0; i < b.N; i++ {
			run, err := lba.RunOnPath(tm, input, uint64(i), 0)
			if err != nil {
				b.Fatal(err)
			}
			if !run.Accepted {
				b.Fatal("a⁸b⁸c⁸ rejected")
			}
			rounds = run.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkCounterAblation isolates the engine's single-letter counting
// path (the per-state record table that serves dynamic single-query
// machines such as the Theorem 3.4 expansion) against the full-vector
// count a tabulated RoundProtocol needs. The gap is the price of
// multi-letter queries per node step.
func BenchmarkCounterAblation(b *testing.B) {
	g := graph.Clique(64)
	b.Run("full-vector/mis-round-protocol", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunSync(mis.Protocol(), g, engine.SyncConfig{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-letter/expanded", func(b *testing.B) {
		exp, err := synchro.Expand(mis.Protocol())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunSync(exp, g, engine.SyncConfig{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineCompiledVsRef is the acceptance ablation for the
// compiled execution core: the reference engine (RunSyncRef, the one
// synchronous oracle, which runs a static run as the empty-scenario
// case of its dynamic loop — graph clone and liveness bookkeeping
// included) against the compiled executor on E1's n=1024 instance,
// plus the pre-bound program that amortizes the δ-tabulation the way
// the protocol packages do. The differential tests guarantee all three
// produce bit-identical runs.
func BenchmarkEngineCompiledVsRef(b *testing.B) {
	g := graph.GnpConnected(1024, 4.0/1024, xrand.New(1024))
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunSyncRef(mis.Protocol(), g, engine.SyncConfig{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunSync(mis.Protocol(), g, engine.SyncConfig{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prebound", func(b *testing.B) {
		code := engine.CompileMachine(mis.Protocol())
		for i := 0; i < b.N; i++ {
			if _, err := code.Bind(g).RunSync(engine.SyncConfig{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedSweep measures the dispatch layer against the
// in-process campaign runner on one MIS sweep (4 families × 2 sizes × 8
// trials). The inproc arm is campaign.Run on one worker; the procs arms
// run in-process workers that claim cells from a work directory, so
// their gap to inproc is coordination overhead (claim and done-marker
// files, spill fsyncs, merge) net of cell-level parallelism, not exec
// cost. Only on a multi-core host do the 2- and 4-proc arms show a
// speedup.
func BenchmarkShardedSweep(b *testing.B) {
	spec := campaign.Spec{
		Protocols: []string{"mis"},
		Families: []campaign.Family{
			{Kind: "gnp"}, {Kind: "geometric"}, {Kind: "powerlaw"}, {Kind: "smallworld"},
		},
		Sizes:  []int{256, 1024},
		Trials: 8,
	}
	b.Run("inproc", func(b *testing.B) {
		sp := spec
		sp.Workers = 1
		for i := 0; i < b.N; i++ {
			sp.Seed = uint64(i + 1)
			if _, err := campaign.Run(sp); err != nil {
				b.Fatal(err)
			}
		}
	})
	spawn := func(ctx context.Context, o dispatch.Options) (func() error, error) {
		errc := make(chan error, 1)
		go func() {
			_, err := dispatch.Work(ctx, o)
			errc <- err
		}()
		return func() error { return <-errc }, nil
	}
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			sp := spec
			for i := 0; i < b.N; i++ {
				sp.Seed = uint64(i + 1)
				dir, err := os.MkdirTemp(b.TempDir(), "shard")
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := dispatch.Run(context.Background(), dispatch.Config{
					Spec: sp, WorkDir: dir, Procs: procs, SpawnWorker: spawn,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
