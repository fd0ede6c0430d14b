package stoneage

// One benchmark per experiment in DESIGN.md's index (E1–E12), plus the
// ablation benches the design calls out (single-letter counting fast
// path, synchronizer phase cost, engine-vs-sweep). Each bench regenerates
// the core measurement of its experiment; `go test -bench=.` therefore
// reproduces the full evaluation in miniature, and the reported ns/op
// track the simulation cost of each subsystem.

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"stoneage/internal/campaign"
	"stoneage/internal/channel"
	"stoneage/internal/coloring"
	"stoneage/internal/degcolor"
	"stoneage/internal/dispatch"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/lba"
	"stoneage/internal/matching"
	"stoneage/internal/mis"
	"stoneage/internal/protocol"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"

	// Link the full protocol set so BenchmarkProtocolMatrix covers it.
	_ "stoneage/internal/protocol/std"
)

// BenchmarkMISSync is E1: synchronous MIS across network sizes. The
// million-node sub-benchmark is the bit-plane acceptance run: the graph
// is never materialized (streamed G(n,p) → CSR) and the run executes on
// the packed backend, with resident memory reported per node. It is
// gated off single-core hosts (the 1-core CI runner) because generating
// and sweeping 10⁶ nodes there starves the rest of the suite; set
// STONEAGE_BENCH_LARGE=1 to force it anywhere.
func BenchmarkMISSync(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		g := graph.GnpConnected(n, 4.0/float64(n), xrand.New(uint64(n)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				run, err := mis.SolveSync(g, uint64(i), 0)
				if err != nil {
					b.Fatal(err)
				}
				rounds = run.Rounds
			}
			l := math.Log2(float64(n))
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/(l*l), "rounds/log²n")
		})
	}
	b.Run("n=1_000_000", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 && os.Getenv("STONEAGE_BENCH_LARGE") == "" {
			b.Skip("million-node run skipped on a single-core host (STONEAGE_BENCH_LARGE=1 forces it)")
		}
		const n = 1_000_000
		csr, err := graph.BuildCSR(graph.GnpConnectedStream(n, 4.0/n, uint64(n)))
		if err != nil {
			b.Fatal(err)
		}
		prog := engine.CompileMachine(mis.Protocol()).BindCSR(csr)
		scratch := engine.NewScratch()
		b.ResetTimer()
		rounds := 0
		for i := 0; i < b.N; i++ {
			res, err := prog.RunSyncReusing(engine.SyncConfig{Seed: uint64(i), Backend: engine.BackendPacked}, scratch)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
		l := math.Log2(float64(n))
		b.ReportMetric(float64(rounds)/(l*l), "rounds/log²n")
		if rss := vmRSSBytes(); rss > 0 {
			b.ReportMetric(float64(rss)/n, "RSS-B/node")
		}
	})
}

// vmRSSBytes reads the process's resident set size from
// /proc/self/status. Returns 0 where the file is absent (non-Linux) so
// callers just omit the metric.
func vmRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// BenchmarkMISAsync is E2: the compiled MIS protocol under adversaries,
// run the way the stack runs trials in anger — the protocol bound once
// (the synchronizer compilation is cached in the registry) and a
// per-worker scratch arena reused across runs, so steady-state
// execution through the ladder-queue event core is allocation-free.
func BenchmarkMISAsync(b *testing.B) {
	g := graph.GnpConnected(32, 0.125, xrand.New(3))
	d, err := protocol.Lookup("mis")
	if err != nil {
		b.Fatal(err)
	}
	bound, err := d.Bind(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"sync", "uniform", "overwriter"} {
		adv := engine.NamedAdversaries(9)[name]
		b.Run(name, func(b *testing.B) {
			scratch := protocol.NewScratch()
			tu := 0.0
			for i := 0; i < b.N; i++ {
				run, err := bound.RunAsyncReusing(protocol.AsyncConfig{Seed: uint64(i), Adversary: adv}, scratch)
				if err != nil {
					b.Fatal(err)
				}
				tu = run.TimeUnits
			}
			b.ReportMetric(tu, "time-units")
		})
	}
}

// BenchmarkChannelOverhead measures the unreliable-channel axis tax on
// the asynchronous hot loop. The reliable sub-benchmark runs with a nil
// model — the exact code path every channel-free caller takes, so its
// ns/op pins the axis's zero-overhead claim against BenchmarkMISAsync
// in the previous snapshot. The dup and stack sub-benchmarks price the
// per-transmission Expand call for a single policy and a composed one
// (both pathologies the compiled protocol tolerates, so every variant
// converges and the runs stay comparable).
func BenchmarkChannelOverhead(b *testing.B) {
	g := graph.GnpConnected(32, 0.125, xrand.New(3))
	d, err := protocol.Lookup("mis")
	if err != nil {
		b.Fatal(err)
	}
	bound, err := d.Bind(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	models := []struct {
		name  string
		model channel.Model
	}{
		{"reliable", nil},
		{"dup", channel.Duplicate{Rate: 0.3, MaxCopies: 3, Seed: 11}},
		{"stack", channel.Stack{
			channel.Duplicate{Rate: 0.3, MaxCopies: 3, Seed: 11},
			channel.Reorder{Window: 0.5, Seed: 12},
		}},
	}
	adv := engine.NamedAdversaries(9)["uniform"]
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			scratch := protocol.NewScratch()
			dups := int64(0)
			for i := 0; i < b.N; i++ {
				run, err := bound.RunAsyncReusing(protocol.AsyncConfig{
					Seed: uint64(i), Adversary: adv, Channel: m.model,
				}, scratch)
				if err != nil {
					b.Fatal(err)
				}
				dups = run.Duplicated
			}
			b.ReportMetric(float64(dups), "duplicated")
		})
	}
}

// BenchmarkSynchronizerOverhead is E3: async time-units per sync round.
func BenchmarkSynchronizerOverhead(b *testing.B) {
	g := graph.GnpConnected(48, 4.0/48, xrand.New(4))
	sres, err := engine.RunSync(mis.Protocol(), g, engine.SyncConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", func(b *testing.B) {
		ratio := 0.0
		for i := 0; i < b.N; i++ {
			compiled, err := synchro.CompileRound(mis.Protocol())
			if err != nil {
				b.Fatal(err)
			}
			ares, err := engine.RunAsync(compiled, g, engine.AsyncConfig{Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			ratio = ares.TimeUnits / float64(sres.Rounds)
		}
		b.ReportMetric(ratio, "TU/round")
	})
}

// BenchmarkTolerantSynchroOverhead measures the αβ-hybrid tax: the
// loss-tolerant compilation vs the plain α synchronizer on a reliable
// channel, run the way trials run in anger — the protocol bound once
// (each compilation cached in its own registry slot) and a scratch
// arena reused across runs. The tolerant machine never fires a
// re-pulse here (no loss), but its stall states tick timers instead of
// self-looping in place, so it pays real time units; the reported
// ratio is that overhead, and the ns/op comparison against the alpha
// sub-benchmark rides the bench-compare gate.
func BenchmarkTolerantSynchroOverhead(b *testing.B) {
	g := graph.GnpConnected(48, 4.0/48, xrand.New(4))
	d, err := protocol.Lookup("mis")
	if err != nil {
		b.Fatal(err)
	}
	bound, err := d.Bind(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	adv := engine.NamedAdversaries(9)["uniform"]
	alphaTU := 0.0
	for _, variant := range []struct {
		name    string
		synchro string
	}{
		{"alpha", ""},
		{"tolerant", protocol.SynchroTolerant},
	} {
		b.Run(variant.name, func(b *testing.B) {
			scratch := protocol.NewScratch()
			tu := 0.0
			for i := 0; i < b.N; i++ {
				run, err := bound.RunAsyncReusing(protocol.AsyncConfig{
					Seed: uint64(i), Adversary: adv, Synchro: variant.synchro,
				}, scratch)
				if err != nil {
					b.Fatal(err)
				}
				tu = run.TimeUnits
			}
			b.ReportMetric(tu, "TU")
			if variant.name == "alpha" {
				alphaTU = tu
			} else if alphaTU > 0 {
				b.ReportMetric(tu/alphaTU, "TU-ratio-vs-alpha")
			}
		})
	}
}

// BenchmarkVotedSynchroOverhead measures the αβv tax on top of the αβ
// hybrid: on a reliable channel the voted tier's K-copy bursts triple
// the per-emission channel work and the ring vote runs on every
// receipt, but the K-th copy commits at the same absolute time a
// single αβ copy would — so the TU ratio must hold at 1.0 while ns/op
// pays for the burst, and nothing may evict. The skew pair then
// measures the adaptive gate's yield where it earns its keep: under 2×
// step skew the slow nodes' re-pulse timers fire constantly, and
// backoff (cap 8) must transmit strictly fewer re-pulses than the
// ungated cap-1 run on otherwise identical trials.
func BenchmarkVotedSynchroOverhead(b *testing.B) {
	g := graph.GnpConnected(48, 4.0/48, xrand.New(4))
	d, err := protocol.Lookup("mis")
	if err != nil {
		b.Fatal(err)
	}
	bound, err := d.Bind(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	adv := engine.NamedAdversaries(9)["uniform"]
	tolerantTU := 0.0
	for _, variant := range []struct {
		name    string
		synchro string
	}{
		{"tolerant", protocol.SynchroTolerant},
		{"voted", protocol.SynchroVoted},
	} {
		b.Run(variant.name, func(b *testing.B) {
			scratch := protocol.NewScratch()
			tu := 0.0
			for i := 0; i < b.N; i++ {
				run, err := bound.RunAsyncReusing(protocol.AsyncConfig{
					Seed: uint64(i), Adversary: adv, Synchro: variant.synchro,
				}, scratch)
				if err != nil {
					b.Fatal(err)
				}
				if len(run.EvictedEdges) != 0 {
					b.Fatalf("%d edges evicted on reliable links", len(run.EvictedEdges))
				}
				tu = run.TimeUnits
			}
			b.ReportMetric(tu, "TU")
			if variant.name == "tolerant" {
				tolerantTU = tu
			} else if tolerantTU > 0 {
				b.ReportMetric(tu/tolerantTU, "TU-ratio-vs-tolerant")
			}
		})
	}
	skew := engine.Skew{Seed: 9, Ratio: 0.5}
	ungated := 0.0
	for _, variant := range []struct {
		name string
		cap  int
	}{
		{"skew-nobackoff", 1},
		{"skew-backoff", 0}, // 0 selects the engine default cap (8)
	} {
		b.Run(variant.name, func(b *testing.B) {
			scratch := protocol.NewScratch()
			sends := 0.0
			for i := 0; i < b.N; i++ {
				run, err := bound.RunAsyncReusing(protocol.AsyncConfig{
					Seed: uint64(i), Adversary: skew,
					Synchro: protocol.SynchroVoted, RePulseCap: variant.cap,
				}, scratch)
				if err != nil {
					b.Fatal(err)
				}
				if len(run.EvictedEdges) != 0 {
					b.Fatalf("%d edges evicted under pure skew", len(run.EvictedEdges))
				}
				sends = float64(run.RePulseSends)
			}
			b.ReportMetric(sends, "re-pulse-sends")
			if variant.cap == 1 {
				ungated = sends
			} else if ungated > 0 && sends >= ungated {
				b.Fatalf("backoff sent %g re-pulses, ungated sent %g — the gate saves nothing", sends, ungated)
			}
		})
	}
}

// BenchmarkMultiLetterExpansion is E4: the Theorem 3.4 subround factor.
func BenchmarkMultiLetterExpansion(b *testing.B) {
	g := graph.GnpConnected(64, 4.0/64, xrand.New(5))
	exp, err := synchro.Expand(mis.Protocol())
	if err != nil {
		b.Fatal(err)
	}
	factor := 0.0
	for i := 0; i < b.N; i++ {
		direct, err := engine.RunSync(mis.Protocol(), g, engine.SyncConfig{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		eres, err := engine.RunSync(exp, g, engine.SyncConfig{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		factor = float64(eres.Rounds) / float64(direct.Rounds)
	}
	b.ReportMetric(factor, "expansion")
}

// BenchmarkColoringSync is E5: tree 3-coloring across sizes.
func BenchmarkColoringSync(b *testing.B) {
	for _, n := range []int{64, 1024, 8192} {
		g := graph.RandomTree(n, xrand.New(uint64(n)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				run, err := coloring.SolveSync(g, uint64(i), 0)
				if err != nil {
					b.Fatal(err)
				}
				rounds = run.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/math.Log2(float64(n)), "rounds/logn")
		})
	}
}

// BenchmarkEdgeDecay is E6: the instrumented tournament census.
func BenchmarkEdgeDecay(b *testing.B) {
	g := graph.Gnp(256, 8.0/256, xrand.New(6))
	decay := 0.0
	for i := 0; i < b.N; i++ {
		_, ts, err := mis.SolveSyncInstrumented(g, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		ratios := ts.DecayRatios()
		sum := 0.0
		for _, r := range ratios {
			sum += r
		}
		if len(ratios) > 0 {
			decay = sum / float64(len(ratios))
		}
	}
	b.ReportMetric(decay, "mean-edge-decay")
}

// BenchmarkLBASimulatesNFSM is E8: the Lemma 6.1 two-sweep simulator.
func BenchmarkLBASimulatesNFSM(b *testing.B) {
	g := graph.Gnp(64, 0.1, xrand.New(7))
	for i := 0; i < b.N; i++ {
		if _, err := lba.SimulateNFSM(mis.Protocol(), g, lba.SweepConfig{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNFSMSimulatesLBA is E9: the Lemma 6.2 path simulation.
func BenchmarkNFSMSimulatesLBA(b *testing.B) {
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
}

// BenchmarkProtocolMatrix is E10 generalized: instead of a hand-kept
// algorithm map, the benchmark matrix is generated from the protocol
// registry — every registered protocol (the paper's nFSM machines, the
// extended-model matching, and the classical baselines it is compared
// against) runs once per iteration on a capability-compatible 256-node
// instance through the shared registry runner. A protocol registered
// anywhere in the binary joins the matrix with no bench edits.
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

// BenchmarkMatching is E11: the extended-model maximal matching.
func BenchmarkMatching(b *testing.B) {
	for _, n := range []int{64, 512} {
		g := graph.GnpConnected(n, 4.0/float64(n), xrand.New(uint64(n)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := matching.Solve(g, uint64(i), 0)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkDegColor is E12: the bounded-degree (Δ+1)-coloring extension.
func BenchmarkDegColor(b *testing.B) {
	g := graph.Torus(24, 24)
	rounds := 0
	for i := 0; i < b.N; i++ {
		run, err := degcolor.SolveSync(g, 4, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		rounds = run.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkCounterAblation isolates the engine's single-letter counting
// fast path (used for literal single-query protocols such as compiled
// ones) against the full-vector count a RoundProtocol needs. The gap is
// the price of multi-letter queries per node step.
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

// BenchmarkCompilePhaseCost measures one simulated round of the compiled
// MIS protocol per node (the Theorem 3.1 constant, in wall-clock form).
func BenchmarkCompilePhaseCost(b *testing.B) {
	g := graph.Cycle(16)
	compiled, err := synchro.CompileRound(mis.Protocol())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunAsync(compiled, g, engine.AsyncConfig{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkEngineStep measures the raw per-step cost of the two engines
// (an ablation for the event-queue overhead of the asynchronous engine).
func BenchmarkEngineStep(b *testing.B) {
	g := graph.GnpConnected(128, 4.0/128, xrand.New(9))
	b.Run("sync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunSync(mis.Protocol(), g, engine.SyncConfig{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lba.SimulateNFSM(mis.Protocol(), g, lba.SweepConfig{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCampaignMISSweep measures the campaign layer: a full
// multi-family MIS sweep (4 families × 2 sizes × 8 trials) through the
// parallel trial pool, per worker count. The parallel/serial ratio
// tracks how well trial fan-out scales on the host.
func BenchmarkCampaignMISSweep(b *testing.B) {
	spec := campaign.Spec{
		Protocols: []string{"mis"},
		Families: []campaign.Family{
			{Kind: "gnp"}, {Kind: "geometric"}, {Kind: "powerlaw"}, {Kind: "smallworld"},
		},
		Sizes:  []int{256, 1024},
		Trials: 8,
		Seed:   1,
	}
	for _, workers := range []int{1, 0} {
		name := "workers=max"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			sp := spec
			sp.Workers = workers
			for i := 0; i < b.N; i++ {
				sp.Seed = uint64(i + 1)
				if _, err := campaign.Run(sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedSweep measures the dispatch layer: the same MIS
// sweep coordinated over worker processes' protocol — in-process
// workers here, so the number is coordination overhead (socket
// round-trips, spill fsyncs, merge) plus cell-level parallelism, not
// exec cost. Shard scaling is the point of the benchmark: on
// single-core CI the 2- and 4-proc runs measure pure overhead, and
// only on multi-core hosts do they show the speedup.
func BenchmarkShardedSweep(b *testing.B) {
	spec := campaign.Spec{
		Protocols: []string{"mis"},
		Families: []campaign.Family{
			{Kind: "gnp"}, {Kind: "geometric"}, {Kind: "powerlaw"}, {Kind: "smallworld"},
		},
		Sizes:  []int{256, 1024},
		Trials: 8,
		Seed:   1,
	}
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
