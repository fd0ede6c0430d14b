package engine_test

// The unreliable-channel differential suite: under every channel model
// and Byzantine behavior, the fast executors (compiled sync, ladder
// async) must stay bit-identical to the reference engines — States,
// metrics, channel counters, and even the error text when a pathology
// prevents convergence. Both engines route transmissions through
// channel.Expand, so any divergence is an executor bug, not a model
// roll; these tests are the wall that keeps it that way.

import (
	"errors"
	"fmt"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/coloring"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/ssmis"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// channelModels is the model matrix: every single policy plus a stack
// that composes all four (duplicate first, so copies are independently
// dropped, delayed and corrupted downstream).
func channelModels() []channel.Model {
	return []channel.Model{
		channel.Drop{Rate: 0.3, Seed: 11},
		channel.Duplicate{Rate: 0.5, MaxCopies: 3, Seed: 12},
		channel.Reorder{Window: 2, Seed: 13},
		channel.Corrupt{Rate: 0.3, Seed: 14},
		channel.Stack{
			channel.Duplicate{Rate: 0.3, MaxCopies: 4, Seed: 15},
			channel.Drop{Rate: 0.2, Seed: 16},
			channel.Reorder{Window: 1.5, Seed: 17},
			channel.Corrupt{Rate: 0.1, Seed: 18},
		},
	}
}

// byzScenario attaches one node of each Byzantine behavior to the
// graph's first three nodes (ResetNone: the engines reject ResetAuto).
func byzScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Reset: scenario.ResetNone,
		Byzantine: []channel.ByzNode{
			channel.Silent(0),
			channel.StuckAt(1, 0),
			channel.RandomBabbler(2, 99),
		},
	}
}

// compareSync demands bit-identical results (or bit-identical errors)
// between the compiled executor and the reference sync engine.
func compareSync(t *testing.T, m nfsm.Machine, g *graph.Graph, cfg engine.SyncConfig) {
	t.Helper()
	ref, refErr := engine.RunSyncRef(m, g, cfg)
	got, gotErr := engine.Compile(m, g).RunSync(cfg)
	if refErr != nil || gotErr != nil {
		if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
			t.Fatalf("error mismatch:\nreference: %v\ncompiled:  %v", refErr, gotErr)
		}
		return
	}
	if got.Rounds != ref.Rounds || got.Transmissions != ref.Transmissions {
		t.Errorf("(Rounds, Tx) = (%d, %d), reference (%d, %d)",
			got.Rounds, got.Transmissions, ref.Rounds, ref.Transmissions)
	}
	if got.Dropped != ref.Dropped || got.Duplicated != ref.Duplicated ||
		got.Delayed != ref.Delayed ||
		got.Reordered != ref.Reordered || got.Corrupted != ref.Corrupted ||
		got.Severed != ref.Severed {
		t.Errorf("channel counters (%d,%d,%d,%d,%d,%d), reference (%d,%d,%d,%d,%d,%d)",
			got.Dropped, got.Duplicated, got.Delayed, got.Reordered, got.Corrupted, got.Severed,
			ref.Dropped, ref.Duplicated, ref.Delayed, ref.Reordered, ref.Corrupted, ref.Severed)
	}
	for v := range ref.States {
		if got.States[v] != ref.States[v] {
			t.Fatalf("state of node %d = %d, reference %d", v, got.States[v], ref.States[v])
		}
	}
}

// compareAsync is compareSync's asynchronous counterpart: ladder vs
// reference across every metric the executors report.
func compareAsync(t *testing.T, m nfsm.Machine, g *graph.Graph, cfg func() engine.AsyncConfig) {
	t.Helper()
	// The ladder runs first: on a lazily interning machine it then meets
	// rows no earlier run built, which its chain walker must leave alone.
	got, gotErr := engine.RunAsync(m, g, cfg())
	ref, refErr := engine.RunAsyncRef(m, g, cfg())
	if refErr != nil || gotErr != nil {
		if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
			t.Fatalf("error mismatch:\nreference: %v\nladder:    %v", refErr, gotErr)
		}
		return
	}
	if got.Time != ref.Time || got.Steps != ref.Steps ||
		got.Transmissions != ref.Transmissions || got.Lost != ref.Lost {
		t.Errorf("(Time, Steps, Tx, Lost) = (%v, %d, %d, %d), reference (%v, %d, %d, %d)",
			got.Time, got.Steps, got.Transmissions, got.Lost,
			ref.Time, ref.Steps, ref.Transmissions, ref.Lost)
	}
	if got.Dropped != ref.Dropped || got.Duplicated != ref.Duplicated ||
		got.Delayed != ref.Delayed ||
		got.Reordered != ref.Reordered || got.Corrupted != ref.Corrupted ||
		got.Severed != ref.Severed {
		t.Errorf("channel counters (%d,%d,%d,%d,%d,%d), reference (%d,%d,%d,%d,%d,%d)",
			got.Dropped, got.Duplicated, got.Delayed, got.Reordered, got.Corrupted, got.Severed,
			ref.Dropped, ref.Duplicated, ref.Delayed, ref.Reordered, ref.Corrupted, ref.Severed)
	}
	for v := range ref.States {
		if got.States[v] != ref.States[v] {
			t.Fatalf("state of node %d = %d, reference %d", v, got.States[v], ref.States[v])
		}
	}
}

// TestDifferentialSyncChannel pins the compiled sync executor to the
// reference under every channel model, with and without Byzantine
// nodes, at several worker counts (channel runs are sequential, but the
// flag must not change results). Each case is a parallel subtest: the
// cases share only their pure round protocols and graphs, and each run
// compiles its own program.
func TestDifferentialSyncChannel(t *testing.T) {
	cases := []diffCase{
		{"ssmis/gnp", ssmis.Protocol(), graph.GnpConnected(96, 5.0/96, xrand.New(31))},
		{"mis/torus", mis.Protocol(), graph.Torus(6, 6)},
		{"coloring/tree", coloring.Protocol(), graph.RandomTree(80, xrand.New(32))},
	}
	for _, tc := range cases {
		for mi, model := range channelModels() {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/model=%s/workers=%d", tc.name, model, workers)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					compareSync(t, tc.m, tc.g, engine.SyncConfig{
						Seed: uint64(40 + mi), Workers: workers,
						MaxRounds: 1 << 12, Channel: model,
					})
				})
			}
		}
		t.Run(tc.name+"/byzantine", func(t *testing.T) {
			t.Parallel()
			compareSync(t, tc.m, tc.g, engine.SyncConfig{
				Seed: 50, MaxRounds: 1 << 12,
				Scenario: byzScenario(),
				Channel:  channel.Drop{Rate: 0.1, Seed: 51},
			})
		})
	}
}

// TestDifferentialAsyncChannel pins the ladder executor to the
// reference under every channel model × adversary, with and without
// Byzantine nodes.
func TestDifferentialAsyncChannel(t *testing.T) {
	compiledMIS, err := synchro.CompileRound(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	compiledSS, err := synchro.CompileRound(ssmis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	tolerantMIS, err := synchro.CompileRoundTolerant(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	tolerantSS, err := synchro.CompileRoundTolerant(ssmis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	cases := []diffCase{
		{"flood/gnp", flood(), graph.GnpConnected(96, 5.0/96, xrand.New(33))},
		{"compiled-ssmis/gnp", compiledSS, graph.GnpConnected(24, 0.2, xrand.New(34))},
		{"compiled-mis/cycle", compiledMIS, graph.Cycle(12)},
		// The αβ-hybrid machines: their re-pulse transmissions and
		// stall-timer hop chains must stay bit-identical between the
		// ladder (silent-chain parking) and the reference
		// under every model.
		{"tolerant-ssmis/gnp", tolerantSS, graph.GnpConnected(24, 0.2, xrand.New(34))},
		{"tolerant-mis/cycle", tolerantMIS, graph.Cycle(12)},
	}
	const maxSteps = 1 << 17
	for _, tc := range cases {
		for mi, model := range channelModels() {
			for _, advName := range []string{"uniform", "skew"} {
				name := fmt.Sprintf("%s/model=%s/%s", tc.name, model, advName)
				t.Run(name, func(t *testing.T) {
					compareAsync(t, tc.m, tc.g, func() engine.AsyncConfig {
						return engine.AsyncConfig{
							Seed:      uint64(60 + mi),
							Adversary: engine.NamedAdversaries(uint64(70 + mi))[advName],
							MaxSteps:  maxSteps,
							Channel:   model,
						}
					})
				})
			}
		}
		t.Run(tc.name+"/byzantine", func(t *testing.T) {
			compareAsync(t, tc.m, tc.g, func() engine.AsyncConfig {
				return engine.AsyncConfig{
					Seed:      80,
					Adversary: engine.NamedAdversaries(81)["uniform"],
					MaxSteps:  maxSteps,
					Scenario:  byzScenario(),
					Channel:   channel.Reorder{Window: 1, Seed: 82},
				}
			})
		})
	}
}

// TestAsyncReorderWindowWidens pins *when* the async overtake counter
// fires, which the robustness matrix previously only noted in prose.
// Under the self-pacing α-synchronizer a bounded window (2 time units)
// never materializes an overtake — the per-edge send gap grows faster
// than the extra delay — so Reordered stays 0 while the new Delayed
// counter proves the model kept attempting: a live model and a dead one
// are no longer indistinguishable. Widen the window past the send gap
// and the same run starts recording real overtakes.
func TestAsyncReorderWindowWidens(t *testing.T) {
	compiled, err := synchro.CompileRound(ssmis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(35))
	run := func(window float64) *engine.AsyncResult {
		t.Helper()
		res, err := engine.RunAsync(compiled, g, engine.AsyncConfig{
			Seed: 9, MaxSteps: 1 << 20,
			Adversary: engine.NamedAdversaries(10)["uniform"],
			Channel:   channel.Reorder{Window: window, Seed: 37},
		})
		if err != nil {
			t.Fatalf("window %g: %v", window, err)
		}
		return res
	}
	bounded := run(2)
	if bounded.Delayed == 0 {
		t.Fatal("window 2: Delayed = 0, the model never ran")
	}
	if bounded.Reordered != 0 {
		t.Fatalf("window 2: Reordered = %d, want 0 (self-pacing absorbs bounded windows)", bounded.Reordered)
	}
	widened := run(512)
	if widened.Delayed == 0 {
		t.Fatal("window 512: Delayed = 0, the model never ran")
	}
	if widened.Reordered == 0 {
		t.Fatal("window 512: Reordered = 0, want overtakes once the window outgrows the send gap")
	}
}

// TestChannelDropAllTerminates pins the livelock edge case: a channel
// that loses every transmission must end in ErrNoConvergence when the
// budget runs out — identically on both engines, never by hanging.
func TestChannelDropAllTerminates(t *testing.T) {
	g := graph.Cycle(8)
	black := channel.Drop{Rate: 1, Seed: 5}
	t.Run("sync", func(t *testing.T) {
		_, err := engine.RunSync(mis.Protocol(), g, engine.SyncConfig{
			Seed: 1, MaxRounds: 256, Channel: black,
		})
		if !errors.Is(err, engine.ErrNoConvergence) {
			t.Fatalf("err = %v, want ErrNoConvergence", err)
		}
		compareSync(t, mis.Protocol(), g, engine.SyncConfig{Seed: 1, MaxRounds: 256, Channel: black})
	})
	t.Run("async", func(t *testing.T) {
		compiled, err := synchro.CompileRound(mis.Protocol())
		if err != nil {
			t.Fatal(err)
		}
		cfg := func() engine.AsyncConfig {
			return engine.AsyncConfig{
				Seed: 1, MaxSteps: 1 << 12, Channel: black,
				Adversary: engine.NamedAdversaries(2)["uniform"],
			}
		}
		if _, err := engine.RunAsync(compiled, g, cfg()); !errors.Is(err, engine.ErrNoConvergence) {
			t.Fatalf("err = %v, want ErrNoConvergence", err)
		}
		compareAsync(t, compiled, g, cfg)
	})
}

// TestAsyncChannelDupInvisible pins the duplicate edge case: a
// Duplicate-only model keeps per-edge FIFO order, and because duplicate
// copies share their fate they land back-to-back on an overwrite-only
// port — so the run's States must be exactly the reliable baseline's,
// with only the loss accounting (overwritten copies) and the Duplicated
// counter changed.
func TestAsyncChannelDupInvisible(t *testing.T) {
	compiled, err := synchro.CompileRound(ssmis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(35))
	cfg := func(m channel.Model) engine.AsyncConfig {
		return engine.AsyncConfig{
			Seed: 9, MaxSteps: 1 << 20, Channel: m,
			Adversary: engine.NamedAdversaries(10)["uniform"],
		}
	}
	base, err := engine.RunAsync(compiled, g, cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	dup := channel.Duplicate{Rate: 0.5, MaxCopies: 4, Seed: 36}
	got, err := engine.RunAsync(compiled, g, cfg(dup))
	if err != nil {
		t.Fatal(err)
	}
	if got.Duplicated == 0 {
		t.Fatal("Duplicate model created no copies; the test exercises nothing")
	}
	if got.Steps != base.Steps || got.Time != base.Time {
		t.Errorf("(Steps, Time) = (%d, %v), baseline (%d, %v): duplication changed the execution",
			got.Steps, got.Time, base.Steps, base.Time)
	}
	for v := range base.States {
		if got.States[v] != base.States[v] {
			t.Fatalf("state of node %d diverged under duplication: FIFO dup copies must be invisible", v)
		}
	}
	compareAsync(t, compiled, g, func() engine.AsyncConfig { return cfg(dup) })
}

// TestChannelByzantineAccounting pins the metric contract: Byzantine
// nodes step and transmit (they are part of the load) but are excluded
// from the output-configuration target, so a run with a Byzantine node
// converges on the honest nodes alone.
func TestChannelByzantineAccounting(t *testing.T) {
	g := graph.Cycle(8)
	sc := &scenario.Scenario{
		Reset:     scenario.ResetNone,
		Byzantine: []channel.ByzNode{channel.RandomBabbler(3, 7)},
	}
	res, err := engine.RunSync(ssmis.Protocol(), g, engine.SyncConfig{
		Seed: 2, MaxRounds: 1 << 12, Scenario: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transmissions == 0 {
		t.Fatal("no transmissions recorded")
	}
	m := ssmis.Protocol()
	if m.IsOutput(res.States[3]) {
		t.Errorf("byzantine node 3 reached output state %d; it must never run the machine", res.States[3])
	}
	for v := range res.States {
		if v == 3 {
			continue
		}
		if !m.IsOutput(res.States[v]) {
			t.Errorf("honest node %d not in an output state at termination", v)
		}
	}
}
