package engine_test

// The dynamic-network differential suite: the compiled executors with a
// scenario (the scenario hooks inside Program.RunSyncReusing's round
// loop and Program.RunAsyncReusing's event loop) must be
// bit-identical to the reference engines RunSyncRef / RunAsyncRef on
// every (machine, graph, scenario, seed) cell — rounds/times, counts,
// states, perturbation log, recovery metrics and the final graph. The
// fuzz targets in fuzz_test.go extend the same comparison to arbitrary
// machines and scenarios.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// dynDefs spans every scenario kind and reset policy the generators
// produce (reset must be concrete at engine level).
func dynDefs() []scenario.Def {
	return []scenario.Def{
		{Kind: "none"},
		{Kind: "crash", Frac: 0.3, At: scenario.Round(3), Every: 6, Reset: "none"},
		{Kind: "crash", Frac: 0.5, At: scenario.Round(2), Every: 4, Reset: "all"},
		{Kind: "churn", Rate: 2, Count: 3, At: scenario.Round(2), Every: 5, Reset: "touched"},
		{Kind: "churn", Rate: 3, Count: 2, At: scenario.Round(1), Every: 7, Reset: "neighborhood"},
		{Kind: "churn", Rate: 1, Count: 4, At: scenario.Round(4), Every: 4, Reset: "all"},
		{Kind: "wake", Frac: 0.25, Count: 3, At: scenario.Round(2), Every: 3, Reset: "none"},
		{Kind: "wake", Frac: 0.5, Count: 2, At: scenario.Round(1), Every: 6, Reset: "touched"},
	}
}

func dynGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(9),
		graph.Cycle(12),
		graph.Star(8),
		graph.Gnp(24, 0.15, xrand.New(5)),
		graph.GnpConnected(32, 4.0/32, xrand.New(9)),
	}
}

func sameStates(a, b []nfsm.State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameGraph(a, b *graph.Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// TestDifferentialDynamicSync compares the compiled dynamic executor
// with the dynamic reference engine across machines, graphs, scenarios
// and seeds.
func TestDifferentialDynamicSync(t *testing.T) {
	machines := []nfsm.Machine{mis.Protocol(), flood()}
	for _, m := range machines {
		for gi, g0 := range dynGraphs() {
			for di, def := range dynDefs() {
				for seed := uint64(1); seed <= 3; seed++ {
					sc, err := def.Generate(g0, seed*31+uint64(di))
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%T/g%d/%s-%s/seed%d", m, gi, def.Name(), def.Reset, seed)
					cfg := engine.SyncConfig{Seed: seed, MaxRounds: 512, Scenario: sc}
					ref, refErr := engine.RunSyncRef(m, g0, cfg)
					got, gotErr := engine.RunSync(m, g0, cfg)
					if refErr != nil || gotErr != nil {
						if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
							t.Fatalf("%s: error mismatch:\nreference: %v\ncompiled:  %v", name, refErr, gotErr)
						}
						continue
					}
					if got.Rounds != ref.Rounds || got.Transmissions != ref.Transmissions ||
						got.RecoveryRounds != ref.RecoveryRounds {
						t.Fatalf("%s: (rounds, tx, recovery) = (%d, %d, %d), reference (%d, %d, %d)",
							name, got.Rounds, got.Transmissions, got.RecoveryRounds,
							ref.Rounds, ref.Transmissions, ref.RecoveryRounds)
					}
					if len(got.PerturbedAt) != len(ref.PerturbedAt) {
						t.Fatalf("%s: %d perturbations, reference %d", name, len(got.PerturbedAt), len(ref.PerturbedAt))
					}
					for i := range got.PerturbedAt {
						if got.PerturbedAt[i] != ref.PerturbedAt[i] {
							t.Fatalf("%s: perturbation %d at round %d, reference %d",
								name, i, got.PerturbedAt[i], ref.PerturbedAt[i])
						}
					}
					if !sameStates(got.States, ref.States) {
						t.Fatalf("%s: final states diverge", name)
					}
					if !sameGraph(got.FinalGraph, ref.FinalGraph) {
						t.Fatalf("%s: final graphs diverge", name)
					}
					if !sc.Empty() {
						if err := got.FinalGraph.Validate(); err != nil {
							t.Fatalf("%s: final graph invalid: %v", name, err)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialDynamicAsync does the same for the asynchronous
// executors, across the adversary suite.
func TestDifferentialDynamicAsync(t *testing.T) {
	machines := []nfsm.Machine{mis.Protocol(), flood()}
	advNames := []string{"sync", "uniform", "skew", "drift"}
	for _, m := range machines {
		for gi, g0 := range dynGraphs()[:3] {
			for di, def := range dynDefs() {
				seed := uint64(7 + di)
				sc, err := def.Generate(g0, seed)
				if err != nil {
					t.Fatal(err)
				}
				advName := advNames[(gi+di)%len(advNames)]
				name := fmt.Sprintf("%T/g%d/%s-%s/%s", m, gi, def.Name(), def.Reset, advName)
				diffDynamicAsync(t, name, m, g0, dynCfg(seed, advName, sc, 1<<16))
			}
		}
	}
}

// TestDifferentialDynamicAsyncAlpha runs the α-synchronized MIS machine,
// whose silent pause chains the fast executor parks, through every
// scenario def under the TieFree adversaries, so parking meets every
// batch kind. Skew and overwriter give nodes constant step lengths,
// whose steps tie at exact times; the hand-written scenario makes
// chains of equal length begin at the initial pushes, at batches at
// time 0, at two batches sharing a time, and at a restart that follows
// a crash in the same batch. A variant adds Byzantine nodes, which
// never park, and a channel variant runs that under the hostile stack.
func TestDifferentialDynamicAsyncAlpha(t *testing.T) {
	m, err := synchro.CompileRound(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	crash := func(v int) graph.Mutation { return graph.Mutation{Kind: graph.MutCrashNode, U: v} }
	restart := func(v int) graph.Mutation { return graph.Mutation{Kind: graph.MutRestartNode, U: v} }
	wake := func(v int) graph.Mutation { return graph.Mutation{Kind: graph.MutWakeNode, U: v} }
	ties := &scenario.Scenario{Name: "ties", Reset: scenario.ResetTouched, Asleep: []int{3, 5, 7, 9}, Batches: []scenario.Batch{
		{At: 0, Muts: []graph.Mutation{wake(3)}},
		{At: 0, Muts: []graph.Mutation{wake(5)}},
		{At: 2, Muts: []graph.Mutation{wake(7), crash(1)}},
		{At: 2, Muts: []graph.Mutation{wake(9), crash(11)}},
		{At: 4, Muts: []graph.Mutation{restart(1), restart(11), {Kind: graph.MutAddEdge, U: 0, V: 6}}},
		{At: 4, Muts: []graph.Mutation{crash(1), restart(1)}},
	}}
	// Byzantine nodes never park (they do not run δ), while their
	// honest neighbors do, with or without a channel model.
	byz := *ties
	byz.Name = "ties-byzantine"
	byz.Byzantine = []channel.ByzNode{channel.RandomBabbler(2, 5), channel.Silent(13)}
	// The channel variant runs the voted tier, whose eviction outlasts
	// the silent node, so runs converge and the tie order shows. The
	// tier rejects topological mutations, so the edge insertion goes.
	voted, err := synchro.CompileRoundVoted(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	byzCh := byz
	byzCh.Name = "ties-byzantine-channel"
	byzCh.Batches = nil
	for _, b := range byz.Batches {
		b.Muts = slices.DeleteFunc(slices.Clone(b.Muts), graph.Mutation.Topological)
		byzCh.Batches = append(byzCh.Batches, b)
	}
	// Each case is a parallel subtest: the runs share only the
	// compiled machines, whose state interning is concurrency-safe.
	diff := func(name string, m nfsm.Machine, g0 *graph.Graph, cfg engine.AsyncConfig) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			diffDynamicAsync(t, name, m, g0, cfg)
		})
	}
	for _, advName := range []string{"uniform", "skew", "overwriter"} {
		for gi, g0 := range dynGraphs()[:3] {
			for di, def := range dynDefs() {
				seed := uint64(7 + di)
				sc, err := def.Generate(g0, seed)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("alpha/g%d/%s-%s/%s", gi, def.Name(), def.Reset, advName)
				diff(name, m, g0, dynCfg(seed, advName, sc, 1<<16))
			}
		}
		// Which of two tied steps comes first shows only where the run
		// ends, so the tie cases run to convergence: flood within a few
		// rounds, the α machine under a budget its fast nodes' pause
		// spins fit in.
		for seed := uint64(1); seed <= 4; seed++ {
			for mi, tm := range []nfsm.Machine{m, flood()} {
				diff(fmt.Sprintf("ties/m%d/%s/seed%d", mi, advName, seed), tm, graph.Cycle(16), dynCfg(seed, advName, ties, 1<<20))
			}
			diff(fmt.Sprintf("byzantine/%s/seed%d", advName, seed), m, graph.Cycle(16), dynCfg(seed, advName, &byz, 1<<16))
			// Channel runs park too: the tie keys must hold with drops,
			// duplicates and reorders in flight.
			chCfg := dynCfg(seed, advName, &byzCh, 1<<20)
			chCfg.Channel = stackedChannel(seed)
			chCfg.Voted = &engine.VotedConfig{RePulseSource: voted.RePulseSource}
			diff(fmt.Sprintf("byzantine-channel/%s/seed%d", advName, seed), voted, graph.Cycle(16), chCfg)
			// A Byzantine babbler whose frozen state is flood's idle
			// self-loop: parked, it would never babble.
			cfg := dynCfg(seed, advName, &byz, 1<<16)
			cfg.Init = make([]nfsm.State, 16) // idle
			cfg.Init[0] = 1                   // hot
			diff(fmt.Sprintf("byzantine-idle/%s/seed%d", advName, seed), flood(), graph.Cycle(16), cfg)
		}
	}
}

// dynCfg is the differential suites' asynchronous configuration.
func dynCfg(seed uint64, advName string, sc *scenario.Scenario, maxSteps int64) engine.AsyncConfig {
	return engine.AsyncConfig{
		Seed:      seed,
		Adversary: engine.NamedAdversaries(seed + 3)[advName],
		MaxSteps:  maxSteps,
		Scenario:  sc,
	}
}

// diffDynamicAsync runs machine m on g0 in both asynchronous engines
// and fails unless they agree bit for bit.
func diffDynamicAsync(t *testing.T, name string, m nfsm.Machine, g0 *graph.Graph, cfg engine.AsyncConfig) {
	t.Helper()
	ref, refErr := engine.RunAsyncRef(m, g0, cfg)
	got, gotErr := engine.RunAsync(m, g0, cfg)
	if refErr != nil || gotErr != nil {
		if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error mismatch:\nreference: %v\ncompiled:  %v", name, refErr, gotErr)
		}
		return
	}
	sameAsyncResult(t, name, got, ref)
}

// TestAsyncBatchStartsOnce pins a batch that starts a node more than
// once, or starts it and then crashes it. Each (re)start must leave the
// node with exactly one step stream, and only when it is awake at the
// end of the batch. An Observer records every step of both engines.
// Per node, step indices rise strictly, step t lands exactly
// StepLength(v, t) after the node's previous step (or after the batch
// that started it), and no step is taken while the node is crashed or
// asleep.
func TestAsyncBatchStartsOnce(t *testing.T) {
	crash := func(v int) graph.Mutation { return graph.Mutation{Kind: graph.MutCrashNode, U: v} }
	restart := func(v int) graph.Mutation { return graph.Mutation{Kind: graph.MutRestartNode, U: v} }
	wake := func(v int) graph.Mutation { return graph.Mutation{Kind: graph.MutWakeNode, U: v} }
	for _, sc := range []*scenario.Scenario{
		{Name: "restart-crash-restart", Reset: scenario.ResetNone, Batches: []scenario.Batch{
			{At: 2, Muts: []graph.Mutation{crash(2)}},
			{At: 4, Muts: []graph.Mutation{restart(2), crash(2), restart(2)}},
		}},
		{Name: "restart-crash", Reset: scenario.ResetNone, Batches: []scenario.Batch{
			{At: 2, Muts: []graph.Mutation{crash(2)}},
			{At: 4, Muts: []graph.Mutation{restart(2), crash(2)}},
		}},
		{Name: "wake-crash-restart", Reset: scenario.ResetNone, Asleep: []int{4}, Batches: []scenario.Batch{
			{At: 3, Muts: []graph.Mutation{wake(4), crash(4), restart(4)}},
		}},
	} {
		g := graph.Cycle(6)
		n := g.N()
		// awakeAt replays the liveness schedule: a batch applies before
		// every event at or after its time.
		awakeAt := func(v int, at float64) bool {
			live := scenario.NewLiveness(n, sc.Asleep)
			for _, b := range sc.Batches {
				if b.At > at {
					break
				}
				for _, m := range b.Muts {
					if _, err := live.Apply(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			return live.Awake(v)
		}
		// startAt is the latest batch at or before `at` that (re)starts v.
		startAt := func(v int, at float64) float64 {
			s := 0.0
			for _, b := range sc.Batches {
				for _, m := range b.Muts {
					if b.At <= at && m.U == v && (m.Kind == graph.MutRestartNode || m.Kind == graph.MutWakeNode) {
						s = b.At
					}
				}
			}
			return s
		}
		for _, advName := range []string{"sync", "uniform"} {
			for engName, run := range map[string]func(nfsm.Machine, *graph.Graph, engine.AsyncConfig) (*engine.AsyncResult, error){
				"RunAsync":    engine.RunAsync,
				"RunAsyncRef": engine.RunAsyncRef,
			} {
				name := fmt.Sprintf("%s/%s/%s", sc.Name, advName, engName)
				adv := engine.NamedAdversaries(5)[advName]
				lastIdx := make([]int, n)
				lastAt := make([]float64, n)
				var bad string
				obs := func(at float64, v, step int, _ nfsm.State) {
					if bad != "" {
						return
					}
					prev := lastAt[v]
					if s := startAt(v, at); s > prev {
						prev = s
					}
					switch {
					case !awakeAt(v, at):
						bad = fmt.Sprintf("node %d took step %d at %v while not awake", v, step, at)
					case step <= lastIdx[v]:
						bad = fmt.Sprintf("node %d took step %d at %v after step %d", v, step, at, lastIdx[v])
					case at != prev+adv.StepLength(v, step):
						bad = fmt.Sprintf("node %d took step %d at %v, want %v", v, step, at, prev+adv.StepLength(v, step))
					}
					lastIdx[v], lastAt[v] = step, at
				}
				cfg := engine.AsyncConfig{Seed: 3, Adversary: adv, MaxSteps: 1 << 10, Scenario: sc, Observer: obs}
				if _, err := run(mis.Protocol(), g, cfg); err != nil && !errors.Is(err, engine.ErrNoConvergence) {
					t.Fatalf("%s: %v", name, err)
				}
				if bad != "" {
					t.Errorf("%s: %s", name, bad)
				}
			}
		}
	}
}

// TestDynamicStaticParity pins the empty-scenario case of every entry
// point: a nil, zero or named-but-empty scenario is a static run, bit
// for bit equal to a plain static run of the same engine, with no
// dynamic extras reported.
func TestDynamicStaticParity(t *testing.T) {
	m := mis.Protocol()
	g := graph.GnpConnected(48, 4.0/48, xrand.New(2))
	empties := []*scenario.Scenario{nil, {}, {Name: "noop"}}
	syncEngines := map[string]func(engine.SyncConfig) (*engine.SyncResult, error){
		"RunSync":    func(cfg engine.SyncConfig) (*engine.SyncResult, error) { return engine.RunSync(m, g, cfg) },
		"RunSyncRef": func(cfg engine.SyncConfig) (*engine.SyncResult, error) { return engine.RunSyncRef(m, g, cfg) },
	}
	for name, run := range syncEngines {
		base, err := run(engine.SyncConfig{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range empties {
			got, err := run(engine.SyncConfig{Seed: 9, Scenario: sc})
			if err != nil {
				t.Fatal(err)
			}
			if got.Rounds != base.Rounds || got.Transmissions != base.Transmissions || !sameStates(got.States, base.States) {
				t.Fatalf("%s: scenario %v perturbed a static run", name, sc)
			}
			if got.PerturbedAt != nil || got.FinalGraph != nil || got.RecoveryRounds != 0 {
				t.Fatalf("%s: scenario %v: static run reports dynamic extras", name, sc)
			}
		}
	}
	asyncEngines := map[string]func(engine.AsyncConfig) (*engine.AsyncResult, error){
		"RunAsync":    func(cfg engine.AsyncConfig) (*engine.AsyncResult, error) { return engine.RunAsync(m, g, cfg) },
		"RunAsyncRef": func(cfg engine.AsyncConfig) (*engine.AsyncResult, error) { return engine.RunAsyncRef(m, g, cfg) },
	}
	for name, run := range asyncEngines {
		// The uniform adversary is TieFree, so the fast executor's
		// static run parks; the scenario hooks must leave that intact.
		base, err := run(engine.AsyncConfig{Seed: 9, Adversary: engine.UniformRandom{Seed: 4}})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range empties {
			got, err := run(engine.AsyncConfig{Seed: 9, Adversary: engine.UniformRandom{Seed: 4}, Scenario: sc})
			if err != nil {
				t.Fatal(err)
			}
			if got.Time != base.Time || got.TimeUnits != base.TimeUnits || got.Steps != base.Steps ||
				got.Transmissions != base.Transmissions || got.Lost != base.Lost || !sameStates(got.States, base.States) {
				t.Fatalf("%s: scenario %v perturbed a static run", name, sc)
			}
			if got.PerturbedAt != nil || got.FinalGraph != nil || got.RecoveryTime != 0 ||
				got.RecoveryTimeUnits != 0 || got.Severed != 0 {
				t.Fatalf("%s: scenario %v: static run reports dynamic extras", name, sc)
			}
		}
	}

	// A channel model alone keeps a run static in both environments: the
	// fast and the reference engine, on a graph-bound and on a CSR-only
	// program, accept the run, agree bit for bit, and report no dynamic
	// extras.
	t.Run("channel-only", func(t *testing.T) {
		// A flood wave from node 0: under duplication and reordering every
		// ping still lands, so both environments converge.
		fm := flood()
		init := make([]nfsm.State, g.N())
		init[0] = 1
		code := engine.CompileMachine(fm)
		progs := map[string]*engine.Program{"Bind": code.Bind(g), "BindCSR": code.BindCSR(g.CSR())}
		model := channel.Stack{channel.Duplicate{Rate: 0.3, MaxCopies: 2, Seed: 3}, channel.Reorder{Window: 2, Seed: 4}}

		scfg := engine.SyncConfig{Seed: 9, Init: init, MaxRounds: 1 << 12, Channel: model}
		sref, err := engine.RunSyncRef(fm, g, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if sref.Rounds < 2 || sref.Duplicated == 0 || sref.Delayed == 0 {
			t.Fatalf("channel-only run exercised nothing: %+v", sref)
		}
		if sref.PerturbedAt != nil || sref.FinalGraph != nil {
			t.Fatal("RunSyncRef: channel-only run reports dynamic extras")
		}
		for name, prog := range progs {
			got, err := prog.RunSync(scfg)
			if err != nil {
				t.Fatalf("RunSync on %s: %v", name, err)
			}
			if got.Rounds != sref.Rounds || got.Transmissions != sref.Transmissions || !sameStates(got.States, sref.States) ||
				got.Duplicated != sref.Duplicated || got.Delayed != sref.Delayed || got.Reordered != sref.Reordered {
				t.Fatalf("RunSync on %s diverges from RunSyncRef: %+v vs %+v", name, got, sref)
			}
			if got.PerturbedAt != nil || got.FinalGraph != nil {
				t.Fatalf("RunSync on %s: channel-only run reports dynamic extras", name)
			}
		}

		acfg := func() engine.AsyncConfig {
			return engine.AsyncConfig{Seed: 9, Init: init, Adversary: engine.UniformRandom{Seed: 4}, MaxSteps: 1 << 20, Channel: model}
		}
		aref, err := engine.RunAsyncRef(fm, g, acfg())
		if err != nil {
			t.Fatal(err)
		}
		if aref.PerturbedAt != nil || aref.FinalGraph != nil {
			t.Fatal("RunAsyncRef: channel-only run reports dynamic extras")
		}
		for name, prog := range progs {
			got, err := prog.RunAsync(acfg())
			if err != nil {
				t.Fatalf("RunAsync on %s: %v", name, err)
			}
			if got.Time != aref.Time || got.Steps != aref.Steps || got.Transmissions != aref.Transmissions ||
				!sameStates(got.States, aref.States) || got.Duplicated != aref.Duplicated || got.Reordered != aref.Reordered {
				t.Fatalf("RunAsync on %s diverges from RunAsyncRef", name)
			}
			if got.PerturbedAt != nil || got.FinalGraph != nil {
				t.Fatalf("RunAsync on %s: channel-only run reports dynamic extras", name)
			}
		}
	})
}

// TestAsyncInFlightReAddedEdge pins delivery resolution against the
// topology current at arrival: on the path 0-1-2 with nodes 0 and 2
// flooding, node 0's first ping is in flight (sent at time 1, due at
// time 2) when the edge {0,1} is removed at 1.5. Re-added at 1.75, the
// edge gets a fresh port and the ping lands on it; left removed, the
// ping is severed. Both engines must agree on every count.
func TestAsyncInFlightReAddedEdge(t *testing.T) {
	g := graph.Path(3)
	remove := graph.Mutation{Kind: graph.MutRemoveEdge, U: 0, V: 1}
	add := graph.Mutation{Kind: graph.MutAddEdge, U: 0, V: 1}
	for _, tc := range []struct {
		name    string
		batches []scenario.Batch
		severed int64
	}{
		{"re-added", []scenario.Batch{{At: 1.5, Muts: []graph.Mutation{remove}}, {At: 1.75, Muts: []graph.Mutation{add}}}, 0},
		{"removed", []scenario.Batch{{At: 1.5, Muts: []graph.Mutation{remove}}}, 1},
	} {
		cfg := engine.AsyncConfig{
			Seed:     3,
			Init:     []nfsm.State{1, 0, 1}, // hot, idle, hot
			MaxSteps: 1 << 10,
			Scenario: &scenario.Scenario{Name: tc.name, Reset: scenario.ResetNone, Batches: tc.batches},
		}
		ref, err := engine.RunAsyncRef(flood(), g, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		got, err := engine.RunAsync(flood(), g, cfg)
		if err != nil {
			t.Fatalf("%s: compiled: %v", tc.name, err)
		}
		if ref.Severed != tc.severed {
			t.Fatalf("%s: reference severed %d deliveries, want %d", tc.name, ref.Severed, tc.severed)
		}
		if got.Severed != ref.Severed || got.Lost != ref.Lost || got.Steps != ref.Steps ||
			got.Transmissions != ref.Transmissions || got.Time != ref.Time ||
			got.RecoveryTime != ref.RecoveryTime || !sameStates(got.States, ref.States) ||
			!sameGraph(got.FinalGraph, ref.FinalGraph) {
			t.Fatalf("%s: compiled %+v, reference %+v", tc.name, got, ref)
		}
	}
}

// TestScenarioRejection pins the failure modes both engines must share:
// unresolved auto reset policy and invalid mutation schedules.
func TestScenarioRejection(t *testing.T) {
	m := mis.Protocol()
	g := graph.Path(6)
	bad := []*scenario.Scenario{
		{Reset: scenario.ResetAuto, Batches: []scenario.Batch{{At: 1, Muts: []graph.Mutation{{Kind: graph.MutCrashNode, U: 0}}}}},
		{Reset: scenario.ResetNone, Batches: []scenario.Batch{{At: 1, Muts: []graph.Mutation{{Kind: graph.MutRemoveEdge, U: 0, V: 5}}}}},
		{Reset: scenario.ResetNone, Asleep: []int{99}},
	}
	for i, sc := range bad {
		_, fastErr := engine.RunSync(m, g, engine.SyncConfig{Seed: 1, Scenario: sc})
		_, refErr := engine.RunSyncRef(m, g, engine.SyncConfig{Seed: 1, Scenario: sc})
		if fastErr == nil || refErr == nil {
			t.Fatalf("bad scenario %d accepted (fast=%v ref=%v)", i, fastErr, refErr)
		}
		if fastErr.Error() != refErr.Error() {
			t.Fatalf("bad scenario %d: engines disagree:\nfast: %v\nref:  %v", i, fastErr, refErr)
		}
		_, aFastErr := engine.RunAsync(m, g, engine.AsyncConfig{Seed: 1, Scenario: sc})
		_, aRefErr := engine.RunAsyncRef(m, g, engine.AsyncConfig{Seed: 1, Scenario: sc})
		if aFastErr == nil || aRefErr == nil || aFastErr.Error() != aRefErr.Error() {
			t.Fatalf("bad scenario %d (async): fast=%v ref=%v", i, aFastErr, aRefErr)
		}
	}
}

// TestMISChurnRecovery is the end-to-end acceptance check: MIS under
// Poisson edge churn with the global-reset discipline recovers to a
// valid maximal independent set after every perturbation. The test
// reconstructs the graph timeline from the scenario and asserts, for
// each perturbation, that the next all-output configuration is a valid
// MIS of the graph as it stood at that point.
func TestMISChurnRecovery(t *testing.T) {
	m := mis.Protocol()
	g0 := graph.GnpConnected(40, 4.0/40, xrand.New(21))
	def := scenario.Def{Kind: "churn", Rate: 3, Count: 4, At: scenario.Round(6), Every: 40, Reset: "all"}
	sc, err := def.Generate(g0, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Batches) == 0 {
		t.Fatal("churn generated no batches")
	}

	// Record the full state timeline.
	var timeline [][]nfsm.State
	res, err := engine.RunSync(m, g0, engine.SyncConfig{
		Seed: 5, MaxRounds: 4096, Scenario: sc,
		Observer: func(round int, states []nfsm.State) {
			timeline = append(timeline, append([]nfsm.State(nil), states...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerturbedAt) != len(sc.Batches) {
		t.Fatalf("%d perturbations recorded, want %d", len(res.PerturbedAt), len(sc.Batches))
	}

	// Replay the mutations to know the graph after each batch, and for
	// every perturbation find the next all-output round and validate it
	// as an MIS of the then-current graph.
	gcur := g0.Clone()
	for bi, b := range sc.Batches {
		for _, mu := range b.Muts {
			if err := mu.Apply(gcur); err != nil {
				t.Fatal(err)
			}
		}
		nextPerturb := len(timeline)
		if bi+1 < len(res.PerturbedAt) {
			nextPerturb = res.PerturbedAt[bi+1]
		}
		recovered := false
		for r := res.PerturbedAt[bi]; r < nextPerturb; r++ {
			states := timeline[r] // timeline[r] = states after round r+1
			inSet, err := mis.Extract(states)
			if err != nil {
				continue // not yet an output configuration
			}
			if err := gcur.IsMaximalIndependentSet(inSet); err != nil {
				t.Fatalf("perturbation %d: output configuration at round %d is not an MIS: %v", bi, r+1, err)
			}
			recovered = true
			break
		}
		if !recovered {
			t.Fatalf("perturbation %d (round %d): no valid output configuration before the next perturbation",
				bi, res.PerturbedAt[bi])
		}
	}

	// The final configuration must be an MIS of the final graph.
	finalSet, err := mis.Extract(res.States)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FinalGraph.IsMaximalIndependentSet(finalSet); err != nil {
		t.Fatalf("final configuration is not an MIS of the final graph: %v", err)
	}
	if !sameGraph(res.FinalGraph, gcur) {
		t.Fatal("FinalGraph does not match the replayed mutation sequence")
	}
	if res.RecoveryRounds <= 0 || res.Rounds-res.RecoveryRounds != res.PerturbedAt[len(res.PerturbedAt)-1] {
		t.Fatalf("recovery metric inconsistent: rounds=%d recovery=%d perturbedAt=%v",
			res.Rounds, res.RecoveryRounds, res.PerturbedAt)
	}
}

// TestAsyncMaxStepsAbort pins AsyncConfig.MaxSteps under adversarial
// delays: a machine with an unreachable output state must abort with
// ErrNoConvergence at the budget, identically in both engines, under
// every adversary policy.
func TestAsyncMaxStepsAbort(t *testing.T) {
	stay := func(q nfsm.State) []nfsm.Move { return []nfsm.Move{{Next: q, Emit: 0}} }
	spin := &nfsm.Protocol{
		Name:        "spin",
		StateNames:  []string{"a", "b", "done"},
		LetterNames: []string{"tick"},
		Input:       []nfsm.State{0},
		Output:      []bool{false, false, true},
		Initial:     0,
		B:           1,
		Query:       []nfsm.Letter{0, 0, 0},
		Delta: [][][]nfsm.Move{
			{{{Next: 1, Emit: 0}}, {{Next: 1, Emit: 0}}},
			{{{Next: 0, Emit: 0}}, {{Next: 0, Emit: 0}}},
			{stay(2), stay(2)},
		},
	}
	if err := spin.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.Cycle(8)
	for name := range engine.NamedAdversaries(0) {
		for _, maxSteps := range []int64{1, 64, 1000} {
			mk := func() engine.AsyncConfig {
				return engine.AsyncConfig{
					Seed: 3, Adversary: engine.NamedAdversaries(11)[name], MaxSteps: maxSteps,
				}
			}
			_, gotErr := engine.RunAsync(spin, g, mk())
			_, refErr := engine.RunAsyncRef(spin, g, mk())
			if !errors.Is(gotErr, engine.ErrNoConvergence) {
				t.Fatalf("%s maxSteps=%d: compiled engine returned %v, want ErrNoConvergence", name, maxSteps, gotErr)
			}
			if refErr == nil || gotErr.Error() != refErr.Error() {
				t.Fatalf("%s maxSteps=%d: abort mismatch:\nreference: %v\ncompiled:  %v", name, maxSteps, refErr, gotErr)
			}
		}
	}
}
