package engine_test

// The differential determinism suite: the compiled executor (Compile →
// Program.RunSync, at every worker count) must be bit-identical to the
// reference engine RunSyncRef on every protocol kind the compiler
// distinguishes — fully tabulated tables (literal single-query protocols
// and multi-letter round protocols alike), and both dynamic fallbacks
// (pure RoundProtocol and the lazily-interning synchro machines). This is the observational
// equivalence that licenses the representation swap.

import (
	"fmt"
	"testing"

	"stoneage/internal/coloring"
	"stoneage/internal/degcolor"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// diffCase is one (protocol, graph) cell of the matrix.
type diffCase struct {
	name string
	m    nfsm.Machine
	g    *graph.Graph
}

// flood is a literal single-query Protocol (tabulated): sources
// flood a PING wave with a random two-way branch so several moves per
// row are exercised.
func flood() *nfsm.Protocol {
	stay := func(q nfsm.State) []nfsm.Move { return []nfsm.Move{{Next: q, Emit: nfsm.NoLetter}} }
	return &nfsm.Protocol{
		Name:        "flood",
		StateNames:  []string{"idle", "hot", "done"},
		LetterNames: []string{"ping", "quiet"},
		Input:       []nfsm.State{1},
		Output:      []bool{false, false, true},
		Initial:     1,
		B:           2,
		Query:       []nfsm.Letter{0, 0, 0},
		Delta: [][][]nfsm.Move{
			{stay(0), {{Next: 2, Emit: 0}, {Next: 0, Emit: nfsm.NoLetter}}, {{Next: 2, Emit: 0}}},
			{{{Next: 2, Emit: 0}}, {{Next: 2, Emit: 0}}, {{Next: 2, Emit: 0}}},
			{stay(2), stay(2), stay(2)},
		},
	}
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	expanded, err := synchro.Expand(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	degProto, err := degcolor.Protocol(4)
	if err != nil {
		t.Fatal(err)
	}
	return []diffCase{
		{"mis/gnp", mis.Protocol(), graph.GnpConnected(600, 4.0/600, xrand.New(1))},
		{"mis/clique", mis.Protocol(), graph.Clique(24)},
		{"mis/cycle", mis.Protocol(), graph.Cycle(97)},
		{"coloring/tree", coloring.Protocol(), graph.RandomTree(300, xrand.New(2))},
		{"coloring/caterpillar", coloring.Protocol(), graph.Path(64)},
		{"degcolor/torus", degProto, graph.Torus(8, 8)},
		{"expanded-mis/gnp", expanded, graph.GnpConnected(48, 0.12, xrand.New(3))},
		{"flood/gnp", flood(), graph.GnpConnected(256, 6.0/256, xrand.New(4))},
		{"flood/star", flood(), graph.Star(33)},
	}
}

// TestDifferentialSyncEngines checks byte-identical States, Rounds and
// Transmissions between the reference engine and the compiled executor
// across the (protocol, graph, seed, workers) matrix.
func TestDifferentialSyncEngines(t *testing.T) {
	for _, tc := range diffCases(t) {
		for _, seed := range []uint64{1, 42} {
			ref, err := engine.RunSyncRef(tc.m, tc.g, engine.SyncConfig{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: reference engine: %v", tc.name, seed, err)
			}
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/seed=%d/workers=%d", tc.name, seed, workers)
				t.Run(name, func(t *testing.T) {
					got, err := engine.Compile(tc.m, tc.g).RunSync(engine.SyncConfig{Seed: seed, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if got.Rounds != ref.Rounds {
						t.Errorf("Rounds = %d, reference %d", got.Rounds, ref.Rounds)
					}
					if got.Transmissions != ref.Transmissions {
						t.Errorf("Transmissions = %d, reference %d", got.Transmissions, ref.Transmissions)
					}
					for v := range ref.States {
						if got.States[v] != ref.States[v] {
							t.Fatalf("state of node %d = %d, reference %d", v, got.States[v], ref.States[v])
						}
					}
				})
			}
		}
	}
}

// TestWorkerCountInvariance runs the compiled executor at several worker
// counts (including counts that do not divide n) and demands identical
// results: the sharded two-phase barrier must not leak evaluation order
// into the execution.
func TestWorkerCountInvariance(t *testing.T) {
	g := graph.GnpConnected(1000, 5.0/1000, xrand.New(9))
	prog := engine.Compile(mis.Protocol(), g)
	base, err := prog.RunSync(engine.SyncConfig{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		res, err := prog.RunSync(engine.SyncConfig{Seed: 7, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Rounds != base.Rounds || res.Transmissions != base.Transmissions {
			t.Fatalf("workers=%d: (rounds, tx) = (%d, %d), want (%d, %d)",
				workers, res.Rounds, res.Transmissions, base.Rounds, base.Transmissions)
		}
		for v := range base.States {
			if res.States[v] != base.States[v] {
				t.Fatalf("workers=%d: state of node %d diverged", workers, v)
			}
		}
	}
}

// TestDifferentialAsyncEngines checks byte-identical results between
// the reference asynchronous engine (the seed implementation, kept as
// RunAsyncRef) and the compiled executor across protocols, adversaries
// and seeds: Time, TimeUnits, Steps, Transmissions, Lost and States
// must all agree exactly.
func TestDifferentialAsyncEngines(t *testing.T) {
	expanded, err := synchro.Expand(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	compiledMIS, err := synchro.CompileRound(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	cases := []diffCase{
		{"flood/gnp", flood(), graph.GnpConnected(128, 5.0/128, xrand.New(21))},
		{"expanded-mis/gnp", expanded, graph.GnpConnected(32, 0.15, xrand.New(22))},
		{"compiled-mis/cycle", compiledMIS, graph.Cycle(16)},
	}
	for _, tc := range cases {
		for _, advName := range []string{"sync", "uniform", "skew", "drift"} {
			for _, seed := range []uint64{3, 19} {
				name := fmt.Sprintf("%s/%s/seed=%d", tc.name, advName, seed)
				t.Run(name, func(t *testing.T) {
					mkAdv := func() engine.Adversary { return engine.NamedAdversaries(seed + 100)[advName] }
					// Bound the budget so the slow (expanded × adversary)
					// cells stay fast; a budget miss must then be
					// reproduced verbatim by the compiled engine.
					const maxSteps = 1 << 20
					ref, refErr := engine.RunAsyncRef(tc.m, tc.g, engine.AsyncConfig{Seed: seed, Adversary: mkAdv(), MaxSteps: maxSteps})
					got, gotErr := engine.RunAsync(tc.m, tc.g, engine.AsyncConfig{Seed: seed, Adversary: mkAdv(), MaxSteps: maxSteps})
					if refErr != nil || gotErr != nil {
						if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
							t.Fatalf("error mismatch:\nreference: %v\ncompiled:  %v", refErr, gotErr)
						}
						return
					}
					if got.Time != ref.Time || got.TimeUnits != ref.TimeUnits {
						t.Errorf("(Time, TimeUnits) = (%v, %v), reference (%v, %v)",
							got.Time, got.TimeUnits, ref.Time, ref.TimeUnits)
					}
					if got.Steps != ref.Steps || got.Transmissions != ref.Transmissions || got.Lost != ref.Lost {
						t.Errorf("(Steps, Tx, Lost) = (%d, %d, %d), reference (%d, %d, %d)",
							got.Steps, got.Transmissions, got.Lost, ref.Steps, ref.Transmissions, ref.Lost)
					}
					for v := range ref.States {
						if got.States[v] != ref.States[v] {
							t.Fatalf("state of node %d = %d, reference %d", v, got.States[v], ref.States[v])
						}
					}
				})
			}
		}
	}
}

// TestDifferentialObserverStream checks that the compiled executor calls
// the observer on exactly the same round boundaries with the same state
// vectors as the reference engine.
func TestDifferentialObserverStream(t *testing.T) {
	g := graph.GnpConnected(128, 5.0/128, xrand.New(11))
	record := func(run func(cfg engine.SyncConfig) error) []nfsm.State {
		var stream []nfsm.State
		err := run(engine.SyncConfig{Seed: 3, Observer: func(round int, states []nfsm.State) {
			stream = append(stream, states...)
		}})
		if err != nil {
			t.Fatal(err)
		}
		return stream
	}
	ref := record(func(cfg engine.SyncConfig) error {
		_, err := engine.RunSyncRef(mis.Protocol(), g, cfg)
		return err
	})
	for _, workers := range []int{1, 4} {
		workers := workers
		got := record(func(cfg engine.SyncConfig) error {
			cfg.Workers = workers
			_, err := engine.RunSync(mis.Protocol(), g, cfg)
			return err
		})
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: observer saw %d states, reference %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: observer stream diverged at offset %d", workers, i)
			}
		}
	}
}
