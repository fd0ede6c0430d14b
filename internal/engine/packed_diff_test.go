package engine_test

// The packed-vs-flat differential wall: the bit-plane backend must be
// bit-identical to the flat executor — same Rounds, Transmissions,
// decoded States, observer streams, and error strings — across
// protocols × graph families × worker counts, on both Graph-bound and
// CSR-only (streamed) bindings. This is the acceptance criterion of
// the bit-plane PR, the packed analogue of TestDifferentialSyncEngines.

import (
	"fmt"
	"reflect"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/coloring"
	"stoneage/internal/degcolor"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/ssmis"
	"stoneage/internal/xrand"
)

// packedDiffCases is the protocols × families matrix, all at n ≤ 512.
// Every machine here is packed-eligible (asserted by the test).
func packedDiffCases(t *testing.T) []diffCase {
	t.Helper()
	degProto, err := degcolor.Protocol(4)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := graph.ToGraph(graph.RandomGeometricStream(200, graph.GeometricRadius(200, 1.5), 11))
	if err != nil {
		t.Fatal(err)
	}
	return []diffCase{
		{"mis/gnp", mis.Protocol(), graph.GnpConnected(512, 4.0/512, xrand.New(1))},
		{"mis/cycle", mis.Protocol(), graph.Cycle(97)},
		{"mis/clique", mis.Protocol(), graph.Clique(24)},
		{"mis/star", mis.Protocol(), graph.Star(65)},
		{"mis/geo", mis.Protocol(), geo},
		{"mis/tiny", mis.Protocol(), graph.Path(3)},
		{"mis/singleton", mis.Protocol(), graph.New(1)},
		{"ssmis/gnp", ssmis.Protocol(), graph.GnpConnected(300, 5.0/300, xrand.New(2))},
		{"ssmis/torus", ssmis.Protocol(), graph.Torus(8, 8)},
		{"degcolor/torus", degProto, graph.Torus(8, 8)},
		{"degcolor/tree", degProto, graph.RandomTree(257, xrand.New(3))},
		{"flood/gnp", flood(), graph.GnpConnected(256, 6.0/256, xrand.New(4))},
		{"flood/star", flood(), graph.Star(33)},
	}
}

// TestDifferentialPackedSync compares the packed backend against the
// flat executor across the matrix, at worker counts that split the
// word space unevenly, on both binding paths.
func TestDifferentialPackedSync(t *testing.T) {
	for _, tc := range packedDiffCases(t) {
		code := engine.CompileMachine(tc.m)
		if !code.PackedEligible() {
			t.Fatalf("%s: machine unexpectedly not packed-eligible", tc.name)
		}
		for _, seed := range []uint64{1, 42} {
			flat, flatErr := code.Bind(tc.g).RunSync(engine.SyncConfig{Seed: seed, Backend: engine.BackendFlat})
			for _, workers := range []int{1, 2, 3, 7} {
				name := fmt.Sprintf("%s/seed=%d/workers=%d", tc.name, seed, workers)
				t.Run(name, func(t *testing.T) {
					got, err := code.Bind(tc.g).RunSync(engine.SyncConfig{Seed: seed, Workers: workers, Backend: engine.BackendPacked})
					comparePackedRun(t, flat, flatErr, got, err)
					// The CSR-only binding must behave identically.
					got2, err2 := code.BindCSR(tc.g.CSR()).RunSync(engine.SyncConfig{Seed: seed, Workers: workers, Backend: engine.BackendPacked})
					comparePackedRun(t, flat, flatErr, got2, err2)
				})
			}
		}
	}
}

// TestPackedSinkStatesMIS pins the sink sets the bit-plane kernel
// derives from the paper's protocols: exactly the absorbing outputs WIN
// and LOSE for mis, and none for ssmis, whose outputs stay reactive.
func TestPackedSinkStatesMIS(t *testing.T) {
	if got := engine.SinkStates(engine.CompileMachine(mis.Protocol())); !reflect.DeepEqual(got, []nfsm.State{mis.Win, mis.Lose}) {
		t.Errorf("mis sink states = %v, want [WIN LOSE] = %v", got, []nfsm.State{mis.Win, mis.Lose})
	}
	if got := engine.SinkStates(engine.CompileMachine(ssmis.Protocol())); len(got) != 0 {
		t.Errorf("ssmis sink states = %v, want none", got)
	}
}

// TestDifferentialPackedStreamedAuto runs the paper's MIS and the
// self-stabilizing MIS at the auto-selection threshold on streamed
// CSR-only G(n, 4/n) graphs: the empty backend, which must pick the
// bit-plane kernel there, against the forced flat kernel, at one and
// three workers. At this size most nodes end in a sink long before the
// run does, so the skipped deliveries are exercised at scale.
func TestDifferentialPackedStreamedAuto(t *testing.T) {
	const n = 1 << 16
	for _, m := range []*nfsm.RoundProtocol{mis.Protocol(), ssmis.Protocol()} {
		code := engine.CompileMachine(m)
		csr, err := graph.BuildCSR(graph.GnpConnectedStream(n, 4.0/n, 3))
		if err != nil {
			t.Fatal(err)
		}
		prog := code.BindCSR(csr)
		if !engine.AutoPacked(prog) {
			t.Fatalf("%s: the empty backend does not select packed at n = %d", m.Name, n)
		}
		flat, flatErr := prog.RunSync(engine.SyncConfig{Seed: 7, Workers: 1, Backend: engine.BackendFlat})
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", m.Name, workers), func(t *testing.T) {
				got, err := prog.RunSync(engine.SyncConfig{Seed: 7, Workers: workers})
				comparePackedRun(t, flat, flatErr, got, err)
			})
		}
	}
}

func comparePackedRun(t *testing.T, want *engine.SyncResult, wantErr error, got *engine.SyncResult, gotErr error) {
	t.Helper()
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error mismatch: flat %v, packed %v", wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error string mismatch: flat %q, packed %q", wantErr, gotErr)
		}
		return
	}
	if got.Rounds != want.Rounds {
		t.Errorf("Rounds = %d, flat %d", got.Rounds, want.Rounds)
	}
	if got.Transmissions != want.Transmissions {
		t.Errorf("Transmissions = %d, flat %d", got.Transmissions, want.Transmissions)
	}
	for v := range want.States {
		if got.States[v] != want.States[v] {
			t.Fatalf("state of node %d = %d, flat %d", v, got.States[v], want.States[v])
		}
	}
}

// TestPackedObserverStream compares the per-round observer state
// streams of the two backends: the packed backend must present the
// same decoded state vector after every round, not only at the end.
func TestPackedObserverStream(t *testing.T) {
	g := graph.GnpConnected(300, 4.0/300, xrand.New(5))
	code := engine.CompileMachine(mis.Protocol())
	record := func(backend string, workers int) [][]nfsm.State {
		var rounds [][]nfsm.State
		_, err := code.Bind(g).RunSync(engine.SyncConfig{
			Seed: 9, Workers: workers, Backend: backend,
			Observer: func(round int, states []nfsm.State) {
				cp := make([]nfsm.State, len(states))
				copy(cp, states)
				rounds = append(rounds, cp)
			},
		})
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		return rounds
	}
	want := record(engine.BackendFlat, 1)
	for _, workers := range []int{1, 3} {
		got := record(engine.BackendPacked, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: observed %d rounds, flat %d", workers, len(got), len(want))
		}
		for r := range want {
			for v := range want[r] {
				if got[r][v] != want[r][v] {
					t.Fatalf("workers=%d round %d node %d: state %d, flat %d", workers, r+1, v, got[r][v], want[r][v])
				}
			}
		}
	}
}

// TestPackedNoConvergence checks the error path: a run that cannot
// converge must fail with the same error string as the flat executor,
// even though the packed backend detects the frozen configuration
// early instead of spinning out the round budget.
func TestPackedNoConvergence(t *testing.T) {
	// A 4-cycle under MIS with a tiny round budget converges too slowly
	// at some seeds; force the issue with MaxRounds 1 on a graph MIS
	// cannot finish in one round.
	g := graph.Cycle(64)
	code := engine.CompileMachine(mis.Protocol())
	_, flatErr := code.Bind(g).RunSync(engine.SyncConfig{Seed: 1, MaxRounds: 1, Backend: engine.BackendFlat})
	_, packedErr := code.Bind(g).RunSync(engine.SyncConfig{Seed: 1, MaxRounds: 1, Backend: engine.BackendPacked})
	if flatErr == nil || packedErr == nil {
		t.Fatalf("expected both to fail: flat %v, packed %v", flatErr, packedErr)
	}
	if flatErr.Error() != packedErr.Error() {
		t.Fatalf("error mismatch: flat %q, packed %q", flatErr, packedErr)
	}
}

// TestPackedBackendErrors pins the explicit-backend error paths: an
// ineligible machine, an unknown backend name, and a scenario or channel
// run under a forced packed backend must all fail loudly rather than
// silently fall back. The backend is validated in one place, so each
// fault fails with one message whatever the run's shape.
func TestPackedBackendErrors(t *testing.T) {
	g := graph.Path(8)
	// coloring stays dynamic (269·4¹² domain): not packed-eligible.
	code := engine.CompileMachine(coloring.Protocol())
	if code.PackedEligible() {
		t.Fatal("coloring protocol unexpectedly packed-eligible")
	}
	if _, err := code.Bind(g).RunSync(engine.SyncConfig{Backend: engine.BackendPacked}); err == nil {
		t.Error("packed backend accepted an ineligible machine")
	}
	misCode := engine.CompileMachine(mis.Protocol())
	_, unknownErr := misCode.Bind(g).RunSync(engine.SyncConfig{Backend: "simd"})
	if unknownErr == nil {
		t.Fatal("unknown backend name accepted")
	}
	crash := &scenario.Scenario{Reset: scenario.ResetNone, Batches: []scenario.Batch{
		{At: 1, Muts: []graph.Mutation{{Kind: graph.MutCrashNode, U: 0}}},
	}}
	drop := channel.Drop{Rate: 0.1, Seed: 1}
	_, scenarioErr := misCode.Bind(g).RunSync(engine.SyncConfig{Backend: engine.BackendPacked, Scenario: crash})
	_, channelErr := misCode.Bind(g).RunSync(engine.SyncConfig{Backend: engine.BackendPacked, Channel: drop})
	if scenarioErr == nil || channelErr == nil {
		t.Fatalf("packed backend accepted a dynamic run: scenario %v, channel %v", scenarioErr, channelErr)
	}
	if scenarioErr.Error() != channelErr.Error() {
		t.Errorf("packed rejections differ:\nscenario: %v\nchannel:  %v", scenarioErr, channelErr)
	}
	_, unknownScenarioErr := misCode.Bind(g).RunSync(engine.SyncConfig{Backend: "simd", Scenario: crash})
	if unknownScenarioErr == nil || unknownScenarioErr.Error() != unknownErr.Error() {
		t.Errorf("unknown backend with a scenario: %v, want %v", unknownScenarioErr, unknownErr)
	}
}
