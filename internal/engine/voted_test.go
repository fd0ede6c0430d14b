package engine_test

// Executor-level tests for the voted synchronizer tier (αβv): the
// ladder/reference differential wall over every channel model, the
// k=1 degeneracy to the αβ hybrid, time-unit preservation on reliable
// links, Byzantine-silence eviction, the adaptive-backoff saving, and
// the topological-mutation rejection. The decoder's receipt-level
// contract is pinned in voted_internal_test.go.

import (
	"fmt"
	"strings"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/ssmis"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// TestDifferentialAsyncVoted extends the channel differential wall to
// the voted tier: the ladder and the reference must stay bit-identical
// on every model, adversary, vote threshold, and under Byzantine
// nodes — including the voted counters and the evicted-edge list.
func TestDifferentialAsyncVoted(t *testing.T) {
	votedMIS, err := synchro.CompileRoundVoted(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	votedSS, err := synchro.CompileRoundVoted(ssmis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *synchro.Compiled
		g    *graph.Graph
	}{
		{"voted-ssmis/gnp", votedSS, graph.GnpConnected(24, 0.2, xrand.New(34))},
		{"voted-mis/cycle", votedMIS, graph.Cycle(12)},
	}
	const maxSteps = 1 << 17
	for _, tc := range cases {
		for mi, model := range channelModels() {
			for _, advName := range []string{"uniform", "skew"} {
				for _, k := range []int{1, 2, 3} {
					name := fmt.Sprintf("%s/model=%s/%s/k=%d", tc.name, model, advName, k)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						compareAsyncVoted(t, tc.m, tc.g, func() engine.AsyncConfig {
							return engine.AsyncConfig{
								Seed:      uint64(60 + mi),
								Adversary: engine.NamedAdversaries(uint64(70 + mi))[advName],
								MaxSteps:  maxSteps,
								Channel:   model,
								Voted:     &engine.VotedConfig{K: k, RePulseSource: tc.m.RePulseSource},
							}
						})
					})
				}
			}
		}
		t.Run(tc.name+"/byzantine", func(t *testing.T) {
			t.Parallel()
			compareAsyncVoted(t, tc.m, tc.g, func() engine.AsyncConfig {
				return engine.AsyncConfig{
					Seed:      80,
					Adversary: engine.NamedAdversaries(81)["uniform"],
					MaxSteps:  maxSteps,
					Scenario:  byzScenario(),
					Channel:   channel.Corrupt{Rate: 0.1, Seed: 82},
					Voted:     &engine.VotedConfig{K: 2, RePulseSource: tc.m.RePulseSource},
				}
			})
		})
		t.Run(tc.name+"/crash-restart", func(t *testing.T) {
			t.Parallel()
			// Liveness-only mutations (crash, restart) are supported
			// under the voted tier; the reboot path resets the decoder
			// slots identically in both executors.
			sc := &scenario.Scenario{
				Name:  "crash",
				Reset: scenario.ResetNone,
				Batches: []scenario.Batch{
					{At: 4, Muts: []graph.Mutation{{Kind: graph.MutCrashNode, U: 3}}},
					{At: 9, Muts: []graph.Mutation{{Kind: graph.MutRestartNode, U: 3}}},
				},
			}
			compareAsyncVoted(t, tc.m, tc.g, func() engine.AsyncConfig {
				return engine.AsyncConfig{
					Seed:      83,
					Adversary: engine.NamedAdversaries(84)["uniform"],
					MaxSteps:  maxSteps,
					Scenario:  sc,
					Channel:   channel.Drop{Rate: 0.2, Seed: 85},
					Voted:     &engine.VotedConfig{K: 2, RePulseSource: tc.m.RePulseSource},
				}
			})
		})
	}
}

// compareAsyncVoted is compareAsync plus the voted-tier surface: the
// vote/re-pulse counters and the evicted-edge list must match between
// ladder and reference too.
func compareAsyncVoted(t *testing.T, m nfsm.Machine, g *graph.Graph, cfg func() engine.AsyncConfig) {
	t.Helper()
	compareAsync(t, m, g, cfg)
	ref, refErr := engine.RunAsyncRef(m, g, cfg())
	got, gotErr := engine.RunAsync(m, g, cfg())
	if refErr != nil || gotErr != nil {
		return // compareAsync already checked error equality
	}
	if got.Outvoted != ref.Outvoted || got.VotedRejections != ref.VotedRejections ||
		got.RePulses != ref.RePulses || got.RePulseSends != ref.RePulseSends {
		t.Errorf("voted counters (%d,%d,%d,%d), reference (%d,%d,%d,%d)",
			got.Outvoted, got.VotedRejections, got.RePulses, got.RePulseSends,
			ref.Outvoted, ref.VotedRejections, ref.RePulses, ref.RePulseSends)
	}
	if len(got.EvictedEdges) != len(ref.EvictedEdges) {
		t.Fatalf("%d evicted edges, reference %d", len(got.EvictedEdges), len(ref.EvictedEdges))
	}
	for i := range got.EvictedEdges {
		if got.EvictedEdges[i] != ref.EvictedEdges[i] {
			t.Fatalf("evicted edge %d = %v, reference %v", i, got.EvictedEdges[i], ref.EvictedEdges[i])
		}
	}
}

// TestVotedK1DegeneratesToTolerant pins the degeneracy claim end to
// end: with k=1 (single-copy bursts, window-1 votes), backoff disabled
// and eviction out of reach, a voted run is bit-identical to the αβ
// hybrid on the same seed — Time, Steps, Transmissions, Lost, channel
// counters and final states — under reliable and pathological links.
func TestVotedK1DegeneratesToTolerant(t *testing.T) {
	tolerant, err := synchro.CompileRoundTolerant(ssmis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	voted, err := synchro.CompileRoundVoted(ssmis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(34))
	models := append([]channel.Model{nil}, channelModels()...)
	for mi, model := range models {
		name := "model=none"
		if model != nil {
			name = fmt.Sprintf("model=%s", model)
		}
		t.Run(name, func(t *testing.T) {
			mk := func() engine.AsyncConfig {
				return engine.AsyncConfig{
					Seed:      uint64(90 + mi),
					Adversary: engine.NamedAdversaries(uint64(95 + mi))["uniform"],
					MaxSteps:  1 << 17,
					Channel:   model,
				}
			}
			want, wantErr := engine.RunAsync(tolerant, g, mk())
			cfg := mk()
			cfg.Voted = &engine.VotedConfig{
				K: 1, BackoffCap: 1, EvictAfter: 1 << 30,
				RePulseSource: voted.RePulseSource,
			}
			got, gotErr := engine.RunAsync(voted, g, cfg)
			if wantErr != nil || gotErr != nil {
				if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
					t.Fatalf("error mismatch:\ntolerant: %v\nvoted:    %v", wantErr, gotErr)
				}
				return
			}
			if got.Time != want.Time || got.Steps != want.Steps ||
				got.Transmissions != want.Transmissions || got.Lost != want.Lost {
				t.Fatalf("(Time, Steps, Tx, Lost) = (%v, %d, %d, %d), tolerant (%v, %d, %d, %d)",
					got.Time, got.Steps, got.Transmissions, got.Lost,
					want.Time, want.Steps, want.Transmissions, want.Lost)
			}
			if got.Dropped != want.Dropped || got.Duplicated != want.Duplicated ||
				got.Delayed != want.Delayed || got.Reordered != want.Reordered ||
				got.Corrupted != want.Corrupted {
				t.Fatalf("channel counters diverge from tolerant")
			}
			// Compare decoded protocol states, not raw compiled ids:
			// the two Compiled instances intern states lazily in
			// encounter order, so their numberings are private.
			wantDec := tolerant.DecodeStates(want.States)
			gotDec := voted.DecodeStates(got.States)
			for v := range wantDec {
				if gotDec[v] != wantDec[v] {
					t.Fatalf("decoded state of node %d = %d, tolerant %d", v, gotDec[v], wantDec[v])
				}
			}
			if len(got.EvictedEdges) != 0 {
				t.Fatalf("k=1 run evicted %d edges", len(got.EvictedEdges))
			}
		})
	}
}

// TestVotedTimeUnitsMatchTolerantReliable pins the burst-send design
// point: on reliable links the voted tier's K-copy bursts land
// together, so the K-th vote commits at the instant the αβ hybrid's
// single copy would — the run's time-unit measure is identical, at the
// default k=2 and above.
func TestVotedTimeUnitsMatchTolerantReliable(t *testing.T) {
	for _, proto := range []string{"mis", "ssmis"} {
		var tolerant, voted *synchro.Compiled
		var err error
		switch proto {
		case "mis":
			tolerant, err = synchro.CompileRoundTolerant(mis.Protocol())
		case "ssmis":
			tolerant, err = synchro.CompileRoundTolerant(ssmis.Protocol())
		}
		if err != nil {
			t.Fatal(err)
		}
		switch proto {
		case "mis":
			voted, err = synchro.CompileRoundVoted(mis.Protocol())
		case "ssmis":
			voted, err = synchro.CompileRoundVoted(ssmis.Protocol())
		}
		if err != nil {
			t.Fatal(err)
		}
		g := graph.GnpConnected(32, 4.0/32, xrand.New(44))
		for _, advName := range []string{"uniform", "skew", "drift"} {
			for _, k := range []int{2, 3} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", proto, advName, k), func(t *testing.T) {
					mk := func() engine.AsyncConfig {
						return engine.AsyncConfig{
							Seed:      7,
							Adversary: engine.NamedAdversaries(8)[advName],
							MaxSteps:  1 << 22,
						}
					}
					want, err := engine.RunAsync(tolerant, g, mk())
					if err != nil {
						t.Fatal(err)
					}
					cfg := mk()
					cfg.Voted = &engine.VotedConfig{K: k, RePulseSource: voted.RePulseSource}
					got, err := engine.RunAsync(voted, g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got.TimeUnits != want.TimeUnits {
						t.Errorf("TimeUnits = %v, tolerant %v", got.TimeUnits, want.TimeUnits)
					}
					if len(got.EvictedEdges) != 0 {
						t.Errorf("evicted %d edges on reliable links", len(got.EvictedEdges))
					}
					// Compiled ids are interned lazily per machine; the
					// comparable surface is the decoded protocol state.
					wantDec := tolerant.DecodeStates(want.States)
					gotDec := voted.DecodeStates(got.States)
					for v := range wantDec {
						if gotDec[v] != wantDec[v] {
							t.Fatalf("decoded state of node %d = %d, tolerant %d", v, gotDec[v], wantDec[v])
						}
					}
				})
			}
		}
	}
}

// TestVotedByzSilentEvictsAndConverges is the headline tolerance: a
// Byzantine-silent node deadlocks the αβ hybrid's pausing feature
// forever, while the voted tier evicts exactly the edges into the
// silent node and the honest subgraph converges.
func TestVotedByzSilentEvictsAndConverges(t *testing.T) {
	voted, err := synchro.CompileRoundVoted(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	tolerant, err := synchro.CompileRoundTolerant(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(24, 0.25, xrand.New(50))
	sc := func() *scenario.Scenario {
		return &scenario.Scenario{
			Reset:     scenario.ResetNone,
			Byzantine: []channel.ByzNode{channel.Silent(0)},
		}
	}
	mk := func() engine.AsyncConfig {
		return engine.AsyncConfig{
			Seed:      21,
			Adversary: engine.NamedAdversaries(22)["uniform"],
			MaxSteps:  1 << 21,
			Scenario:  sc(),
		}
	}
	if _, err := engine.RunAsync(tolerant, g, mk()); err == nil {
		t.Fatal("tolerant run converged against a silent node; the voted tier's claim is vacuous")
	}
	cfg := mk()
	cfg.Voted = &engine.VotedConfig{K: 2, RePulseSource: voted.RePulseSource}
	res, err := engine.RunAsync(voted, g, cfg)
	if err != nil {
		t.Fatalf("voted run did not converge: %v", err)
	}
	if len(res.EvictedEdges) == 0 {
		t.Fatal("no edges evicted around a silent node")
	}
	deg := g.Degree(0)
	if len(res.EvictedEdges) != deg {
		t.Errorf("evicted %d edges, want the silent node's degree %d", len(res.EvictedEdges), deg)
	}
	for _, e := range res.EvictedEdges {
		if e[1] != 0 {
			t.Errorf("evicted edge %v does not point into the silent node", e)
		}
	}
}

// TestVotedAdaptiveBackoffReducesSends pins the adaptive timeout's
// saving: under a 2× step skew the same run transmits fewer re-pulses
// with backoff enabled (cap 8) than with it disabled (cap 1), while
// both decode the identical final states.
func TestVotedAdaptiveBackoffReducesSends(t *testing.T) {
	voted, err := synchro.CompileRoundVoted(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(32, 4.0/32, xrand.New(60))
	run := func(cap int) *engine.AsyncResult {
		res, err := engine.RunAsync(voted, g, engine.AsyncConfig{
			Seed:      31,
			Adversary: engine.Skew{Seed: 32, Ratio: 0.5},
			MaxSteps:  1 << 22,
			Voted:     &engine.VotedConfig{K: 2, BackoffCap: cap, RePulseSource: voted.RePulseSource},
		})
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		return res
	}
	with := run(0)    // default cap 8
	without := run(1) // every firing transmits
	if with.RePulses == 0 || without.RePulses == 0 {
		t.Fatalf("no re-pulses fired (with=%d, without=%d); the skew case is vacuous",
			with.RePulses, without.RePulses)
	}
	if with.RePulseSends >= without.RePulseSends {
		t.Errorf("backoff did not reduce re-pulse sends: %d with, %d without",
			with.RePulseSends, without.RePulseSends)
	}
	if len(with.EvictedEdges) != 0 || len(without.EvictedEdges) != 0 {
		t.Errorf("2× skew evicted edges (with=%d, without=%d)",
			len(with.EvictedEdges), len(without.EvictedEdges))
	}
}

// TestVotedRejectsTopologicalMutations pins the declared limitation:
// the eviction sentinel permanently clears a port slot, which a
// topology rebind would silently resurrect, so both executors must
// refuse edge/node mutations up front with the same error.
func TestVotedRejectsTopologicalMutations(t *testing.T) {
	voted, err := synchro.CompileRoundVoted(ssmis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Cycle(8)
	sc := &scenario.Scenario{
		Name:  "churn",
		Reset: scenario.ResetNone,
		Batches: []scenario.Batch{
			{At: 2, Muts: []graph.Mutation{{Kind: graph.MutRemoveEdge, U: 0, V: 1}}},
		},
	}
	mk := func() engine.AsyncConfig {
		return engine.AsyncConfig{
			Seed:      41,
			Adversary: engine.NamedAdversaries(42)["uniform"],
			MaxSteps:  1 << 16,
			Scenario:  sc,
			Voted:     &engine.VotedConfig{K: 2, RePulseSource: voted.RePulseSource},
		}
	}
	_, ladderErr := engine.RunAsync(voted, g, mk())
	_, refErr := engine.RunAsyncRef(voted, g, mk())
	if ladderErr == nil || refErr == nil {
		t.Fatalf("topological mutation accepted: ladder=%v ref=%v", ladderErr, refErr)
	}
	if ladderErr.Error() != refErr.Error() {
		t.Fatalf("error mismatch:\nladder: %v\nref:    %v", ladderErr, refErr)
	}
	if !strings.Contains(ladderErr.Error(), "topological mutations") {
		t.Fatalf("unexpected error: %v", ladderErr)
	}
}
