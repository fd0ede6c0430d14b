package synchro_test

// Tests of the compiled-machine representation: after runs that intern a
// realistic share of Q̂, every state's packed key must decode to the
// descriptor it was interned as, and the machine must hold few bytes per
// state.

import (
	"errors"
	"runtime"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/coloring"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/ssmis"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

func mustCompile(t *testing.T, compile func(*nfsm.RoundProtocol) (*synchro.Compiled, error), p *nfsm.RoundProtocol) *synchro.Compiled {
	t.Helper()
	m, err := compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// exercise runs m asynchronously on g under UniformRandom for seeds
// 1..seeds, each through the channel ch(seed) when ch is not nil, and
// with voted decoding when m is a voted machine.
func exercise(t *testing.T, m *synchro.Compiled, g *graph.Graph, ch func(uint64) channel.Model, seeds uint64) {
	t.Helper()
	prog := engine.Compile(m, g)
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg := engine.AsyncConfig{Seed: seed, Adversary: engine.UniformRandom{Seed: seed + 7}, MaxSteps: 1 << 22}
		if ch != nil {
			cfg.Channel = ch(seed)
		}
		if m.Voted() {
			cfg.Voted = &engine.VotedConfig{RePulseSource: m.RePulseSource}
		}
		if _, err := prog.RunAsync(cfg); err != nil && !errors.Is(err, engine.ErrNoConvergence) {
			t.Fatalf("%s seed %d: %v", m.Name(), seed, err)
		}
	}
}

func stacked(seed uint64) channel.Model {
	return channel.Def{Drop: 0.1, Dup: 0.2, Reorder: 1, Corrupt: 0.02}.Model(seed)
}

func drop(seed uint64) channel.Model { return channel.Drop{Rate: 0.1, Seed: seed} }

// TestCompiledRepresentation checks every interned state of α-mis,
// αβv-mis under the stacked channel, α-ssmis and color3^αβ under loss
// (whose key takes two words) after a few runs, and each machine's key
// layout against its field ranges.
func TestCompiledRepresentation(t *testing.T) {
	gnp := graph.GnpConnected(64, 4.0/64, xrand.New(1))
	tree := graph.RandomTree(24, xrand.New(1))
	cases := []struct {
		m     *synchro.Compiled
		g     *graph.Graph
		ch    func(uint64) channel.Model
		words int
	}{
		{mustCompile(t, synchro.CompileRound, mis.Protocol()), gnp, nil, 1},
		{mustCompile(t, synchro.CompileRoundVoted, mis.Protocol()), gnp, stacked, 1},
		{mustCompile(t, synchro.CompileRound, ssmis.Protocol()), gnp, nil, 1},
		{mustCompile(t, synchro.CompileRoundTolerant, coloring.Protocol()), tree, drop, 2},
	}
	for _, tc := range cases {
		t.Run(tc.m.Name(), func(t *testing.T) {
			if got := synchro.KeyWords(tc.m); got != tc.words {
				t.Errorf("%d-word keys, want %d", got, tc.words)
			}
			if err := synchro.CheckLayout(tc.m); err != nil {
				t.Fatal(err)
			}
			exercise(t, tc.m, tc.g, tc.ch, 2)
			t.Logf("%d states", tc.m.NumStates())
			if err := synchro.CheckStates(tc.m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// compiledFootprintBudget bounds the heap a compiled machine retains per
// interned state at b=1: an 8-byte key and a 4-byte hot word, two 8-byte
// row words, the intern table's 4-byte slots at load 3/8 to 3/4, about
// 1.3 16-byte moves of slab, and the growth slack of the appended tables
// (58 B/state in these runs). A per-state descriptor struct, or 24-byte
// row headers in place of the row words, breaks it.
const compiledFootprintBudget = 80

// TestCompiledFootprint bounds the retained heap per interned state after
// α-mis runs and αβv-mis runs under the stacked channel on gnp(64),
// measured from runtime.MemStats after a GC.
func TestCompiledFootprint(t *testing.T) {
	g := graph.GnpConnected(64, 4.0/64, xrand.New(1))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	alpha := mustCompile(t, synchro.CompileRound, mis.Protocol())
	voted := mustCompile(t, synchro.CompileRoundVoted, mis.Protocol())
	exercise(t, alpha, g, nil, 4)
	exercise(t, voted, g, stacked, 4)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := int64(ms.HeapAlloc) - int64(before)
	states := alpha.NumStates() + voted.NumStates()
	runtime.KeepAlive(alpha)
	runtime.KeepAlive(voted)
	per := float64(held) / float64(states)
	t.Logf("%d states, %d bytes retained (%.1f B/state)", states, held, per)
	if per > compiledFootprintBudget {
		t.Errorf("compiled machines retain %d bytes for %d states (%.1f B/state), budget %d B/state", held, states, per, compiledFootprintBudget)
	}
}
