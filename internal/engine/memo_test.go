package engine_test

// Tests of the machine-keyed dynamic memo (the per-state record table a
// Scratch keeps for lazily interning machines): moving a scratch across
// machines must never leak one machine's records into another's run,
// and the table must stay compact.

import (
	"errors"
	"reflect"
	"testing"

	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/ssmis"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// TestAsyncScratchAcrossMachines runs α-mis, αβv-mis, α-ssmis and α-mis
// again on one Scratch. Each result must equal the same run on a fresh
// scratch: a record of the previous machine surviving Scratch.bind would
// hand a run another machine's δ rows, query letters or output bits.
func TestAsyncScratchAcrossMachines(t *testing.T) {
	compile := func(c func(*nfsm.RoundProtocol) (*synchro.Compiled, error), p *nfsm.RoundProtocol) *synchro.Compiled {
		m, err := c(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	alphaMIS := compile(synchro.CompileRound, mis.Protocol())
	votedMIS := compile(synchro.CompileRoundVoted, mis.Protocol())
	alphaSSMIS := compile(synchro.CompileRound, ssmis.Protocol())
	g := graph.GnpConnected(32, 4.0/32, xrand.New(3))
	alphaProg := engine.Compile(alphaMIS, g)
	runs := []struct {
		name  string
		prog  *engine.Program
		voted *engine.VotedConfig
	}{
		{"alpha-mis", alphaProg, nil},
		{"voted-mis", engine.Compile(votedMIS, g), &engine.VotedConfig{RePulseSource: votedMIS.RePulseSource}},
		{"alpha-ssmis", engine.Compile(alphaSSMIS, g), nil},
		{"alpha-mis-again", alphaProg, nil},
	}
	scr := engine.NewScratch()
	for i, r := range runs {
		cfg := engine.AsyncConfig{
			Seed: uint64(11 + i), Adversary: engine.UniformRandom{Seed: uint64(5 + i)},
			Voted: r.voted, MaxSteps: 1 << 22,
		}
		got, gotErr := r.prog.RunAsyncReusing(cfg, scr)
		want, wantErr := r.prog.RunAsync(cfg)
		if !errors.Is(gotErr, engine.ErrNoConvergence) && gotErr != nil {
			t.Fatalf("%s: %v", r.name, gotErr)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: reused scratch error %v, fresh scratch error %v", r.name, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused-scratch result differs from a fresh scratch's (steps %d vs %d, time %g vs %g)",
				r.name, got.Steps, want.Steps, got.Time, want.Time)
		}
	}
}

// dynMemoBudget bounds the dynamic memo per interned state at b=1: a
// 24-byte record block (a header word and two row words) plus the
// table's growth slack and the side list of multi-move rows. A memo
// kept beside the table, or a wider block, breaks it.
const dynMemoBudget = 32

// TestDynMemoFootprint pins the dynamic memo's size: after an αβv-mis
// run at n=64, the bytes it holds per interned state stay within
// dynMemoBudget.
func TestDynMemoFootprint(t *testing.T) {
	m, err := synchro.CompileRoundVoted(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	if m.Bound() != 1 {
		t.Fatalf("mis bound %d, the budget assumes b=1", m.Bound())
	}
	g := graph.GnpConnected(64, 4.0/64, xrand.New(1))
	scr := engine.NewScratch()
	cfg := engine.AsyncConfig{Seed: 1, Adversary: engine.UniformRandom{Seed: 1},
		Voted: &engine.VotedConfig{RePulseSource: m.RePulseSource}}
	if _, err := engine.Compile(m, g).RunAsyncReusing(cfg, scr); err != nil {
		t.Fatal(err)
	}
	states := m.NumStates()
	got := engine.DynMemoBytes(scr)
	per := float64(got) / float64(states)
	t.Logf("%d states, %d bytes (%.1f B/state)", states, got, per)
	if per > dynMemoBudget {
		t.Errorf("dynamic memo holds %d bytes for %d states (%.1f B/state), budget %d B/state", got, states, per, dynMemoBudget)
	}
}
