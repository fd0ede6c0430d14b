package engine_test

import (
	"errors"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/coloring"
	"stoneage/internal/degcolor"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/xrand"
)

// TestIncrementalIdxMatchesRecompute checks the per-node observation
// index the executors maintain incrementally (the δ-table offset of
// progFlat machines, the memo key's counts field of dynPack ones)
// against a from-scratch encoding after a static sharded run, a channel
// run and two churn-scenario runs (which rebind the layout, and in the
// second also reset the touched nodes). It also pins that color3, degcolor(8) and degcolor(16) keep
// their packed memo key.
func TestIncrementalIdxMatchesRecompute(t *testing.T) {
	deg8, err := degcolor.Protocol(8)
	if err != nil {
		t.Fatal(err)
	}
	deg16, err := degcolor.Protocol(16)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomTree(400, xrand.New(5))
	// Under ResetNone only rebind re-encodes the flipped edges'
	// endpoints; under ResetTouched resetNode re-encodes them again.
	churn := func(reset string) *scenario.Scenario {
		sc, err := scenario.Def{Kind: "churn", Rate: 2, Count: 4, At: scenario.Round(2), Every: 5, Reset: reset}.Generate(g, 7)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	runs := []struct {
		name string
		cfg  engine.SyncConfig
	}{
		{"static-sharded", engine.SyncConfig{Seed: 1, Workers: 4, Backend: engine.BackendFlat}},
		{"channel", engine.SyncConfig{Seed: 2, MaxRounds: 1 << 12, Channel: channel.Duplicate{Rate: 0.5, MaxCopies: 3, Seed: 12}}},
		{"churn", engine.SyncConfig{Seed: 3, MaxRounds: 1 << 12, Scenario: churn("none")}},
		{"churn-reset", engine.SyncConfig{Seed: 4, MaxRounds: 1 << 12, Scenario: churn("touched")}},
	}
	for _, tc := range []struct {
		name    string
		m       nfsm.Machine
		dynPack bool
	}{
		{"color3", coloring.Protocol(), true},
		{"degcolor8", deg8, true},
		{"degcolor16", deg16, true},
		{"mis", mis.Protocol(), false},
	} {
		c := engine.CompileMachine(tc.m)
		if keeps, dynPack := engine.KeepsIdx(c); !keeps || dynPack != tc.dynPack {
			t.Fatalf("%s: (keeps idx, dynPack) = (%v, %v), want (true, %v)", tc.name, keeps, dynPack, tc.dynPack)
		}
		p, scr := c.Bind(g), engine.NewScratch()
		for _, r := range runs {
			if _, err := p.RunSyncReusing(r.cfg, scr); err != nil && !errors.Is(err, engine.ErrNoConvergence) {
				t.Fatalf("%s/%s: %v", tc.name, r.name, err)
			}
			if v := engine.StaleIdx(scr); v >= 0 {
				t.Fatalf("%s/%s: idx of node %d differs from its recomputed encoding", tc.name, r.name, v)
			}
		}
	}
}
