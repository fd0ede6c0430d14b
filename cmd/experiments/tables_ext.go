package main

import (
	"math"

	"stoneage/internal/campaign"
	"stoneage/internal/graph"
	"stoneage/internal/harness"
	"stoneage/internal/mis"
	"stoneage/internal/xrand"
)

// expE12 measures the bounded-degree (Δ+1)-coloring extension.
// degcolor derives its degree bound Δ from each graph.
func expE12(cfg config) ([]*harness.Table, error) {
	sizes, trials := cfg.scale(harness.GeoSizes(16, 4096, 4), harness.GeoSizes(16, 256, 4), 3, 2)
	t, _, err := gridTable(campaign.Spec{
		Name:      "E12",
		Protocols: []string{"degcolor"},
		Families: []campaign.Family{
			{Kind: "cycle", Label: "cycle (2)"}, {Kind: "torus", Label: "torus (4)"},
			{Kind: "nearregular", Label: "near-regular (5)"},
		},
		GraphPerTrial: true, Sizes: sizes, Trials: trials, Seed: cfg.seed,
	}, "(Δ+1)-coloring rounds under the pure nFSM model (bounded degree)", "family (Δ)", nil)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"Extension beyond Section 5: with Δ a universal constant, requirement (M4) admits a",
		"(Δ+1)-palette race in the pure model; rounds are O(log n) w.h.p. All outputs validated.")
	return []*harness.Table{t}, nil
}

// expE13 contrasts 2-coloring (Θ(diameter), even with unbounded
// messages) against the paper's O(log n) 3-coloring on trees.
func expE13(cfg config) ([]*harness.Table, error) {
	sizes, trials := cfg.scale(harness.GeoSizes(32, 2048, 4), harness.GeoSizes(32, 512, 4), 3, 2)
	path := campaign.Family{Kind: "path"}
	res, err := campaign.Run(campaign.Spec{Name: "E13", Protocols: []string{"twocolor", "color3"},
		Families: []campaign.Family{path}, Sizes: sizes, Trials: trials, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	t := &harness.Table{
		Title:  "2 colors vs 3 colors on paths (rounds)",
		Header: []string{"n", "diameter", "2-color (LOCAL BFS)", "3-color (nFSM)", "2-color/diam", "3-color/log n"},
	}
	two, three := means(res, "twocolor", path), means(res, "color3", path)
	for i, n := range sizes {
		diam, err := graph.Path(n).Diameter()
		if err != nil {
			return nil, err
		}
		t.AddRow(n, diam, two[i], three[i], two[i]/float64(diam), three[i]/math.Log2(float64(n)))
	}
	t.Notes = append(t.Notes,
		"Section 5's opening remark: 2-coloring takes Θ(diameter) rounds even in the message-passing",
		"model (the wave must traverse the tree), while three colors admit O(log n) — the crossover",
		"in favour of the stone-age protocol appears as soon as diameter ≫ log n.")
	return []*harness.Table{t}, nil
}

// expE14 demonstrates the Section 6 separation in its simplest concrete
// form: the exact-degree problem. A message-passing node reads its exact
// degree locally in one round; an nFSM node can only ever learn
// f_b(degree) — the one-two-many clamp (M4) — so for any fixed b the
// fraction of nodes whose exact degree is information-theoretically
// unrecoverable tends to 1 as the degree distribution outgrows b.
func expE14(cfg config) ([]*harness.Table, error) {
	t := &harness.Table{
		Title:  "One-two-many information loss on the exact-degree problem",
		Header: []string{"graph", "n", "Δ", "b=1 identifiable", "b=3 identifiable", "b=7 identifiable"},
	}
	src := xrand.New(cfg.seed + 61)
	workloads := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(256)},
		{"grid", graph.Grid(16, 16)},
		{"gnp d̄=8", graph.GnpConnected(256, 8.0/256, src)},
		{"star", graph.Star(256)},
		{"clique", graph.Clique(64)},
	}
	for _, w := range workloads {
		row := []any{w.name, w.g.N(), w.g.MaxDegree()}
		for _, b := range []int{1, 3, 7} {
			identifiable := 0
			for v := 0; v < w.g.N(); v++ {
				// A degree is identifiable iff it is below the clamp:
				// f_b maps it to a singleton class.
				if w.g.Degree(v) < b {
					identifiable++
				}
			}
			row = append(row, float64(identifiable)/float64(w.g.N()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"The message-passing model solves exact-degree in one round for every node. Under the nFSM",
		"model the answer set must be constant (requirement (M4)): any protocol observes at most",
		"f_b(d), so degrees ≥ b collapse into one class — the wall that makes the model strictly",
		"weaker than message passing (Section 6), independent of running time.")
	return []*harness.Table{t}, nil
}

// expF1 regenerates Figure 1: the MIS protocol's transition diagram,
// derived mechanically from the implemented δ (and golden-tested against
// the paper's arrow set in internal/mis).
func expF1(cfg config) ([]*harness.Table, error) {
	t := &harness.Table{
		Title:  "Figure 1 — the MIS transition diagram, derived from δ",
		Header: []string{"from", "to", "transmits"},
	}
	names := mis.Protocol().StateNames
	for _, e := range mis.TransitionDiagram() {
		emit := "ε (silent)"
		if e.Emit >= 0 {
			emit = names[e.Emit]
		}
		kind := ""
		if e.From == e.To {
			kind = " (delay/sink loop)"
		}
		t.AddRow(names[e.From], names[e.To]+kind, emit)
	}
	t.Notes = append(t.Notes,
		"Derived by enumerating δ over all 2⁷ clamped count vectors per state; the test suite",
		"asserts this arrow set equals Figure 1 of the paper exactly.")
	return []*harness.Table{t}, nil
}
