package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/protocol"
	"stoneage/internal/scenario"

	// The campaign speaks only registry names; link the built-in set.
	_ "stoneage/internal/protocol/std"
)

func misSpec(workers int) Spec {
	return Spec{
		Name:      "test-mis",
		Protocols: []string{"mis"},
		Families: []Family{
			{Kind: "gnp"}, {Kind: "geometric"}, {Kind: "powerlaw"}, {Kind: "smallworld"},
		},
		Sizes:   []int{16, 32, 64},
		Trials:  8,
		Seed:    7,
		Workers: workers,
	}
}

// TestWorkerCountInvariance is the campaign acceptance property: the
// deterministic aggregates (everything but wall time) are identical at
// every worker count, because each trial's seed is a pure function of
// its coordinates and cells aggregate in spec order.
func TestWorkerCountInvariance(t *testing.T) {
	base, err := Run(misSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	base.StripWall()
	for _, workers := range []int{2, 3, 8} {
		sp := misSpec(workers)
		got, err := Run(sp)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got.StripWall()
		// Spec differs in the Workers field only; compare cells.
		if !reflect.DeepEqual(got.Cells, base.Cells) {
			t.Fatalf("workers=%d: aggregates diverged from workers=1", workers)
		}
	}
}

// TestTrialSeedIsolation pins the reproducibility contract: a trial's
// seed depends on its content coordinates, not on list positions, so
// reordering the spec's protocol/family/size lists moves cells around
// without changing any cell's aggregates.
func TestTrialSeedIsolation(t *testing.T) {
	sp := misSpec(0)
	a, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	rev := sp
	rev.Families = []Family{
		{Kind: "smallworld"}, {Kind: "powerlaw"}, {Kind: "geometric"}, {Kind: "gnp"},
	}
	rev.Sizes = []int{64, 32, 16}
	b, err := Run(rev)
	if err != nil {
		t.Fatal(err)
	}
	find := func(r *Result, family string, size int) CellResult {
		for _, c := range r.Cells {
			if c.Family == family && c.Size == size {
				c.WallMS = CellResult{}.WallMS
				return c
			}
		}
		t.Fatalf("cell %s/n=%d missing", family, size)
		return CellResult{}
	}
	for _, fam := range []string{"gnp", "geometric", "powerlaw", "smallworld"} {
		for _, n := range []int{16, 32, 64} {
			ca, cb := find(a, fam, n), find(b, fam, n)
			if !reflect.DeepEqual(ca, cb) {
				t.Fatalf("cell %s/n=%d changed under spec reordering:\n%+v\n%+v", fam, n, ca, cb)
			}
		}
	}
}

// TestTreeProtocolAndMatching covers the two non-MIS protocols end to
// end, including the per-trial validation hook.
func TestTreeProtocolAndMatching(t *testing.T) {
	res, err := Run(Spec{
		Protocols: []string{"color3"},
		Families:  []Family{{Kind: "tree"}, {Kind: "caterpillar"}, {Kind: "star"}},
		Sizes:     []int{16, 64},
		Trials:    4,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Rounds.Mean <= 0 || c.Rounds.N != 4 {
			t.Fatalf("cell %+v has empty aggregates", c)
		}
	}

	res, err = Run(Spec{
		Protocols: []string{"matching"},
		Families:  []Family{{Kind: "torus"}},
		Sizes:     []int{49},
		Trials:    3,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Rounds.Mean <= 0 {
		t.Fatal("matching campaign produced no rounds")
	}
}

// TestAsyncCampaign runs a small asynchronous sweep and checks the
// units switch to the paper's normalized time measure.
func TestAsyncCampaign(t *testing.T) {
	res, err := Run(Spec{
		Protocols: []string{"mis"},
		Engine:    "async",
		Adversary: "uniform",
		Families:  []Family{{Kind: "gnp"}},
		Sizes:     []int{16},
		Trials:    3,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsUnit != "time-units" || res.TxUnit != "steps" {
		t.Fatalf("async units = (%s, %s)", res.RoundsUnit, res.TxUnit)
	}
	if res.Cells[0].Rounds.Mean <= 0 {
		t.Fatal("async campaign produced no time units")
	}
}

// TestGraphPerTrial draws a fresh instance per trial and checks the
// mode changes the aggregates of a random family but not a
// deterministic one.
func TestGraphPerTrial(t *testing.T) {
	sp := Spec{
		Protocols: []string{"mis"},
		Families:  []Family{{Kind: "gnp"}, {Kind: "cycle"}},
		Sizes:     []int{32},
		Trials:    6,
		Seed:      9,
	}
	shared, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.GraphPerTrial = true
	fresh, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Graph instance 0 is the same in both modes, so trial 0 agrees;
	// later trials see different graphs, so the gnp aggregates should
	// differ (if they ever collide, the seed below needs changing —
	// astronomically unlikely). Cells are in canonical order: cycle
	// sorts before gnp.
	if shared.Cells[1].Rounds == fresh.Cells[1].Rounds &&
		shared.Cells[1].Transmissions == fresh.Cells[1].Transmissions {
		t.Fatal("graphPerTrial left gnp aggregates unchanged")
	}
	if shared.Cells[0].Rounds != fresh.Cells[0].Rounds {
		t.Fatal("graphPerTrial changed the deterministic cycle family")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
		want string
	}{
		{"no protocols", Spec{Families: []Family{{Kind: "gnp"}}, Sizes: []int{8}, Trials: 1}, "no protocols"},
		{"unknown protocol", Spec{Protocols: []string{"routing"}, Families: []Family{{Kind: "gnp"}}, Sizes: []int{8}, Trials: 1}, "unknown protocol"},
		{"unknown family", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "hypercube"}}, Sizes: []int{8}, Trials: 1}, "unknown graph family"},
		{"bad engine", Spec{Protocols: []string{"mis"}, Engine: "quantum", Families: []Family{{Kind: "gnp"}}, Sizes: []int{8}, Trials: 1}, "unknown engine"},
		{"bad adversary", Spec{Protocols: []string{"mis"}, Engine: "async", Adversary: "oracle", Families: []Family{{Kind: "gnp"}}, Sizes: []int{8}, Trials: 1}, "unknown adversary"},
		{"duplicate protocol", Spec{Protocols: []string{"mis", "mis"}, Families: []Family{{Kind: "gnp"}}, Sizes: []int{8}, Trials: 1}, "duplicate protocol"},
		{"duplicate family", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "gnp"}, {Kind: "gnp", Param: Param(4)}}, Sizes: []int{8}, Trials: 1}, "duplicate family"},
		{"relabeled duplicate family", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "gnp"}, {Kind: "gnp", Label: "gnp-2"}}, Sizes: []int{8}, Trials: 1}, "duplicate family"},
		{"duplicate size", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "gnp"}}, Sizes: []int{8, 8}, Trials: 1}, "duplicate size"},
		{"fractional powerlaw m", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "powerlaw", Param: Param(2.5)}}, Sizes: []int{8}, Trials: 1}, "positive integer"},
		{"zero nearregular degree", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "nearregular", Param: Param(0)}}, Sizes: []int{8}, Trials: 1}, "degree bound must be a positive integer"},
		{"smallworld beta > 1", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "smallworld", Param: Param(1.5)}}, Sizes: []int{8}, Trials: 1}, "[0,1]"},
		{"negative gnp degree", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "gnp", Param: Param(-1)}}, Sizes: []int{8}, Trials: 1}, "positive"},
		{"param on parameterless kind", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "cycle", Param: Param(7)}}, Sizes: []int{8}, Trials: 1}, "takes no parameter"},
		{"no sizes", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "gnp"}}, Trials: 1}, "no sizes"},
		{"no trials", Spec{Protocols: []string{"mis"}, Families: []Family{{Kind: "gnp"}}, Sizes: []int{8}}, "trials"},
	}
	for _, tc := range cases {
		err := tc.sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecValidationFromRegistryCaps derives the capability-mismatch
// cases from the registry itself instead of a hardcoded protocol map:
// every tree-only protocol must be rejected on a non-tree family, every
// path-only protocol on a tree-but-not-path family, and every sync-only
// protocol on the async engine — including protocols registered after
// this test was written.
func TestSpecValidationFromRegistryCaps(t *testing.T) {
	base := func(p string) Spec {
		return Spec{Protocols: []string{p}, Families: []Family{{Kind: "gnp"}}, Sizes: []int{8}, Trials: 1}
	}
	covered := 0
	for _, d := range protocol.All() {
		if d.Caps.Has(protocol.CapNeedsTree) || d.Caps.Has(protocol.CapNeedsPath) {
			sp := base(d.Name)
			want := "needs tree families"
			if d.Caps.Has(protocol.CapNeedsPath) {
				want = "needs path families"
				sp.Families = []Family{{Kind: "star"}} // a tree, but not a path
			}
			if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s × %s: error %v, want containing %q", d.Name, sp.Families[0].Kind, err, want)
			}
			covered++
		}
		if d.Caps.Has(protocol.CapSyncOnly) {
			sp := base(d.Name)
			sp.Engine = "async"
			sp.Families = []Family{{Kind: "path"}} // family always compatible
			if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "sync engine only") {
				t.Errorf("%s async: error %v, want sync-only rejection", d.Name, err)
			}
			covered++
		}
	}
	if covered < 5 {
		t.Fatalf("registry yielded only %d capability cases; std protocols missing?", covered)
	}
}

// registerCampaignToy registers a trivial single-round protocol once.
// It exists to prove the drop-in contract: one Register call makes a
// protocol sweepable with zero campaign edits.
var registerCampaignToy = sync.OnceValue(func() string {
	name := "toy-beacon"
	protocol.Register(&protocol.Descriptor{
		Name:    name,
		Summary: "test-only: every node outputs after one beacon round",
		Machine: func(protocol.Args) (*nfsm.RoundProtocol, error) {
			return &nfsm.RoundProtocol{
				Name:        name,
				StateNames:  []string{"start", "done"},
				LetterNames: []string{"beacon"},
				Input:       []nfsm.State{0},
				Output:      []bool{false, true},
				Initial:     0,
				B:           1,
				Transition: func(q nfsm.State, _ []nfsm.Count) []nfsm.Move {
					if q == 1 {
						return []nfsm.Move{{Next: 1, Emit: nfsm.NoLetter}}
					}
					return []nfsm.Move{{Next: 1, Emit: 0}}
				},
			}, nil
		},
		Decode: func(_ protocol.Args, states []nfsm.State) (protocol.Output, error) {
			mask := make(protocol.Mask, len(states))
			for v, q := range states {
				mask[v] = q == 1
			}
			return mask, nil
		},
		Check: func(_ protocol.Args, _ *graph.Graph, out protocol.Output) error {
			for v, done := range out.(protocol.Mask) {
				if !done {
					return fmt.Errorf("toy-beacon: node %d never finished", v)
				}
			}
			return nil
		},
		Mutate: protocol.FlipMask,
	})
	return name
})

// TestRegistryDropIn is the acceptance check for the refactor's point:
// a protocol added with a single Register call sweeps through the
// campaign — spec validation, cell binding, execution and output
// checking — without any campaign edits.
func TestRegistryDropIn(t *testing.T) {
	name := registerCampaignToy()
	res, err := Run(Spec{
		Protocols: []string{name, "mis"},
		Families:  []Family{{Kind: "gnp"}, {Kind: "cycle"}},
		Sizes:     []int{16},
		Trials:    3,
		Seed:      13,
		Engine:    "async", // the toy is engine-hosted, so async works too
	})
	if err != nil {
		t.Fatal(err)
	}
	// Canonical cell order: mis sorts before toy-beacon, cycle before
	// gnp within each protocol block.
	if len(res.Cells) != 4 || res.Cells[0].Protocol != "mis" || res.Cells[2].Protocol != name {
		t.Fatalf("unexpected cells: %+v", res.Cells)
	}
}

// TestSweepEveryRegisteredProtocol runs one spec naming every
// registered protocol over the path family (the one family every
// capability set accepts) — the acceptance criterion that the registry
// is the single source of protocol truth for the sweep pipeline.
func TestSweepEveryRegisteredProtocol(t *testing.T) {
	sp := Spec{
		Name:      "all-protocols",
		Protocols: protocol.Names(),
		Families:  []Family{{Kind: "path"}},
		Sizes:     []int{17},
		Trials:    2,
		Seed:      3,
	}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(sp.Protocols) {
		t.Fatalf("%d cells for %d protocols", len(res.Cells), len(sp.Protocols))
	}
	for _, c := range res.Cells {
		if c.Rounds.N != 2 {
			t.Fatalf("cell %s has %d samples, want 2", c.Protocol, c.Rounds.N)
		}
	}
}

// TestFailFast runs a sweep whose every trial exhausts its round
// budget: the campaign must surface a real engine error (with cell and
// trial coordinates), never the internal cancellation marker.
func TestFailFast(t *testing.T) {
	_, err := Run(Spec{
		Protocols: []string{"mis"},
		Families:  []Family{{Kind: "gnp"}},
		Sizes:     []int{64},
		Trials:    16,
		Seed:      1,
		MaxRounds: 1,
	})
	if err == nil {
		t.Fatal("MaxRounds=1 sweep succeeded")
	}
	if !strings.Contains(err.Error(), "mis/gnp/n=64 trial") ||
		!strings.Contains(err.Error(), "no output configuration") {
		t.Fatalf("error = %v", err)
	}
}

// TestExplicitZeroParam pins the pointer semantics of Family.Param: an
// explicit 0 (the β=0 pure small-world lattice) must not be replaced
// by the kind's default, in the build, the display name, or the seeds.
func TestExplicitZeroParam(t *testing.T) {
	zero := Family{Kind: "smallworld", Param: Param(0)}
	dflt := Family{Kind: "smallworld"}
	g, err := BuildGraph(zero, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// β=0 is the deterministic ring lattice: every node has degree 4.
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("β=0 lattice node %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	if zero.Name() != "smallworld(0)" {
		t.Fatalf("explicit-zero name = %q", zero.Name())
	}
	sp := Spec{Seed: 1}
	if sp.TrialSeed("mis", zero, 64, 0) == sp.TrialSeed("mis", dflt, 64, 0) {
		t.Fatal("β=0 trial seed collides with the default-param cell")
	}
}

// scenarioSpec is the dynamic-axis fixture: mis (restart-based
// recovery) and ssmis (self-stabilizing, no reset) against the static
// baseline, a crash wave and Poisson churn.
func scenarioSpec(workers int) Spec {
	return Spec{
		Name:      "test-dynamic",
		Protocols: []string{"mis", "ssmis"},
		Families:  []Family{{Kind: "gnp"}},
		Sizes:     []int{24, 48},
		Scenarios: []scenario.Def{
			{Kind: "none"},
			{Kind: "crash", Frac: 0.3, At: scenario.Round(4), Every: 8},
			{Kind: "churn", Rate: 2, Count: 3, At: scenario.Round(4), Every: 24},
		},
		Trials:    6,
		Seed:      17,
		MaxRounds: 1 << 14,
		Workers:   workers,
	}
}

// TestScenarioAxis runs the dynamic cross product end to end: cells
// carry their scenario name, dynamic cells report recovery and
// perturbation aggregates (validated per trial against the final
// graph), and the static axis stays bit-identical to a spec without a
// scenarios field at all.
func TestScenarioAxis(t *testing.T) {
	res, err := Run(scenarioSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols × 3 scenarios × 1 family × 2 sizes.
	if len(res.Cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(res.Cells))
	}
	static := scenarioSpec(0)
	static.Scenarios = nil
	base, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	bi := 0
	for _, c := range res.Cells {
		if c.Scenario == "" {
			// Static cells: bit-identical to the scenario-free sweep.
			b := base.Cells[bi]
			bi++
			if c.Rounds != b.Rounds || c.Transmissions != b.Transmissions {
				t.Fatalf("static cell %s/%s/n=%d diverges from the scenario-free sweep", c.Protocol, c.Family, c.Size)
			}
			if c.Recovery.N != 0 || c.Perturbations.N != 0 {
				t.Fatalf("static cell %s/n=%d reports recovery stats", c.Protocol, c.Size)
			}
			continue
		}
		if c.Recovery.N != 6 || c.Recovery.Mean <= 0 {
			t.Fatalf("dynamic cell %s@%s/n=%d recovery = %+v", c.Protocol, c.Scenario, c.Size, c.Recovery)
		}
		if c.Perturbations.Mean <= 0 {
			t.Fatalf("dynamic cell %s@%s/n=%d has no perturbations", c.Protocol, c.Scenario, c.Size)
		}
	}
	if bi != len(base.Cells) {
		t.Fatalf("matched %d static cells, want %d", bi, len(base.Cells))
	}
}

// TestScenarioWorkerInvariance extends the campaign's acceptance
// property to the dynamic axis: content-derived scenario seeds keep the
// aggregates bit-identical at every worker count.
func TestScenarioWorkerInvariance(t *testing.T) {
	base, err := Run(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	base.StripWall()
	for _, workers := range []int{3, 8} {
		got, err := Run(scenarioSpec(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got.StripWall()
		if !reflect.DeepEqual(got.Cells, base.Cells) {
			t.Fatalf("workers=%d: dynamic aggregates diverged from workers=1", workers)
		}
	}
}

// TestScenarioSpecValidation covers the dynamic-axis rejection cases.
func TestScenarioSpecValidation(t *testing.T) {
	base := func(p string, defs ...scenario.Def) Spec {
		return Spec{
			Protocols: []string{p}, Families: []Family{{Kind: "gnp"}},
			Sizes: []int{8}, Trials: 1, Scenarios: defs,
		}
	}
	cases := []struct {
		name string
		sp   Spec
		want string
	}{
		{"bespoke engine", base("matching", scenario.Def{Kind: "crash"}), "bespoke engine"},
		{"unknown kind", base("mis", scenario.Def{Kind: "meteor"}), "unknown kind"},
		{"bad frac", base("mis", scenario.Def{Kind: "crash", Frac: 2}), "frac"},
		{"bad reset", base("mis", scenario.Def{Kind: "churn", Reset: "later"}), "reset policy"},
		{"duplicate scenario", base("mis", scenario.Def{Kind: "crash"}, scenario.Def{Kind: "crash", Label: "again"}), "duplicate scenario"},
	}
	tree := base("color3", scenario.Def{Kind: "churn"})
	tree.Families = []Family{{Kind: "tree"}}
	cases = append(cases, struct {
		name string
		sp   Spec
		want string
	}{"tree protocol under churn", tree, "churns the topology"})
	for _, tc := range cases {
		err := tc.sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// Liveness-only scenarios are fine for shape-constrained protocols.
	ok := base("color3", scenario.Def{Kind: "crash"})
	ok.Families = []Family{{Kind: "tree"}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("crash scenario on a tree protocol rejected: %v", err)
	}
}

func TestReadSpecRejectsUnknownFields(t *testing.T) {
	_, err := ReadSpec(strings.NewReader(`{"protocols":["mis"],"families":[{"kind":"gnp"}],"sizes":[8],"trials":1,"turbo":true}`))
	if err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}
