package campaign

// The engine-axis suite: execution engines as a campaign dimension.
// The axis exists to measure the loss-tolerant αβ-hybrid synchronizer
// against the plain α compilation under identical per-trial randomness
// (the engine never enters seed derivation), so the acceptance
// properties are: single-engine specs stay bit-identical to the
// pre-axis campaign, a multi-engine sweep labels every cell, and the
// tolerant engine actually closes the async robustness gap the α rows
// expose under loss.

import (
	"reflect"
	"strings"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/scenario"
)

func engineAxisSpec(workers int) Spec {
	return Spec{
		Name:      "test-engines",
		Protocols: []string{"mis"},
		Engines:   []string{"async", "async-tolerant"},
		Families:  []Family{{Kind: "gnp"}},
		Sizes:     []int{24},
		Channels: []channel.Def{
			{},
			{Drop: 0.1, Label: "drop-10"},
		},
		Trials:   4,
		Seed:     31,
		MaxSteps: 1 << 19,
		Workers:  workers,
	}
}

// TestEngineAxis is the campaign-level robustness-gap measurement: the
// α synchronizer deadlocks under 10% loss (mutual pause-stall — every
// node waits for a letter the channel ate) while the αβ hybrid
// re-pulses through it, on otherwise identical trials.
func TestEngineAxis(t *testing.T) {
	res, err := Run(engineAxisSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(res.Cells))
	}
	rates := map[string]float64{}
	for _, c := range res.Cells {
		if c.Engine == "" {
			t.Fatalf("multi-engine cell %s ch=%q has no engine label", c.Protocol, c.Channel)
		}
		key := c.Engine + "/" + c.Channel
		rates[key] = c.ConvergedRate
		if c.Channel == "" && (c.ConvergedRate != 1 || c.ValidRate != 1) {
			t.Fatalf("reliable %s cell rates (%g, %g), want (1, 1)", c.Engine, c.ConvergedRate, c.ValidRate)
		}
	}
	if r := rates["async-tolerant/drop-10"]; r != 1 {
		t.Fatalf("αβ hybrid converged rate %g under 10%% loss, want 1", r)
	}
	if r := rates["async/drop-10"]; r >= rates["async-tolerant/drop-10"] {
		t.Fatalf("α converged rate %g under loss not below the hybrid's %g — the gap the axis measures is gone",
			r, rates["async-tolerant/drop-10"])
	}
	// The hybrid's loss tolerance is not free: on the reliable baseline
	// its re-pulse timers never fire but its phase structure is the
	// same, so time-unit cost must be in the same regime — the overhead
	// bench pins the exact ratio; here we only require both measured.
	for _, c := range res.Cells {
		if c.Channel == "" && c.Rounds.Mean <= 0 {
			t.Fatalf("reliable %s cell has no time-unit measurement", c.Engine)
		}
	}
	if res.RoundsUnit != "time-units" || res.TxUnit != "steps" {
		t.Fatalf("all-async axis units = (%s, %s), want (time-units, steps)", res.RoundsUnit, res.TxUnit)
	}
}

// TestEngineAxisSingleMatchesImplicit pins the implicit-axis contract:
// engines:["sync"] must aggregate bit-identically to the pre-axis
// engine:"sync" spec — same seeds, same cells — differing only in the
// per-cell engine label.
func TestEngineAxisSingleMatchesImplicit(t *testing.T) {
	explicit := engineAxisSpec(1)
	explicit.Engines = []string{"sync"}
	explicit.MaxSteps = 0
	explicit.MaxRounds = 1 << 13
	implicit := explicit
	implicit.Engines = nil
	implicit.Engine = "sync"

	a, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(implicit)
	if err != nil {
		t.Fatal(err)
	}
	a.StripWall()
	b.StripWall()
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts diverge: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ac, bc := a.Cells[i], b.Cells[i]
		if ac.Engine != "sync" || bc.Engine != "" {
			t.Fatalf("engine labels = (%q, %q), want (sync, empty)", ac.Engine, bc.Engine)
		}
		ac.Engine, bc.Engine = "", ""
		if !reflect.DeepEqual(ac, bc) {
			t.Fatalf("cell %d diverges between explicit and implicit single-engine specs", i)
		}
	}
}

// TestEngineAxisSyncPacked pins the bit-plane backend as an engine-axis
// value: a ["sync", "sync-packed"] sweep must produce pairwise
// bit-identical aggregates (the packed executor is the same machine on
// a different layout), sync units, and distinct cell labels.
func TestEngineAxisSyncPacked(t *testing.T) {
	sp := Spec{
		Name:      "test-sync-packed",
		Protocols: []string{"mis", "ssmis"},
		Engines:   []string{"sync", "sync-packed"},
		Families:  []Family{{Kind: "gnp"}, {Kind: "cycle"}},
		Sizes:     []int{48},
		Trials:    3,
		Seed:      17,
		MaxRounds: 1 << 13,
	}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsUnit != "rounds" || res.TxUnit != "transmissions" {
		t.Fatalf("all-sync axis units = (%s, %s), want (rounds, transmissions)", res.RoundsUnit, res.TxUnit)
	}
	res.StripWall()
	byEngine := map[string][]CellResult{}
	for _, c := range res.Cells {
		key := c.Engine
		if key != "sync" && key != "sync-packed" {
			t.Fatalf("unexpected engine label %q", key)
		}
		c.Engine = ""
		byEngine[key] = append(byEngine[key], c)
	}
	if len(byEngine["sync"]) == 0 || len(byEngine["sync"]) != len(byEngine["sync-packed"]) {
		t.Fatalf("cell counts diverge: %d sync vs %d sync-packed",
			len(byEngine["sync"]), len(byEngine["sync-packed"]))
	}
	if !reflect.DeepEqual(byEngine["sync"], byEngine["sync-packed"]) {
		t.Fatal("sync and sync-packed aggregates diverge — the backends are not bit-identical")
	}
}

// votedAxisSpec pits the αβ hybrid against the voted αβv tier on the
// two hostile cells the voted tier exists for: letter corruption
// (outvoted) and Byzantine silence (evicted).
func votedAxisSpec(workers int) Spec {
	return Spec{
		Name:      "test-voted",
		Protocols: []string{"mis"},
		Engines:   []string{"async-tolerant", "async-voted"},
		Families:  []Family{{Kind: "gnp"}},
		Sizes:     []int{24},
		Channels: []channel.Def{
			{},
			{Corrupt: 0.05, Label: "corrupt-5"},
			{Byz: []channel.ByzDef{{Behavior: channel.BehaviorSilent, Frac: 0.1}}, Label: "byz-silent"},
		},
		Trials:   4,
		Seed:     41,
		MaxSteps: 1 << 19,
		Workers:  workers,
	}
}

// TestEngineAxisVoted is the campaign-level measurement of the voted
// tier's claims: corrupted receipts are outvoted and Byzantine-silent
// edges are evicted on cells where the αβ hybrid mis-decodes or
// stalls, while the reliable baseline stays at the hybrid's exact
// time-unit cost with zero evictions.
func TestEngineAxisVoted(t *testing.T) {
	res, err := Run(votedAxisSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(res.Cells))
	}
	cells := map[string]CellResult{}
	for _, c := range res.Cells {
		cells[c.Engine+"/"+c.Channel] = c
		// The hybrid has no vote and no eviction clock: its Outvoted
		// column (summarized on every channel cell) must read zero, and
		// its Evicted column must be absent entirely.
		if c.Engine == "async-tolerant" && (c.Outvoted.Mean != 0 || c.Evicted.N != 0) {
			t.Fatalf("hybrid cell ch=%q carries voted aggregates: outvoted %+v, evicted %+v",
				c.Channel, c.Outvoted, c.Evicted)
		}
	}
	// Reliable baseline: both tiers at unit survival, bit-identical
	// time-unit cost (the K-th burst copy lands when the single αβ copy
	// would), and nothing evicted.
	vr, tr := cells["async-voted/"], cells["async-tolerant/"]
	if vr.ConvergedRate != 1 || vr.ValidRate != 1 {
		t.Fatalf("voted reliable rates (%g, %g), want (1, 1)", vr.ConvergedRate, vr.ValidRate)
	}
	if vr.Rounds != tr.Rounds {
		t.Fatalf("voted reliable time-units %+v diverge from the hybrid's %+v", vr.Rounds, tr.Rounds)
	}
	if vr.Evicted.N == 0 || vr.Evicted.Mean != 0 {
		t.Fatalf("voted reliable Evicted = %+v, want measured zero", vr.Evicted)
	}
	// Corruption: the vote refuses the flipped letters the hybrid
	// believes.
	vc, tc := cells["async-voted/corrupt-5"], cells["async-tolerant/corrupt-5"]
	if vc.ValidRate != 1 {
		t.Fatalf("voted corrupt-5 valid rate %g, want 1", vc.ValidRate)
	}
	if tc.ValidRate >= vc.ValidRate {
		t.Fatalf("hybrid corrupt-5 valid rate %g not below the voted tier's %g — the gap the tier closes is gone",
			tc.ValidRate, vc.ValidRate)
	}
	if vc.Outvoted.Mean <= 0 {
		t.Fatalf("voted corrupt-5 Outvoted = %+v, want positive mean", vc.Outvoted)
	}
	// Byzantine silence: eviction unsticks the pausing feature the
	// hybrid deadlocks on.
	vb, tb := cells["async-voted/byz-silent"], cells["async-tolerant/byz-silent"]
	if vb.ConvergedRate != 1 || vb.ValidRate != 1 {
		t.Fatalf("voted byz-silent rates (%g, %g), want (1, 1)", vb.ConvergedRate, vb.ValidRate)
	}
	if tb.ConvergedRate >= vb.ConvergedRate {
		t.Fatalf("hybrid byz-silent converged rate %g not below the voted tier's %g",
			tb.ConvergedRate, vb.ConvergedRate)
	}
	if vb.Evicted.Mean <= 0 {
		t.Fatalf("voted byz-silent Evicted = %+v, want positive mean", vb.Evicted)
	}
}

// TestEngineAxisVotedWorkerInvariance pins the new Outvoted/Evicted
// aggregates to the axis acceptance property: identical at every
// worker count, because they derive from per-trial content seeds.
func TestEngineAxisVotedWorkerInvariance(t *testing.T) {
	base, err := Run(votedAxisSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	base.StripWall()
	for _, workers := range []int{3, 8} {
		got, err := Run(votedAxisSpec(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got.StripWall()
		if !reflect.DeepEqual(got.Cells, base.Cells) {
			t.Fatalf("workers=%d: voted aggregates diverged from workers=1", workers)
		}
	}
}

// TestEngineAxisWorkerInvariance: identical aggregates at every worker
// count, like every other axis.
func TestEngineAxisWorkerInvariance(t *testing.T) {
	base, err := Run(engineAxisSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	base.StripWall()
	got, err := Run(engineAxisSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	got.StripWall()
	if !reflect.DeepEqual(got.Cells, base.Cells) {
		t.Fatal("engine-axis aggregates diverged across worker counts")
	}
}

// TestEngineAxisValidation covers the axis's rejection cases.
func TestEngineAxisValidation(t *testing.T) {
	base := func(mut func(*Spec)) Spec {
		sp := Spec{
			Protocols: []string{"mis"}, Families: []Family{{Kind: "gnp"}},
			Sizes: []int{8}, Trials: 1,
		}
		mut(&sp)
		return sp
	}
	cases := []struct {
		name string
		sp   Spec
		want string
	}{
		{"both fields", base(func(sp *Spec) { sp.Engine = "sync"; sp.Engines = []string{"async"} }), "mutually exclusive"},
		{"unknown engine", base(func(sp *Spec) { sp.Engines = []string{"warp"} }), "unknown engine"},
		{"unknown single engine", base(func(sp *Spec) { sp.Engine = "warp" }), "unknown engine"},
		{"duplicate engine", base(func(sp *Spec) { sp.Engines = []string{"async", "async"} }), "duplicate engine"},
		{"sync-only protocol", base(func(sp *Spec) {
			sp.Protocols = []string{"matching"}
			sp.Engines = []string{"sync", "async-tolerant"}
		}), "sync engine only"},
		{"packed scenario clash", base(func(sp *Spec) {
			sp.Engines = []string{"sync", "sync-packed"}
			sp.Scenarios = []scenario.Def{{Kind: "crash"}}
		}), "static-topology only"},
		{"packed channel clash", base(func(sp *Spec) {
			sp.Engine = "sync-packed"
			sp.Channels = []channel.Def{{Drop: 0.1}}
		}), "reliable-links only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sp.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.want)
			}
		})
	}
	// The tolerant engine alone is a valid single-value axis, and
	// "async-tolerant" is accepted in the scalar Engine field too.
	ok := base(func(sp *Spec) { sp.Engines = []string{"async-tolerant"} })
	if err := ok.Validate(); err != nil {
		t.Fatalf("async-tolerant axis rejected: %v", err)
	}
	ok = base(func(sp *Spec) { sp.Engine = "async-tolerant" })
	if err := ok.Validate(); err != nil {
		t.Fatalf("scalar async-tolerant engine rejected: %v", err)
	}
	// sync-packed is valid alone, and next to "none" axis baselines.
	ok = base(func(sp *Spec) {
		sp.Engines = []string{"sync", "sync-packed"}
		sp.Scenarios = []scenario.Def{{Kind: "none"}}
		sp.Channels = []channel.Def{{}}
	})
	if err := ok.Validate(); err != nil {
		t.Fatalf("sync-packed with baseline axes rejected: %v", err)
	}
}

// TestLookupAmbiguousPanics pins that Lookup refuses to pick among the
// cells of an engines axis: (protocol, family, size) names two cells
// here, and the panic names both engines.
func TestLookupAmbiguousPanics(t *testing.T) {
	res, err := Run(Spec{
		Name:      "test-lookup",
		Protocols: []string{"mis"},
		Engines:   []string{"sync", "async"},
		Families:  []Family{{Kind: "cycle"}},
		Sizes:     []int{12},
		Trials:    1,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	fam := res.Cells[0].Family
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "ambiguous") || !strings.Contains(msg, `"sync"`) || !strings.Contains(msg, `"async"`) {
			t.Fatalf("Lookup on a two-engine spec: recovered %q, want an ambiguity panic naming both engines", msg)
		}
	}()
	c := res.Lookup("mis", fam, 12)
	t.Fatalf("Lookup returned the %q cell instead of panicking", c.Engine)
}
