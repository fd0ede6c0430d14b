// Package campaign turns the repository's one-off experiment runs into
// declarative, parallel, reproducible sweeps. A Spec names a cross
// product — protocols × dynamic-network scenarios × graph families × a
// size ladder — plus a trial count and an engine; Run fans the trials
// out over a worker pool, derives every trial's seeds (protocol coins,
// graph instance, scenario schedule) deterministically from its
// coordinates (so trial i is reproducible in isolation and the
// aggregates are identical at every worker count), reuses the compiled
// engine.MachineCode across all trials of a protocol, and summarizes
// each cell into harness.Stats aggregates — including recovery-time
// stats for dynamic cells — with JSON/CSV emitters.
//
// The paper's claims are statistical — round counts are expectations
// over coins, graphs and schedules — and a campaign is the unit at
// which those expectations are measured: every protocol-grid table of
// cmd/experiments is a campaign, and `stonesim sweep -spec file.json`
// runs one from the command line.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/protocol"
	"stoneage/internal/scenario"
	"stoneage/internal/xrand"
)

// Family selects one graph family of a sweep. Param is interpreted per
// kind (see familyDefs); nil (omitted in JSON) selects the kind's
// default, and an explicit value — including 0, e.g. the β=0 pure
// small-world lattice — is taken as given. Label, when set, overrides
// the display name in tables and emitted rows.
type Family struct {
	Kind  string   `json:"kind"`
	Param *float64 `json:"param,omitempty"`
	Label string   `json:"label,omitempty"`
}

// Param wraps a literal parameter value for a Family composed in Go
// (JSON specs just write the number).
func Param(v float64) *float64 { return &v }

// param resolves the family's effective parameter.
func (f Family) param() float64 {
	if f.Param != nil {
		return *f.Param
	}
	return familyDefs[f.Kind].defaultParam
}

// Name returns the family's display name.
func (f Family) Name() string {
	if f.Label != "" {
		return f.Label
	}
	def, ok := familyDefs[f.Kind]
	if ok && f.Param != nil && *f.Param != def.defaultParam {
		return fmt.Sprintf("%s(%g)", f.Kind, *f.Param)
	}
	return f.Kind
}

// familyDef describes one graph family kind: how to build an instance,
// whether every instance is a tree or a graph.Path-ordered path
// (tree-only and path-only protocol capabilities are checked against
// these flags statically in Spec.Validate), and — for parameterized
// kinds — the parameter's valid domain.
type familyDef struct {
	tree         bool
	path         bool
	defaultParam float64
	paramCheck   func(p float64) error // nil: the kind takes no parameter
	build        func(n int, param float64, src *xrand.Source) *graph.Graph
}

// validateParam checks the family's parameter against its kind's
// domain; parameterless kinds reject an explicit parameter outright (a
// stray param would silently do nothing while still perturbing seeds).
// The caller ensures the kind is known.
func (f Family) validateParam() error {
	def := familyDefs[f.Kind]
	if def.paramCheck == nil {
		if f.Param != nil {
			return fmt.Errorf("campaign: family %q takes no parameter (got %g)", f.Kind, *f.Param)
		}
		return nil
	}
	if err := def.paramCheck(f.param()); err != nil {
		return fmt.Errorf("campaign: family %q: %w", f.Kind, err)
	}
	return nil
}

func side(n int) int { return int(math.Round(math.Sqrt(float64(n)))) }

func positiveParam(what string) func(float64) error {
	return func(p float64) error {
		if p <= 0 {
			return fmt.Errorf("%s must be positive, got %g", what, p)
		}
		return nil
	}
}

func positiveIntParam(what string) func(float64) error {
	return func(p float64) error {
		if p < 1 || p != math.Trunc(p) {
			return fmt.Errorf("%s must be a positive integer, got %g", what, p)
		}
		return nil
	}
}

var familyDefs = map[string]familyDef{
	"gnp": {defaultParam: 4, paramCheck: positiveParam("mean degree"), build: func(n int, p float64, src *xrand.Source) *graph.Graph {
		return graph.GnpConnected(n, p/float64(n), src)
	}},
	"geometric": {defaultParam: 1.5, paramCheck: positiveParam("radius multiplier"), build: func(n int, c float64, src *xrand.Source) *graph.Graph {
		return graph.RandomGeometric(n, graph.GeometricRadius(n, c), src)
	}},
	"powerlaw": {defaultParam: 3, paramCheck: positiveIntParam("attachment count"), build: func(n int, m float64, src *xrand.Source) *graph.Graph {
		return graph.PreferentialAttachment(n, int(m), src)
	}},
	"nearregular": {defaultParam: 5, paramCheck: positiveIntParam("degree bound"), build: func(n int, d float64, src *xrand.Source) *graph.Graph {
		return graph.NearRegular(n, int(d), src)
	}},
	"smallworld": {defaultParam: 0.1, paramCheck: func(p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("rewiring probability must be in [0,1], got %g", p)
		}
		return nil
	}, build: func(n int, beta float64, src *xrand.Source) *graph.Graph {
		return graph.SmallWorld(n, 4, beta, src)
	}},
	"grid": {build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.Grid(side(n), side(n))
	}},
	"torus": {build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.Torus(side(n), side(n))
	}},
	"lattice": {build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.ProneuralLattice(side(n), side(n))
	}},
	"cycle": {build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.Cycle(n)
	}},
	"clique": {build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.Clique(n)
	}},
	"tree": {tree: true, build: func(n int, _ float64, src *xrand.Source) *graph.Graph {
		return graph.RandomTree(n, src)
	}},
	"path": {tree: true, path: true, build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.Path(n)
	}},
	"star": {tree: true, build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.Star(n)
	}},
	"binary": {tree: true, build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.BinaryTree(n)
	}},
	"caterpillar": {tree: true, build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.Caterpillar(n)
	}},
	"broom": {tree: true, build: func(n int, _ float64, _ *xrand.Source) *graph.Graph {
		return graph.Broom(n)
	}},
}

// FamilyKinds returns the known family kinds, sorted.
func FamilyKinds() []string {
	out := make([]string, 0, len(familyDefs))
	for k := range familyDefs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BuildGraph constructs one instance of the family at size n from the
// given seed. Deterministic families ignore the seed; every instance is
// checked against graph.Validate before it is returned.
func BuildGraph(f Family, n int, seed uint64) (*graph.Graph, error) {
	def, ok := familyDefs[f.Kind]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown graph family %q (known: %v)", f.Kind, FamilyKinds())
	}
	if err := f.validateParam(); err != nil {
		return nil, err
	}
	g := def.build(n, f.param(), xrand.NewStream(seed, fnv(f.Kind)))
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %s n=%d: %w", f.Name(), n, err)
	}
	return g, nil
}

// Spec is a declarative campaign: the full cross product
// Protocols × Families × Sizes, with Trials runs per cell.
type Spec struct {
	// Name labels the campaign in reports.
	Name string `json:"name,omitempty"`
	// Protocols to sweep, by registry name (see protocol.Names();
	// `stonesim protocols` lists them with capabilities and parameter
	// domains).
	Protocols []string `json:"protocols"`
	// Engine is "sync" (locally synchronous, default), "sync-packed"
	// (the same semantics on the bit-plane backend — bit-identical
	// aggregates, forced rather than auto-selected), "async" (the
	// Theorem 3.1/3.4 α-synchronizer under an adversary),
	// "async-tolerant" (the loss-tolerant αβ-hybrid synchronizer) or
	// "async-voted" (the voted tier: k-of-(2k−1) pulse decoding,
	// dead-edge eviction, adaptive re-pulse backoff).
	Engine string `json:"engine,omitempty"`
	// Engines is the execution-engine axis: each entry is one of the
	// Engine values, swept against every (protocol, scenario, channel,
	// family, size) cell. Mutually exclusive with Engine; empty means
	// the single engine Engine selects (exactly the pre-axis campaign).
	// The engine never enters seed derivation: every engine of a sweep
	// replays identical graph instances, scenario schedules and channel
	// pathology, which is what makes its rows comparable — the whole
	// point of sweeping α against αβ under loss.
	Engines []string `json:"engines,omitempty"`
	// Adversary names the async scheduling policy (default "uniform");
	// ignored by the sync engine.
	Adversary string `json:"adversary,omitempty"`
	// Families and Sizes span the topology grid.
	Families []Family `json:"families"`
	Sizes    []int    `json:"sizes"`
	// Trials is the number of runs per (protocol, family, size) cell.
	Trials int `json:"trials"`
	// Seed keys every derived per-trial seed (see TrialSeed).
	Seed uint64 `json:"seed,omitempty"`
	// MaxRounds / MaxSteps bound each trial (0 = engine defaults).
	MaxRounds int   `json:"maxRounds,omitempty"`
	MaxSteps  int64 `json:"maxSteps,omitempty"`
	// Scenarios is the dynamic-network axis: each entry is a scenario
	// generator (one-shot region crash, Poisson edge churn, staggered
	// wake-up, or the static "none" baseline) swept against every
	// (protocol, family, size) cell. Empty means one static axis —
	// exactly the pre-scenario campaign. Every trial generates its own
	// scenario instance from a content-derived seed (ScenarioSeed), so
	// aggregates stay bit-identical at any worker count. Requires
	// engine-hosted protocols; topology-churning kinds are rejected for
	// tree-only and path-only protocols (the mutations would break the
	// graph shape the protocol needs).
	Scenarios []scenario.Def `json:"scenarios,omitempty"`
	// Channels is the unreliable-channel axis: each entry is a channel
	// definition (loss, duplication, reordering, corruption rates plus
	// Byzantine node populations — see channel.Def) swept against every
	// (protocol, scenario, family, size) cell. Empty means one reliable
	// axis — exactly the pre-channel campaign. Every trial derives its
	// own channel seed (ChannelSeed) from content coordinates, so
	// aggregates stay bit-identical at any worker count. Unlike every
	// other axis, a pathological channel cell never hard-fails on
	// non-convergence or an invalid output: the cell's ConvergedRate and
	// ValidRate record how often the protocol survived, which is the
	// robustness measurement itself. Requires engine-hosted protocols.
	Channels []channel.Def `json:"channels,omitempty"`
	// GraphPerTrial draws a fresh graph instance for every trial instead
	// of sharing one instance per cell. Sharing (the default) amortizes
	// generation and the CSR bind across trials and isolates the
	// variance of the protocol's coins; per-trial graphs additionally
	// average over the family's randomness.
	GraphPerTrial bool `json:"graphPerTrial,omitempty"`
	// Workers sizes the trial worker pool (0 = GOMAXPROCS). Aggregates
	// are identical for every value.
	Workers int `json:"workers,omitempty"`
}

// Validate checks the spec's static well-formedness: protocols found in
// the registry, known engine and families; capability compatibility
// (tree-only and path-only protocols paired with tree/path families,
// sync-only protocols kept off the async engine); positive sizes and
// trials. The protocol registry is the single source of protocol truth:
// a protocol registered anywhere in the process is sweepable here with
// no campaign edits.
func (sp *Spec) Validate() error {
	if len(sp.Protocols) == 0 {
		return fmt.Errorf("campaign: spec has no protocols")
	}
	if len(sp.Engines) > 0 && sp.Engine != "" {
		return fmt.Errorf("campaign: engine and engines are mutually exclusive")
	}
	engs := sp.engineAxis()
	seenEng := map[string]bool{}
	anyAsync := false
	for _, eng := range engs {
		if eng != "sync" && eng != "sync-packed" && eng != "async" && eng != "async-tolerant" && eng != "async-voted" {
			return fmt.Errorf("campaign: unknown engine %q (want sync, sync-packed, async, async-tolerant or async-voted)", eng)
		}
		if seenEng[eng] {
			return fmt.Errorf("campaign: duplicate engine %q", eng)
		}
		seenEng[eng] = true
		anyAsync = anyAsync || (eng != "sync" && eng != "sync-packed")
	}
	if anyAsync {
		if _, ok := engine.NamedAdversaries(0)[sp.adversary()]; !ok {
			return fmt.Errorf("campaign: unknown adversary %q", sp.adversary())
		}
	}
	// The bit-plane backend runs static, reliable cells only; catch the
	// clash here rather than as a per-trial engine error mid-sweep.
	if seenEng["sync-packed"] {
		for _, d := range sp.Scenarios {
			if !d.None() {
				return fmt.Errorf("campaign: engine sync-packed cannot run scenario %q (the packed backend is static-topology only)", d.Name())
			}
		}
		for _, d := range sp.Channels {
			if !d.None() {
				return fmt.Errorf("campaign: engine sync-packed cannot run channel %q (the packed backend is reliable-links only)", d.Name())
			}
		}
	}
	seen := map[string]bool{}
	for _, p := range sp.Protocols {
		d, err := protocol.Lookup(p)
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if seen[p] {
			return fmt.Errorf("campaign: duplicate protocol %q", p)
		}
		seen[p] = true
		if d.Caps.Has(protocol.CapSyncOnly) && anyAsync {
			return fmt.Errorf("campaign: protocol %q runs on the sync engine only", p)
		}
		// The tolerance-declaration hygiene the reorder-overclaim fix
		// pinned: a protocol may only claim reorder tolerance together
		// with the window bound it was measured at, so a sweep's
		// tolerance columns always name a bounded claim.
		if d.Caps.Has(protocol.CapToleratesReorder) && d.ReorderWindow <= 0 {
			return fmt.Errorf("campaign: protocol %q declares reorder tolerance without a measured window bound", p)
		}
		// Same hygiene for the Byzantine claim: tolerance exists only at
		// a measured dead-edge eviction bound (registry validate enforces
		// this at registration; re-checked here so a descriptor built by
		// hand cannot smuggle an unbounded claim into a sweep).
		if d.Caps.Has(protocol.CapToleratesByzantine) && d.EvictionBound <= 0 {
			return fmt.Errorf("campaign: protocol %q declares byzantine tolerance without a measured eviction bound", p)
		}
		for _, f := range sp.Families {
			fd, ok := familyDefs[f.Kind]
			if !ok {
				return fmt.Errorf("campaign: unknown graph family %q (known: %v)", f.Kind, FamilyKinds())
			}
			switch {
			case d.Caps.Has(protocol.CapNeedsPath) && !fd.path:
				return fmt.Errorf("campaign: protocol %q needs path families, but %q is not one", p, f.Kind)
			case d.Caps.Has(protocol.CapNeedsTree) && !fd.tree:
				return fmt.Errorf("campaign: protocol %q needs tree families, but %q is not one", p, f.Kind)
			}
		}
		for _, s := range sp.Scenarios {
			if s.None() {
				continue
			}
			if d.Machine == nil {
				return fmt.Errorf("campaign: protocol %q cannot run scenario %q (bespoke engine, no scenario hook)", p, s.Name())
			}
			if s.Kind == "churn" && (d.Caps.Has(protocol.CapNeedsTree) || d.Caps.Has(protocol.CapNeedsPath)) {
				return fmt.Errorf("campaign: protocol %q needs a fixed graph shape, but scenario %q churns the topology", p, s.Name())
			}
		}
		for _, ch := range sp.Channels {
			if ch.None() {
				continue
			}
			if d.Machine == nil {
				return fmt.Errorf("campaign: protocol %q cannot run channel %q (bespoke engine, no channel hook)", p, ch.Name())
			}
		}
	}
	if len(sp.Families) == 0 {
		return fmt.Errorf("campaign: spec has no graph families")
	}
	// Duplicate families or sizes would run identical cells (seeds are
	// content-derived), silently double-weighting them in any
	// downstream averaging. The key deliberately excludes Label — a
	// label changes only the display name, not the data.
	seenFam := map[string]bool{}
	for _, f := range sp.Families {
		if err := f.validateParam(); err != nil {
			return err
		}
		key := fmt.Sprintf("%s/%g", f.Kind, f.param())
		if seenFam[key] {
			return fmt.Errorf("campaign: duplicate family %s", f.Name())
		}
		seenFam[key] = true
	}
	if len(sp.Sizes) == 0 {
		return fmt.Errorf("campaign: spec has no sizes")
	}
	seenSize := map[int]bool{}
	for _, n := range sp.Sizes {
		if n < 1 {
			return fmt.Errorf("campaign: non-positive size %d", n)
		}
		if seenSize[n] {
			return fmt.Errorf("campaign: duplicate size %d", n)
		}
		seenSize[n] = true
	}
	seenScn := map[string]bool{}
	for _, s := range sp.Scenarios {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if seenScn[s.Key()] {
			return fmt.Errorf("campaign: duplicate scenario %s", s.Name())
		}
		seenScn[s.Key()] = true
	}
	seenCh := map[string]bool{}
	for _, ch := range sp.Channels {
		if err := ch.Validate(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if seenCh[ch.Key()] {
			return fmt.Errorf("campaign: duplicate channel %s", ch.Name())
		}
		seenCh[ch.Key()] = true
	}
	if sp.Trials < 1 {
		return fmt.Errorf("campaign: trials must be >= 1, got %d", sp.Trials)
	}
	return nil
}

// scenarioAxis returns the scenario axis of the cross product: the
// spec's scenarios, or the single static baseline when none are given
// (which reproduces the pre-scenario campaign bit for bit — the
// implicit "none" does not perturb any seed derivation).
func (sp *Spec) scenarioAxis() []scenario.Def {
	if len(sp.Scenarios) == 0 {
		return []scenario.Def{{}}
	}
	return sp.Scenarios
}

// channelAxis returns the channel axis of the cross product: the spec's
// channels, or the single reliable baseline when none are given (the
// implicit "none" does not perturb any seed derivation).
func (sp *Spec) channelAxis() []channel.Def {
	if len(sp.Channels) == 0 {
		return []channel.Def{{}}
	}
	return sp.Channels
}

func (sp *Spec) engine() string {
	if sp.Engine == "" {
		return "sync"
	}
	return sp.Engine
}

// engineAxis returns the execution-engine axis of the cross product:
// the spec's engines, or the single engine Engine selects when none are
// given. Like the other implicit axes the single-engine form does not
// perturb any seed derivation; unlike them the engine never enters
// seeds at all, so every engine of a multi-engine sweep replays the
// same per-trial randomness.
func (sp *Spec) engineAxis() []string {
	if len(sp.Engines) == 0 {
		return []string{sp.engine()}
	}
	return sp.Engines
}

func (sp *Spec) adversary() string {
	if sp.Adversary == "" {
		return "uniform"
	}
	return sp.Adversary
}

// fnv folds campaign coordinates into seed derivations without
// positional coupling (reordering the spec's lists does not change any
// trial's seed).
var fnv = xrand.FNV

const (
	saltTrial     = 0x7472_6961_6c00 // "trial"
	saltGraph     = 0x6772_6170_6800 // "graph"
	saltAdversary = 0x6164_7600      // "adv"
	saltScenario  = 0x7363_6e00      // "scn"
	saltChannel   = 0x6368_616e00    // "chan"
)

// TrialSeed derives the seed of one trial from its content coordinates:
// it depends on the spec seed, the protocol, the family (kind and
// parameter), the size and the trial index — not on the position of any
// of these in the spec's lists or on the worker schedule. A single
// trial is therefore exactly reproducible in isolation.
func (sp *Spec) TrialSeed(protocol string, f Family, size, trial int) uint64 {
	return xrand.Mix(sp.Seed, saltTrial, fnv(protocol), fnv(f.Kind),
		math.Float64bits(f.param()), uint64(size), uint64(trial))
}

// GraphSeed derives the seed of the graph instance a trial runs on. It
// is independent of the protocol, so all protocols of a sweep see the
// same topology sample. With GraphPerTrial unset every trial of a cell
// shares instance 0.
func (sp *Spec) GraphSeed(f Family, size, trial int) uint64 {
	if !sp.GraphPerTrial {
		trial = 0
	}
	return xrand.Mix(sp.Seed, saltGraph, fnv(f.Kind),
		math.Float64bits(f.param()), uint64(size), uint64(trial))
}

// ScenarioSeed derives the seed of the scenario instance one trial runs
// under. Like TrialSeed it is a pure function of content coordinates —
// the spec seed, the scenario's generator key, the family, the size and
// the trial index — so trial i's churn schedule is reproducible in
// isolation and independent of the worker schedule. It is independent
// of the protocol: every protocol of a sweep faces the same sequence of
// perturbations, which is what makes their recovery columns comparable.
func (sp *Spec) ScenarioSeed(s scenario.Def, f Family, size, trial int) uint64 {
	return xrand.Mix(sp.Seed, saltScenario, fnv(s.Key()), fnv(f.Kind),
		math.Float64bits(f.param()), uint64(size), uint64(trial))
}

// ChannelSeed derives the seed keying one trial's channel model and
// Byzantine node draw. Like ScenarioSeed it is a pure function of
// content coordinates and independent of the protocol: every protocol
// of a sweep faces identical per-trial channel pathology, which is what
// makes their survival columns comparable.
func (sp *Spec) ChannelSeed(ch channel.Def, f Family, size, trial int) uint64 {
	return xrand.Mix(sp.Seed, saltChannel, fnv(ch.Key()), fnv(f.Kind),
		math.Float64bits(f.param()), uint64(size), uint64(trial))
}

// ReadSpec decodes a Spec from JSON, rejecting unknown fields (a typo'd
// knob silently reverting to a default would invalidate a sweep).
func ReadSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("campaign: decoding spec: %w", err)
	}
	return sp, sp.Validate()
}

// LoadSpec reads a Spec from a JSON file.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	sp, err := ReadSpec(f)
	if err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}
