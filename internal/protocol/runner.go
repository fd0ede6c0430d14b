package protocol

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// This file is the shared generic runner every protocol's
// SolveSync/SolveAsync entry point routes through: argument resolution
// against the declared domains, capability checks against the bound
// graph, the once-per-argument-vector MachineCode cache, and the
// sync/async executors.
//
// The cache holds one slot per tier: the synchronous machine and each
// of its synchronizer compilations (α, the loss-tolerant αβ hybrid and
// the voted αβv tier). Callers of one tier never pay for another's
// compile, and no two tiers share a machine: their state spaces differ
// (the tolerant descriptors carry re-pulse bookkeeping), so sharing
// would silently swap one semantics for another — and although the
// voted machine is the tolerant state machine verbatim, sharing its
// slot would share interning order between runs that must stay
// independently reproducible.
//
// Within a tier the synchronizer-compiled machine is cached and shared
// across runs and goroutines. Synchro machines intern their state sets
// lazily during execution, so the *numbering* of compiled states
// depends on which run interned them first — but nothing observable
// does: moves are chosen by index from rows whose length and order are
// interning-invariant, emitted letters and output membership are
// properties of the state descriptor, and every consumer decodes final
// states back to source states through the same machine instance. The
// differential wall (compiled vs reference engine) runs on shared
// machines and stays bit-identical. Sharing is what lets a campaign
// worker's trials — and repeated SolveAsync calls — skip the state
// re-interning that used to dominate the async allocation profile.

// SyncConfig parameterizes a synchronous protocol run.
type SyncConfig struct {
	// Seed keys every random choice.
	Seed uint64
	// MaxRounds bounds the run (0 = engine default).
	MaxRounds int
	// Workers shards the engine's round loop (0 = GOMAXPROCS); results
	// are bit-identical for every value. Bespoke engines ignore it.
	Workers int
	// Observer, when non-nil, sees every round's state vector.
	// Engine-hosted protocols only.
	Observer func(round int, states []nfsm.State)
	// Scenario, when non-nil and non-empty, makes the run dynamic
	// (engine-hosted protocols only). A scenario.ResetAuto policy is
	// resolved here against the protocol's capabilities:
	// self-stabilizing protocols run under ResetNone, the rest under
	// ResetAll.
	Scenario *scenario.Scenario
	// Channel, when non-nil, subjects every transmission to an
	// unreliable-link model (engine-hosted protocols only; see package
	// channel).
	Channel channel.Model
	// Backend selects the synchronous executor (engine-hosted protocols
	// only): empty auto-selects, engine.BackendFlat / engine.BackendPacked
	// force one. All backends are bit-identical where they overlap; see
	// engine.SyncConfig.Backend. Bespoke engines ignore it.
	Backend string
}

// AsyncConfig parameterizes an asynchronous protocol run.
type AsyncConfig struct {
	// Seed keys the protocol's random choices.
	Seed uint64
	// Adversary schedules steps and message delays (nil = synchronous).
	Adversary engine.Adversary
	// MaxSteps bounds the run (0 = engine default).
	MaxSteps int64
	// Scenario, when non-nil and non-empty, makes the run dynamic;
	// batch times are absolute asynchronous times. ResetAuto resolves
	// as in SyncConfig.
	Scenario *scenario.Scenario
	// Channel, when non-nil, subjects every transmission to an
	// unreliable-link model (see package channel).
	Channel channel.Model
	// Synchro selects the synchronizer compilation: "" or "alpha" is
	// the paper's Theorem 3.1/3.4 α-synchronizer; "tolerant" is the
	// αβ hybrid (bounded re-pulse on stall timeout) that survives
	// lossy channels at a time-unit overhead; "voted" is the αβ
	// machine under the voted engine contract (k-of-(2k−1) pulse
	// decoding, dead-edge eviction, adaptive re-pulse backoff) that
	// additionally survives corruption and Byzantine silence. The
	// compilations never share cache slots.
	Synchro string
	// VoteK, EvictAfter and RePulseCap tune the voted synchronizer
	// (Synchro = SynchroVoted; ignored otherwise). Zero selects the
	// defaults — see engine.VotedConfig.
	VoteK      int
	EvictAfter int
	RePulseCap int
}

// Synchronizer names accepted by AsyncConfig.Synchro.
const (
	SynchroAlpha    = "alpha"
	SynchroTolerant = "tolerant"
	SynchroVoted    = "voted"
)

// ResolveArgs fills defaults for missing parameters and validates every
// supplied value against its declared domain. It always returns a fresh
// map (callers and Prepare hooks may mutate the result freely).
func (d *Descriptor) ResolveArgs(args Args) (Args, error) {
	out := make(Args, len(d.Params))
	for _, p := range d.Params {
		out[p.Name] = p.Default
	}
	for name, v := range args {
		p := d.paramDef(name)
		if p == nil {
			return nil, fmt.Errorf("protocol %s: unknown parameter %q (known: %s)",
				d.Name, name, strings.Join(d.paramNames(), ", "))
		}
		if v < p.Min || v > p.Max {
			return nil, fmt.Errorf("protocol %s: parameter %s = %g outside [%g,%g]",
				d.Name, name, v, p.Min, p.Max)
		}
		if p.Integer && v != float64(int64(v)) {
			return nil, fmt.Errorf("protocol %s: parameter %s = %g must be an integer",
				d.Name, name, v)
		}
		out[name] = v
	}
	return out, nil
}

func (d *Descriptor) paramDef(name string) *ParamDef {
	for i := range d.Params {
		if d.Params[i].Name == name {
			return &d.Params[i]
		}
	}
	return nil
}

func (d *Descriptor) paramNames() []string {
	out := make([]string, len(d.Params))
	for i, p := range d.Params {
		out[i] = p.Name
	}
	return out
}

// argsKey canonicalizes a resolved argument vector into the cache key.
func argsKey(args Args) string {
	if len(args) == 0 {
		return ""
	}
	names := make([]string, 0, len(args))
	for name := range args {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%g;", name, args[name])
	}
	return b.String()
}

// tier indexes the per-argument-vector cache slots (see the file
// comment).
type tier int

const (
	tierSync tier = iota
	tierAlpha
	tierTolerant
	tierVoted
	numTiers
)

// tierCompile is each tier's synchronizer compiler; the synchronous
// tier runs the protocol's machine itself.
var tierCompile = [numTiers]func(*nfsm.RoundProtocol) (*synchro.Compiled, error){
	tierSync:     nil,
	tierAlpha:    synchro.CompileRound,
	tierTolerant: synchro.CompileRoundTolerant,
	tierVoted:    synchro.CompileRoundVoted,
}

// codeSlot is one lazily compiled tier: the synchronizer compilation
// (nil on the synchronous tier) and the machine code it lowers to.
type codeSlot struct {
	once sync.Once
	m    *synchro.Compiled
	code *engine.MachineCode
	err  error
}

// codeEntry is the cache entry of one resolved argument vector.
type codeEntry [numTiers]codeSlot

// machineCode returns tier t's compiled machine and code for the
// resolved argument vector, compiling at most once per distinct vector
// and tier across the whole process (concurrent first callers block on
// the same sync.Once).
func (d *Descriptor) machineCode(args Args, t tier) (*synchro.Compiled, *engine.MachineCode, error) {
	v, _ := d.codes.LoadOrStore(argsKey(args), &codeEntry{})
	s := &v.(*codeEntry)[t]
	s.once.Do(func() {
		m, err := d.Machine(args)
		if err != nil {
			s.err = err
			return
		}
		if compile := tierCompile[t]; compile != nil {
			if s.m, s.err = compile(m); s.err != nil {
				return
			}
			s.code = engine.CompileMachine(s.m)
			return
		}
		s.code = engine.CompileMachine(m)
	})
	return s.m, s.code, s.err
}

// progSlot is one tier's machine code bound to a Bound's graph.
type progSlot struct {
	once sync.Once
	prog *engine.Program
	m    *synchro.Compiled
	err  error
}

// Bound is a protocol bound to one graph: arguments resolved (including
// graph-derived ones), capabilities checked, and — for engine-hosted
// protocols — the compiled machine code bound to the graph's CSR
// layout. Each tier's program is built lazily on its first run (an
// async-only caller never pays the sync compile or its O(n+m) bind) and
// then shared: a Bound is safe for concurrent runs, so a campaign cell
// binds once and its trials share it.
type Bound struct {
	d     *Descriptor
	g     *graph.Graph
	args  Args
	progs [numTiers]progSlot
}

// Scratch is a reusable per-worker execution arena threaded down to the
// engine: one per goroutine, reused across every run that goroutine
// executes (the campaign worker loop holds one per worker). Not safe
// for concurrent use.
type Scratch struct {
	Eng *engine.Scratch
}

// NewScratch returns a fresh arena.
func NewScratch() *Scratch { return &Scratch{Eng: engine.NewScratch()} }

func (s *Scratch) engine() *engine.Scratch {
	if s == nil {
		return nil
	}
	return s.Eng
}

// Bind resolves args against the parameter domains, enforces the
// graph-shape capabilities (tree-only, path-only), and runs the Prepare
// hook. The cached machine code is attached on first synchronous use.
func (d *Descriptor) Bind(g *graph.Graph, args Args) (*Bound, error) {
	resolved, err := d.ResolveArgs(args)
	if err != nil {
		return nil, err
	}
	switch {
	case d.Caps.Has(CapNeedsPath):
		if err := g.IsPathOrdered(); err != nil {
			return nil, fmt.Errorf("protocol %s: %w", d.Name, err)
		}
	case d.Caps.Has(CapNeedsTree):
		if !g.IsTree() {
			return nil, fmt.Errorf("protocol %s: input graph is not a tree", d.Name)
		}
	}
	if d.Prepare != nil {
		if resolved, err = d.Prepare(resolved, g); err != nil {
			return nil, err
		}
	}
	return &Bound{d: d, g: g, args: resolved}, nil
}

// program lazily binds the descriptor's cached tier-t machine code to
// the graph, once per Bound and tier (concurrent first callers block on
// the Once).
func (b *Bound) program(t tier) (*engine.Program, *synchro.Compiled, error) {
	s := &b.progs[t]
	s.once.Do(func() {
		m, code, err := b.d.machineCode(b.args, t)
		if err != nil {
			s.err = err
			return
		}
		s.m, s.prog = m, code.Bind(b.g)
	})
	return s.prog, s.m, s.err
}

// Descriptor returns the bound protocol's descriptor.
func (b *Bound) Descriptor() *Descriptor { return b.d }

// Graph returns the graph the protocol is bound to.
func (b *Bound) Graph() *graph.Graph { return b.g }

// Args returns the resolved argument vector (callers must not mutate).
func (b *Bound) Args() Args { return b.args }

// StateNames returns the bound machine's state names, or nil for
// bespoke engines (used by the CLI's trace histogram).
func (b *Bound) StateNames() []string {
	if b.d.Machine == nil {
		return nil
	}
	m, err := b.d.Machine(b.args)
	if err != nil {
		return nil
	}
	return m.StateNames
}

// resolveScenario normalizes a run's scenario: empty scenarios drop to
// nil (the static path), bespoke engines reject dynamic runs (no
// scenario hook), and a ResetAuto policy resolves against the
// protocol's capabilities — self-stabilizing protocols need no reset at
// all, while for terminating protocols a global restart is the one
// discipline that provably re-converges on the new graph.
func (b *Bound) resolveScenario(sc *scenario.Scenario) (*scenario.Scenario, error) {
	if sc.Empty() {
		return nil, nil
	}
	if b.d.Machine == nil {
		return nil, fmt.Errorf("protocol %s: dynamic scenarios unsupported (bespoke engine)", b.d.Name)
	}
	if sc.Reset == scenario.ResetAuto {
		if b.d.Caps.Has(CapSelfStabilizing) {
			sc = sc.WithReset(scenario.ResetNone)
		} else {
			sc = sc.WithReset(scenario.ResetAll)
		}
	}
	return sc, nil
}

// RunSync executes one synchronous run. Engine-hosted protocols run on
// the compiled engine through the lazily bound shared program; bespoke
// protocols run their own Solve.
func (b *Bound) RunSync(cfg SyncConfig) (*Run, error) {
	return b.RunSyncReusing(cfg, nil)
}

// RunSyncReusing executes one synchronous run reusing the given scratch
// arena (nil runs with a private one). Callers looping over runs — one
// scratch per worker goroutine — skip nearly all per-run allocation.
func (b *Bound) RunSyncReusing(cfg SyncConfig, s *Scratch) (*Run, error) {
	sc, err := b.resolveScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	if b.d.Machine == nil {
		if cfg.Observer != nil {
			return nil, fmt.Errorf("protocol %s: observer unsupported (bespoke engine)", b.d.Name)
		}
		if cfg.Channel != nil {
			return nil, fmt.Errorf("protocol %s: unreliable channels unsupported (bespoke engine)", b.d.Name)
		}
		return b.d.Solve(b.args, b.g, cfg.Seed, cfg.MaxRounds)
	}
	prog, _, err := b.program(tierSync)
	if err != nil {
		return nil, err
	}
	res, err := prog.RunSyncReusing(engine.SyncConfig{
		Seed: cfg.Seed, MaxRounds: cfg.MaxRounds,
		Workers: cfg.Workers, Observer: cfg.Observer,
		Scenario: sc, Channel: cfg.Channel,
		Backend: cfg.Backend,
	}, s.engine())
	if err != nil {
		return nil, err
	}
	states, err := b.maskByzStates(res.States, sc)
	if err != nil {
		return nil, err
	}
	out, err := b.d.Decode(b.args, states)
	if err != nil {
		return nil, err
	}
	var perturbed []float64
	for _, r := range res.PerturbedAt {
		perturbed = append(perturbed, float64(r))
	}
	return &Run{
		Output: out, Rounds: res.Rounds, Transmissions: res.Transmissions,
		PerturbedAt: perturbed, Recovery: float64(res.RecoveryRounds),
		FinalGraph: res.FinalGraph,
		Dropped:    res.Dropped, Duplicated: res.Duplicated, Delayed: res.Delayed,
		Reordered: res.Reordered, Corrupted: res.Corrupted, Severed: res.Severed,
		Byzantine: byzNodes(sc),
	}, nil
}

// maskByzStates substitutes the machine's first output state at every
// Byzantine node before decoding. A Byzantine node never runs the
// protocol, so its engine state is whatever it started in — often not
// an output state, which a strict Decode rightly rejects. The
// substituted value is arbitrary by construction; CheckRun restricts
// validation to the honest-induced subgraph, so it never participates
// in an invariant.
func (b *Bound) maskByzStates(states []nfsm.State, sc *scenario.Scenario) ([]nfsm.State, error) {
	if sc == nil || len(sc.Byzantine) == 0 {
		return states, nil
	}
	m, err := b.d.Machine(b.args)
	if err != nil {
		return nil, err
	}
	q0 := -1
	for q, out := range m.Output {
		if out {
			q0 = q
			break
		}
	}
	if q0 < 0 {
		return nil, fmt.Errorf("protocol %s: machine has no output state", b.d.Name)
	}
	masked := append([]nfsm.State(nil), states...)
	for _, z := range sc.Byzantine {
		if z.Node >= 0 && z.Node < len(masked) {
			masked[z.Node] = nfsm.State(q0)
		}
	}
	return masked, nil
}

// byzNodes extracts the Byzantine node ids of a resolved scenario.
func byzNodes(sc *scenario.Scenario) []int {
	if sc == nil || len(sc.Byzantine) == 0 {
		return nil
	}
	out := make([]int, len(sc.Byzantine))
	for i, b := range sc.Byzantine {
		out[i] = b.Node
	}
	return out
}

// RunAsync executes the protocol on the asynchronous engine under the
// configured adversary, through the descriptor's cached Theorem 3.1/3.4
// synchronizer compilation (shared across runs; see the file comment).
func (b *Bound) RunAsync(cfg AsyncConfig) (*Run, error) {
	return b.RunAsyncReusing(cfg, nil)
}

// RunAsyncReusing is RunAsync with a reusable scratch arena (nil runs
// with a private one).
func (b *Bound) RunAsyncReusing(cfg AsyncConfig, s *Scratch) (*Run, error) {
	if b.d.Caps.Has(CapSyncOnly) {
		return nil, fmt.Errorf("protocol %s runs on the sync engine only", b.d.Name)
	}
	sc, err := b.resolveScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	t := tierAlpha
	switch cfg.Synchro {
	case "", SynchroAlpha:
	case SynchroTolerant:
		t = tierTolerant
	case SynchroVoted:
		t = tierVoted
	default:
		return nil, fmt.Errorf("protocol %s: unknown synchronizer %q (want %q, %q or %q)",
			b.d.Name, cfg.Synchro, SynchroAlpha, SynchroTolerant, SynchroVoted)
	}
	prog, compiled, err := b.program(t)
	if err != nil {
		return nil, err
	}
	var vcfg *engine.VotedConfig
	if cfg.Synchro == SynchroVoted {
		vcfg = &engine.VotedConfig{
			K: cfg.VoteK, EvictAfter: cfg.EvictAfter, BackoffCap: cfg.RePulseCap,
			RePulseSource: compiled.RePulseSource,
		}
	}
	res, err := prog.RunAsyncReusing(engine.AsyncConfig{
		Seed: cfg.Seed, Adversary: cfg.Adversary, MaxSteps: cfg.MaxSteps,
		Scenario: sc, Channel: cfg.Channel, Voted: vcfg,
	}, s.engine())
	if err != nil {
		return nil, err
	}
	states, err := b.maskByzStates(compiled.DecodeStates(res.States), sc)
	if err != nil {
		return nil, err
	}
	out, err := b.d.Decode(b.args, states)
	if err != nil {
		return nil, err
	}
	return &Run{
		Output: out, TimeUnits: res.TimeUnits, Steps: res.Steps, Lost: res.Lost,
		PerturbedAt: append([]float64(nil), res.PerturbedAt...), Recovery: res.RecoveryTimeUnits,
		FinalGraph: res.FinalGraph,
		Dropped:    res.Dropped, Duplicated: res.Duplicated, Delayed: res.Delayed,
		Reordered: res.Reordered, Corrupted: res.Corrupted, Severed: res.Severed,
		Byzantine: byzNodes(sc),
		Outvoted:  res.Outvoted, VotedRejections: res.VotedRejections,
		RePulses: res.RePulses, RePulseSends: res.RePulseSends,
		EvictedEdges: res.EvictedEdges,
	}, nil
}

// Check validates out against the bound graph.
func (b *Bound) Check(out Output) error { return b.d.Check(b.args, b.g, out) }

// CheckRun validates a run's output against the graph the run actually
// ended on: the post-mutation FinalGraph for dynamic runs, the bound
// graph for static ones. Every client of dynamic execution must
// validate through this (checking a churned run against the bind-time
// topology would be checking the wrong network). Byzantine nodes are
// excluded: the output is restricted to the honest nodes and checked on
// the honest-induced subgraph, since no invariant binds a node that
// never ran the protocol.
func (b *Bound) CheckRun(run *Run) error {
	g := b.g
	if run.FinalGraph != nil {
		g = run.FinalGraph
	}
	if len(run.Byzantine) == 0 {
		return b.d.Check(b.args, g, run.Output)
	}
	keep := make([]bool, g.N())
	for i := range keep {
		keep[i] = true
	}
	for _, v := range run.Byzantine {
		if v >= 0 && v < len(keep) {
			keep[v] = false
		}
	}
	sub, orig := g.InducedSubgraph(keep)
	out, err := restrictOutput(run.Output, orig)
	if err != nil {
		return fmt.Errorf("protocol %s: %w", b.d.Name, err)
	}
	return b.d.Check(b.args, sub, out)
}

// restrictOutput projects an output onto the honest node set (orig maps
// subgraph ids to original ids). Only per-node outputs with no
// cross-node references restrict soundly; a matching's Mate entries
// point at original ids, so Byzantine exclusion is not supported there.
func restrictOutput(out Output, orig []int) (Output, error) {
	switch o := out.(type) {
	case Mask:
		sub := make(Mask, len(orig))
		for i, v := range orig {
			sub[i] = o[v]
		}
		return sub, nil
	case Colors:
		sub := make(Colors, len(orig))
		for i, v := range orig {
			sub[i] = o[v]
		}
		return sub, nil
	default:
		return nil, fmt.Errorf("byzantine validation unsupported for output type %T", out)
	}
}

// Mutate returns a corrupted copy of out that Check must reject.
func (b *Bound) Mutate(out Output, src *xrand.Source) Output {
	return b.d.Mutate(b.args, b.g, out, src)
}

// SolveSync binds and runs in one step — the convenience route the
// protocol packages' own SolveSync entry points use.
func (d *Descriptor) SolveSync(g *graph.Graph, args Args, cfg SyncConfig) (*Run, error) {
	b, err := d.Bind(g, args)
	if err != nil {
		return nil, err
	}
	return b.RunSync(cfg)
}

// SolveAsync binds and runs asynchronously in one step.
func (d *Descriptor) SolveAsync(g *graph.Graph, args Args, cfg AsyncConfig) (*Run, error) {
	b, err := d.Bind(g, args)
	if err != nil {
		return nil, err
	}
	return b.RunAsync(cfg)
}
