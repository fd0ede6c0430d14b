package main

import (
	"fmt"

	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/protocol"
	"stoneage/internal/scenario"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"

	_ "stoneage/internal/protocol/std"
)

// sizes fixes graph sizes, trial counts and step budgets. fullSizes is
// the benchmark; the self-test runs toySizes.
type sizes struct {
	largeN, treeN int // sync-large: mis G(n,4/n) and color3 random tree
	largeTrials   int // runs per sync-large graph (distinct coin seeds)
	sweepN        int
	sweepTrials   int // fresh graphs per sweep cell
	hostileN      int
	hostileMIS    int // fresh graphs per hostile mis cell
	hostileSSMIS  int // fresh graphs per hostile ssmis cell (cheap runs)
	maxSteps      int64
}

var fullSizes = sizes{
	largeN: 1_000_000, treeN: 1 << 18, largeTrials: 1,
	sweepN: 256, sweepTrials: 3,
	hostileN: 128, hostileMIS: 3, hostileSSMIS: 16,
	// Twice the most steps a converging trial took in over a hundred
	// seeded trials at these sizes (4.07·10⁶, mis under αβv at n=128); the
	// ssmis runs that never converge (a known defect) stop here.
	maxSteps: 8_000_000,
}

var toySizes = sizes{
	largeN: 1 << 16, treeN: 1 << 10, largeTrials: 1,
	sweepN: 32, sweepTrials: 1,
	hostileN: 24, hostileMIS: 1, hostileSSMIS: 1,
	maxSteps: 4_000_000,
}

// inputs is everything one set-up produces: the trials of a pass, in
// order, plus set-up counts for the per-layer report.
type inputs struct {
	trials        []*trial
	edges         int64 // undirected edges over every generated graph
	perturbations int64 // scenario mutation batches over every trial
	synchroStates int64 // states of the directly compiled synchronizers
}

// workloads maps a workload name to its set-up. Every set-up derives
// all of its inputs from seed.
var workloads = map[string]func(seed uint64, sz sizes, tr *tracer) (*inputs, error){
	"sync-large": setupSyncLarge,
	"sweep":      setupSweep,
	"hostile":    setupHostile,
}

// family is one graph family of the sweep and hostile workloads.
type family struct {
	name  string
	build func(n int, src *xrand.Source) *graph.Graph
}

var (
	gnp4 = family{"gnp4", func(n int, src *xrand.Source) *graph.Graph {
		return graph.GnpConnected(n, 4/float64(n), src)
	}}
	geometric15 = family{"geometric1.5", func(n int, src *xrand.Source) *graph.Graph {
		return graph.RandomGeometric(n, graph.GeometricRadius(n, 1.5), src)
	}}
)

func lookup(name string) *protocol.Descriptor {
	d, err := protocol.Lookup(name)
	if err != nil {
		panic(err) // the std registry links every protocol named here
	}
	return d
}

// compileDirect times the compilations a variant's runs depend on, by
// direct calls outside the registry cache: the synchronizer (when
// compile is non-nil) and the engine lowering. It returns the machine
// code and the synchronizer's materialized state count.
func compileDirect(d *protocol.Descriptor, compile func(*nfsm.RoundProtocol) (*synchro.Compiled, error), tr *tracer) (*engine.MachineCode, int64, error) {
	args, err := d.ResolveArgs(nil)
	if err != nil {
		return nil, 0, err
	}
	m, err := d.Machine(args)
	if err != nil {
		return nil, 0, err
	}
	var mach nfsm.Machine = m
	states := int64(0)
	if compile != nil {
		sp := tr.begin("synchro.compile", -1)
		c, err := compile(m)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		mach, states = c, int64(c.NumStates())
	}
	sp := tr.begin("engine.compile", -1)
	code := engine.CompileMachine(mach)
	tr.end(sp)
	return code, states, nil
}

// warmUp runs each (protocol, engine, synchronizer) variant once on a
// tiny graph, filling the registry's compile caches (and the lazily
// built packed lowering of directly compiled code) before anything is
// timed. No warm-up output feeds any metric.
func warmUp(variants []*trial, tr *tracer, scr *protocol.Scratch) error {
	sp := tr.begin("bench.warmup", -1)
	defer tr.end(sp)
	off := &tracer{}
	for _, t := range variants {
		if o := t.run(off, -1, scr, nil, nil); o.errored != nil {
			return fmt.Errorf("warm-up %s: %w", t.cell, o.errored)
		}
	}
	return nil
}

// setupSyncLarge: mis on a streamed G(10⁶, 4/n) and color3 on a
// streamed 2¹⁸-node random tree, both bound to their CSR with no
// adjacency-list graph behind it.
func setupSyncLarge(seed uint64, sz sizes, tr *tracer) (*inputs, error) {
	in := &inputs{}
	mis, color3 := lookup("mis"), lookup("color3")
	misCode, _, err := compileDirect(mis, nil, tr)
	if err != nil {
		return nil, err
	}
	colCode, _, err := compileDirect(color3, nil, tr)
	if err != nil {
		return nil, err
	}
	build := func(s graph.EdgeStream) (*graph.CSR, error) {
		sp := tr.begin("graph.gen", -1)
		defer tr.end(sp)
		csr, err := graph.BuildCSR(s)
		if err == nil {
			in.edges += int64(len(csr.NbrDat) / 2)
		}
		return csr, err
	}
	specs := []struct {
		d     *protocol.Descriptor
		code  *engine.MachineCode
		check func(*graph.CSR, protocol.Output) error
		big   graph.EdgeStream
		tiny  graph.EdgeStream
	}{
		{mis, misCode, checkMISCSR, graph.GnpConnectedStream(sz.largeN, 4/float64(sz.largeN), xrand.Mix(seed, xrand.FNV("gnp"))),
			graph.GnpConnectedStream(64, 4.0/64, 1)},
		{color3, colCode, checkColor3CSR, graph.RandomTreeStream(sz.treeN, xrand.Mix(seed, xrand.FNV("tree"))),
			graph.RandomTreeStream(64, 1)},
	}
	var variants []*trial
	for _, s := range specs {
		csr, err := build(s.big)
		if err != nil {
			return nil, err
		}
		args, err := s.d.ResolveArgs(nil)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sz.largeTrials; i++ {
			in.trials = append(in.trials, newCSRTrial(s.d, args, s.code, csr, s.check, xrand.Mix(seed, xrand.FNV(s.d.Name), uint64(i)), tr))
		}
		tiny, err := graph.BuildCSR(s.tiny)
		if err != nil {
			return nil, err
		}
		w := newCSRTrial(s.d, args, s.code, tiny, s.check, 1, &tracer{})
		// The tiny graph is below the packed auto-selection size, so the
		// warm-up forces the backend the timed run will take.
		w.backend = engine.BackendFlat
		if pathOf(s.code, csr.N()) == "sync.packed" {
			w.backend = engine.BackendPacked
		}
		variants = append(variants, w)
	}
	return in, warmUp(variants, tr, protocol.NewScratch())
}

// pathOf names the synchronous executor a static CSR run of code on n
// nodes auto-selects: the packed bit-plane backend for packed-eligible
// machines from 2¹⁶ nodes on (engine's packedAutoThreshold), the flat
// executor otherwise.
func pathOf(code *engine.MachineCode, n int) string {
	if code.PackedEligible() && n >= 1<<16 {
		return "sync.packed"
	}
	return "sync.flat"
}

// sweepScenarios are the sweep's dynamic-network axis: the static
// baseline, Poisson edge churn and a one-shot region crash.
var sweepScenarios = []scenario.Def{
	{Kind: "none"},
	{Kind: "churn", Rate: 3, Count: 4, At: scenario.Round(8), Every: 32},
	{Kind: "crash", Frac: 0.25, At: scenario.Round(8), Every: 16},
}

// setupSweep: mis and ssmis × {sync, async α under the uniform
// adversary} × sweepScenarios × {gnp(4), geometric(1.5)} at n=256 on
// reliable links, a fresh graph per trial.
func setupSweep(seed uint64, sz sizes, tr *tracer) (*inputs, error) {
	in := &inputs{}
	protos := []*protocol.Descriptor{lookup("mis"), lookup("ssmis")}
	for _, d := range protos {
		if _, _, err := compileDirect(d, nil, tr); err != nil {
			return nil, err
		}
		_, st, err := compileDirect(d, synchro.CompileRound, tr)
		if err != nil {
			return nil, err
		}
		in.synchroStates += st
	}
	type graphKey struct {
		fam   string
		trial int
	}
	graphs := map[graphKey]*graph.Graph{}
	scens := map[string]*scenario.Scenario{}
	families := []family{gnp4, geometric15}
	for _, f := range families {
		for i := 0; i < sz.sweepTrials; i++ {
			sp := tr.begin("graph.gen", -1)
			g := f.build(sz.sweepN, xrand.NewStream(seed, xrand.FNV("graph"), xrand.FNV(f.name), uint64(i)))
			tr.end(sp)
			in.edges += int64(g.M())
			graphs[graphKey{f.name, i}] = g
			for _, def := range sweepScenarios {
				if def.None() {
					continue
				}
				sp := tr.begin("scenario.gen", -1)
				sc, err := def.Generate(g, xrand.Mix(seed, xrand.FNV("scenario"), xrand.FNV(def.Key()), xrand.FNV(f.name), uint64(i)))
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				scens[fmt.Sprintf("%s/%s/%d", def.Name(), f.name, i)] = sc
			}
		}
	}
	var variants []*trial
	warmG := graph.GnpConnected(16, 0.25, xrand.New(1))
	engines := []string{"sync", "async"}
	for _, d := range protos {
		// The trials of one protocol on one graph share a Bound across
		// engines and scenarios.
		for _, f := range families {
			for i := 0; i < sz.sweepTrials; i++ {
				g := graphs[graphKey{f.name, i}]
				b, err := bind(d, g, tr)
				if err != nil {
					return nil, err
				}
				tseed := xrand.Mix(seed, xrand.FNV("trial"), xrand.FNV(d.Name), xrand.FNV(f.name), uint64(i))
				for _, eng := range engines {
					for _, def := range sweepScenarios {
						var sc *scenario.Scenario
						if !def.None() {
							sc = scens[fmt.Sprintf("%s/%s/%d", def.Name(), f.name, i)]
							in.perturbations += int64(len(sc.Batches))
						}
						cell := fmt.Sprintf("%s/%s/%s/%s", d.Name, eng, def.Name(), f.name)
						in.trials = append(in.trials, graphTrial(b, cell, eng, "", sc, nil, tseed, sz.maxSteps))
					}
				}
			}
		}
		for _, eng := range engines {
			wb, err := d.Bind(warmG, nil)
			if err != nil {
				return nil, err
			}
			variants = append(variants, graphTrial(wb, d.Name+"/"+eng+"/warm-up", eng, "", nil, nil, 1, sz.maxSteps))
		}
	}
	return in, warmUp(variants, tr, protocol.NewScratch())
}

// hostileCell is one (synchronizer, channel) pair a tier is documented
// to survive.
type hostileCell struct {
	synchro string
	ch      channel.Def
}

var hostileCells = []hostileCell{
	{protocol.SynchroVoted, channel.Def{Drop: 0.1, Label: "drop-10"}},
	{protocol.SynchroVoted, channel.Def{Corrupt: 0.05, Label: "corrupt-5"}},
	{protocol.SynchroVoted, channel.Def{Drop: 0.1, Dup: 0.2, Reorder: 1, Corrupt: 0.02, Label: "stack"}},
	{protocol.SynchroVoted, channel.Def{Byz: []channel.ByzDef{{Behavior: channel.BehaviorSilent, Frac: 0.05}}, Label: "byz-silent"}},
	{protocol.SynchroTolerant, channel.Def{Drop: 0.1, Label: "drop-10"}},
}

// setupHostile: mis and ssmis on gnp(4) at n=128 under hostileCells, a
// fresh graph per trial.
func setupHostile(seed uint64, sz sizes, tr *tracer) (*inputs, error) {
	in := &inputs{}
	protos := []*protocol.Descriptor{lookup("mis"), lookup("ssmis")}
	for _, d := range protos {
		for _, compile := range []func(*nfsm.RoundProtocol) (*synchro.Compiled, error){synchro.CompileRoundVoted, synchro.CompileRoundTolerant} {
			_, st, err := compileDirect(d, compile, tr)
			if err != nil {
				return nil, err
			}
			in.synchroStates += st
		}
	}
	trials := map[string]int{"mis": sz.hostileMIS, "ssmis": sz.hostileSSMIS}
	graphs := make([]*graph.Graph, max(sz.hostileMIS, sz.hostileSSMIS))
	for i := range graphs {
		sp := tr.begin("graph.gen", -1)
		graphs[i] = gnp4.build(sz.hostileN, xrand.NewStream(seed, xrand.FNV("graph"), xrand.FNV(gnp4.name), uint64(i)))
		tr.end(sp)
		in.edges += int64(graphs[i].M())
	}
	var variants []*trial
	warmG := graph.GnpConnected(16, 0.25, xrand.New(1))
	for _, d := range protos {
		bounds := make([]*protocol.Bound, trials[d.Name])
		for i, g := range graphs[:len(bounds)] {
			b, err := bind(d, g, tr)
			if err != nil {
				return nil, err
			}
			bounds[i] = b
		}
		for _, c := range hostileCells {
			for i, b := range bounds {
				chSeed := xrand.Mix(seed, xrand.FNV("channel"), xrand.FNV(c.ch.Key()), uint64(i))
				sp := tr.begin("channel.gen", -1)
				model := c.ch.Model(chSeed)
				var sc *scenario.Scenario
				if byz := c.ch.Byzantine(b.Graph().N(), chSeed); len(byz) > 0 {
					sc = &scenario.Scenario{Reset: scenario.ResetAuto, Byzantine: byz}
				}
				tr.end(sp)
				tseed := xrand.Mix(seed, xrand.FNV("trial"), xrand.FNV(d.Name), uint64(i))
				cell := fmt.Sprintf("%s/async-%s/%s", d.Name, c.synchro, c.ch.Name())
				in.trials = append(in.trials, graphTrial(b, cell, "async", c.synchro, sc, model, tseed, sz.maxSteps))
			}
		}
		for _, s := range []string{protocol.SynchroVoted, protocol.SynchroTolerant} {
			wb, err := d.Bind(warmG, nil)
			if err != nil {
				return nil, err
			}
			variants = append(variants, graphTrial(wb, d.Name+"/async-"+s+"/warm-up", "async", s, nil, nil, 1, sz.maxSteps))
		}
	}
	return in, warmUp(variants, tr, protocol.NewScratch())
}

func bind(d *protocol.Descriptor, g *graph.Graph, tr *tracer) (*protocol.Bound, error) {
	sp := tr.begin("protocol.bind", -1)
	defer tr.end(sp)
	return d.Bind(g, nil)
}
