// Command stonesim runs a stone-age protocol on a generated or loaded
// graph and prints the output and run metrics. The graph protocols are
// resolved through the unified registry (internal/protocol): any
// registered protocol — the paper's nFSM machines, the extended-model
// matching, the classical baselines — runs through the same pipeline,
// and `stonesim protocols` lists them with capabilities and parameter
// domains.
//
// Usage:
//
//	stonesim -protocol mis   -graph gnp -n 128 -p 0.05 -engine async -adversary uniform
//	stonesim -protocol color3 -graph tree -n 200 -engine sync
//	stonesim -protocol ssmis -graph gnp -n 256 -scenario '{"kind":"churn","rate":3}'
//	stonesim -protocol ssmis -graph gnp -n 256 -channel '{"drop":0.2,"dup":0.1}'
//	stonesim -protocol mis -graph torus -n 64 -channel '{"byz":[{"behavior":"babble","frac":0.05}]}'
//	stonesim -protocol mis -graph torus -n 64 -scenario '{"kind":"crash","frac":0.3}' -trace hist.csv
//	stonesim -protocol matching -graph cycle -n 64
//	stonesim -protocol luby -graph torus -n 64
//	stonesim -protocol degcolor -param maxdeg=6 -graph torus -n 64
//	stonesim -protocol lba-abc -word aabbcc
//	stonesim -protocol mis -in graph.txt
//	stonesim -protocol mis -n 128 -engine async -synchro voted -trials 20 -cpuprofile cpu.prof
//	stonesim protocols -json
//	stonesim sweep -spec examples/specs/mis-families.json -workers 8
//
// Graphs: path, cycle, star, clique, grid, torus, tree, binary,
// caterpillar, broom, gnp, geometric, powerlaw, smallworld, lattice —
// or -in <file> (edge-list format).
// Engines: sync (locally synchronous) or async (compiled through the
// Theorem 3.1/3.4 synchronizer, with -adversary
// sync|uniform|skew|overwriter|drift); sync-only protocols (bespoke
// engines) reject -engine async. Under -engine async, -synchro selects
// the compilation: alpha (the paper's α-synchronizer, default),
// tolerant (the loss-tolerant αβ hybrid, which re-pulses the current
// generation on a bounded stall timeout and survives lossy channels —
// e.g. `-engine async -synchro tolerant -channel '{"drop":0.1}'`), or
// voted (the corruption- and silence-tolerant αβv tier: each port
// commits a neighbor's letter only after k of the last 2k−1 receipts
// agree, edges that stall through repeated timeouts are permanently
// evicted, and re-pulses back off multiplicatively per edge — e.g.
// `-engine async -synchro voted -channel '{"corrupt":0.05}'`; tune
// with -vote-k, -evict-after and -repulse-cap).
//
// The -scenario flag makes a single run dynamic: a scenario.Def as
// JSON (one-shot region crash, Poisson edge churn, staggered wake-up)
// is generated against the run's graph and seed, the engines apply the
// mutation batches mid-run, recovery is reported, outputs validate
// against the final graph, and -trace histograms carry perturbation
// markers.
//
// The -channel flag makes the links unreliable: a channel.Def as JSON
// (loss, duplication, reordering, corruption rates, plus an optional
// Byzantine node set) is instantiated against the run's seed, every
// transmission is filtered through it in both engines, and the run
// reports the per-pathology event counts. Byzantine nodes babble on
// their own; their outputs are excluded from validation.
//
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles
// of a run (read them with `go tool pprof`); unset, they cost nothing.
//
// The sweep subcommand runs a declarative multi-trial campaign
// (internal/campaign) in parallel and emits aggregate tables, JSON and
// CSV; see examples/specs for spec files (the `scenarios` field sweeps
// dynamic-network scenarios as a campaign axis, e.g.
// examples/specs/churn-mis.json). With -procs N the sweep shards over
// N worker processes through the internal/dispatch coordinator —
// finished cells checkpoint to per-worker spill files in -workdir, a
// killed worker's cells are re-claimed, an interrupted sweep resumes
// from the same -workdir, and the merged output is byte-identical to
// the in-process run at every proc count (strip the machine-dependent
// wall-clock stats with -stripwall to compare). The work subcommand is
// one such worker: spawned by the coordinator, or run by hand against
// a shared work directory for coordinator-less sharding, e.g.
//
//	stonesim sweep -spec examples/specs/smoke.json -procs 3 -workdir /tmp/sweep
//	stonesim work -workdir /mnt/shared/sweep -spec examples/specs/smoke.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"stoneage/internal/campaign"
	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/lba"
	"stoneage/internal/protocol"
	"stoneage/internal/scenario"
	"stoneage/internal/trace"
	"stoneage/internal/xrand"

	// Link the full built-in protocol set into the registry.
	_ "stoneage/internal/protocol/std"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stonesim:", err)
		os.Exit(1)
	}
}

type options struct {
	protocol   string
	params     string
	graphKind  string
	inFile     string
	n          int
	p          float64
	seed       uint64
	eng        string
	adversary  string
	synchro    string
	voteK      int
	evictAfter int
	repulseCap int
	word       string
	traceCSV   string
	workers    int
	trials     int
	scenario   string
	channel    string
	backend    string
	cpuProfile string
	memProfile string
}

// parseParams turns the -param flag ("name=value[,name=value]") into
// protocol arguments; domain validation happens in the registry.
func parseParams(s string) (protocol.Args, error) {
	if s == "" {
		return nil, nil
	}
	args := protocol.Args{}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("-param entry %q is not name=value", kv)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("-param %s: %v", name, err)
		}
		args[strings.TrimSpace(name)] = v
	}
	return args, nil
}

func run(args []string, w io.Writer) (err error) {
	if len(args) > 0 {
		switch args[0] {
		case "sweep":
			return runSweep(args[1:], w)
		case "work":
			return runWork(args[1:], w)
		case "protocols":
			return runProtocols(args[1:], w)
		}
	}
	fs := flag.NewFlagSet("stonesim", flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.protocol, "protocol", "mis",
		strings.Join(protocol.Names(), " | ")+" | lba-abc | lba-palindrome")
	fs.StringVar(&opt.params, "param", "", "protocol parameters, name=value[,name=value] (domains: stonesim protocols)")
	fs.StringVar(&opt.graphKind, "graph", "gnp", "graph family")
	fs.StringVar(&opt.inFile, "in", "", "read the graph from an edge-list file instead of generating")
	fs.IntVar(&opt.n, "n", 64, "number of nodes")
	fs.Float64Var(&opt.p, "p", 0, "G(n,p) edge probability (default 4/n)")
	fs.Uint64Var(&opt.seed, "seed", 1, "random seed")
	fs.StringVar(&opt.eng, "engine", "sync", "sync | async")
	fs.StringVar(&opt.adversary, "adversary", "uniform", "async adversary policy")
	fs.StringVar(&opt.synchro, "synchro", "alpha",
		"async synchronizer: alpha (Theorem 3.1/3.4) | tolerant (loss-tolerant αβ hybrid) | voted (k-of-(2k−1) voting, dead-edge eviction, adaptive backoff)")
	fs.IntVar(&opt.voteK, "vote-k", 0, "voted synchronizer: votes needed to commit a receipt, over a window of 2k−1 (0 = default 2; 1 degenerates to tolerant)")
	fs.IntVar(&opt.evictAfter, "evict-after", 0, "voted synchronizer: consecutive receipt-less timeout firings before an edge is evicted (0 = default 3)")
	fs.IntVar(&opt.repulseCap, "repulse-cap", 0, "voted synchronizer: per-edge re-pulse backoff cap, in timeout firings (0 = default 8; 1 disables backoff)")
	fs.StringVar(&opt.word, "word", "abc", "input word for the lba protocols")
	fs.StringVar(&opt.traceCSV, "trace", "", "write a per-round state histogram CSV to this file (sync engine, engine-hosted protocols only)")
	fs.IntVar(&opt.workers, "workers", 0, "sync round-loop workers (0 = GOMAXPROCS); results are identical for every value")
	fs.StringVar(&opt.backend, "backend", "",
		"sync executor: flat | packed (bit-plane, static reliable runs only); empty auto-selects by size — all bit-identical")
	fs.IntVar(&opt.trials, "trials", 1, "repeat the run over derived seeds, reusing one scratch arena, and report per-trial metrics")
	fs.StringVar(&opt.scenario, "scenario", "",
		`dynamic-network scenario as JSON, e.g. '{"kind":"churn","rate":2}' (kinds: none, crash, churn, wake; engine-hosted protocols only)`)
	fs.StringVar(&opt.channel, "channel", "",
		`unreliable-channel model as JSON, e.g. '{"drop":0.2,"byz":[{"behavior":"babble","frac":0.05}]}' (engine-hosted protocols only)`)
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof; go tool pprof reads it)")
	fs.StringVar(&opt.memProfile, "memprofile", "", "write a heap profile to this file when the run ends (runtime/pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := startProfiles(opt)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stop(); err == nil {
			err = perr
		}
	}()

	if strings.HasPrefix(opt.protocol, "lba-") {
		return runLBA(opt, w)
	}

	d, err := protocol.Lookup(opt.protocol)
	if err != nil {
		return err
	}
	g, err := buildGraph(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph: %s  n=%d m=%d Δ=%d\n", describeGraph(opt), g.N(), g.M(), g.MaxDegree())
	return runProtocol(opt, d, g, w)
}

// startProfiles starts the CPU profile -cpuprofile asks for and returns
// the function that ends it and writes the -memprofile heap profile.
// With neither flag set it does nothing.
func startProfiles(opt options) (stop func() error, err error) {
	var cpu *os.File
	if opt.cpuProfile != "" {
		if cpu, err = os.Create(opt.cpuProfile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if opt.memProfile == "" {
			return nil
		}
		f, err := os.Create(opt.memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC() // the profile then shows what the run left live
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		return f.Close()
	}, nil
}

// runProtocol is the single registry-driven execution pipeline: bind
// (with any -param arguments), run on the selected engine, validate the
// output with the descriptor's checker, and print the metrics and the
// output summary.
func runProtocol(opt options, d *protocol.Descriptor, g *graph.Graph, w io.Writer) error {
	args, err := parseParams(opt.params)
	if err != nil {
		return err
	}
	bound, err := d.Bind(g, args)
	if err != nil {
		return err
	}
	sc, err := parseScenario(opt, g)
	if err != nil {
		return err
	}
	model, byz, err := parseChannel(opt, g)
	if err != nil {
		return err
	}
	if len(byz) > 0 {
		// Byzantine nodes ride on the scenario layer; synthesize an empty
		// scenario when -scenario was not given so the engines see them.
		if sc == nil {
			sc = &scenario.Scenario{Reset: scenario.ResetAuto}
		}
		sc.Byzantine = byz
	}
	// Repeated trials share one scratch arena — the same zero-alloc
	// reuse discipline the campaign workers run with — so a CLI
	// micro-sweep over seeds costs barely more than its first trial.
	trials := opt.trials
	if trials < 1 {
		trials = 1
	}
	scratch := protocol.NewScratch()
	var run *protocol.Run
	for trial := 0; trial < trials; trial++ {
		seed := opt.seed + uint64(trial)
		label := ""
		if trials > 1 {
			label = fmt.Sprintf("trial %d (seed %d): ", trial, seed)
		}
		switch opt.eng {
		case "sync":
			cfg := protocol.SyncConfig{Seed: seed, Workers: opt.workers, Scenario: sc, Channel: model, Backend: opt.backend}
			var hist *trace.Histogram
			if opt.traceCSV != "" && trial == 0 {
				names := bound.StateNames()
				if names == nil {
					return fmt.Errorf("protocol %q does not support -trace (bespoke engine)", d.Name)
				}
				hist = trace.NewHistogram(names)
				cfg.Observer = hist.Observer()
			}
			if run, err = bound.RunSyncReusing(cfg, scratch); err != nil {
				return err
			}
			if hist != nil {
				for _, at := range run.PerturbedAt {
					hist.Marks = append(hist.Marks, int(at))
				}
				if err := writeTraceCSV(opt.traceCSV, hist); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "%s%s: %d rounds, %d transmissions\n", label, d.Name, run.Rounds, run.Transmissions)
		case "async":
			adv, err := pickAdversary(opt)
			if err != nil {
				return err
			}
			if run, err = bound.RunAsyncReusing(protocol.AsyncConfig{
				Seed: seed, Adversary: adv, Scenario: sc, Channel: model,
				Synchro: opt.synchro,
				VoteK:   opt.voteK, EvictAfter: opt.evictAfter, RePulseCap: opt.repulseCap,
			}, scratch); err != nil {
				return err
			}
			fmt.Fprintf(w, "%s%s: %.1f time units, %d steps, %d lost messages (adversary %s, synchro %s)\n",
				label, d.Name, run.TimeUnits, run.Steps, run.Lost, opt.adversary, opt.synchro)
			if opt.synchro == protocol.SynchroVoted {
				fmt.Fprintf(w, "%svoted: %d re-pulses (%d sent), %d rejected receipts, %d evicted edges\n",
					label, run.RePulses, run.RePulseSends, run.VotedRejections, len(run.EvictedEdges))
			}
		default:
			return fmt.Errorf("unknown engine %q", opt.eng)
		}
	}
	if model != nil || len(byz) > 0 {
		fmt.Fprintf(w, "channel: %d dropped, %d duplicated, %d delayed, %d reordered, %d corrupted, %d severed; %d byzantine nodes\n",
			run.Dropped, run.Duplicated, run.Delayed, run.Reordered, run.Corrupted, run.Severed, len(run.Byzantine))
	}
	if run.Perturbations() > 0 {
		unit := "rounds"
		if opt.eng == "async" {
			unit = "time units"
		}
		fmt.Fprintf(w, "dynamic: %d perturbations, recovered in %s %s (final graph: n=%d m=%d)\n",
			run.Perturbations(), formatRecovery(run.Recovery), unit,
			run.FinalGraph.N(), run.FinalGraph.M())
	}
	if err := bound.CheckRun(run); err != nil {
		return fmt.Errorf("output validation: %w", err)
	}
	fmt.Fprintf(w, "valid %s\n", run.Output.Summary())
	return nil
}

// parseScenario decodes the -scenario flag (a scenario.Def as JSON) and
// generates the concrete schedule against the run's graph and seed.
func parseScenario(opt options, g *graph.Graph) (*scenario.Scenario, error) {
	if opt.scenario == "" {
		return nil, nil
	}
	var def scenario.Def
	dec := json.NewDecoder(strings.NewReader(opt.scenario))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("-scenario: %v", err)
	}
	sc, err := def.Generate(g, opt.seed^0x73636e) // distinct from the protocol's coins
	if err != nil {
		return nil, fmt.Errorf("-scenario: %w", err)
	}
	return sc, nil
}

// parseChannel decodes the -channel flag (a channel.Def as JSON) and
// instantiates the link model and the Byzantine node set against the
// run's graph and seed.
func parseChannel(opt options, g *graph.Graph) (channel.Model, []channel.ByzNode, error) {
	if opt.channel == "" {
		return nil, nil, nil
	}
	var def channel.Def
	dec := json.NewDecoder(strings.NewReader(opt.channel))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return nil, nil, fmt.Errorf("-channel: %v", err)
	}
	if err := def.Validate(); err != nil {
		return nil, nil, fmt.Errorf("-channel: %w", err)
	}
	seed := opt.seed ^ 0x6368616e // distinct from the protocol's and the scenario's coins
	return def.Model(seed), def.Byzantine(g.N(), seed), nil
}

func formatRecovery(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func writeTraceCSV(path string, hist *trace.Histogram) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return hist.WriteCSV(f)
}

func describeGraph(opt options) string {
	if opt.inFile != "" {
		return opt.inFile
	}
	return opt.graphKind
}

func buildGraph(opt options) (*graph.Graph, error) {
	if opt.inFile != "" {
		f, err := os.Open(opt.inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.Decode(f)
	}
	src := xrand.New(opt.seed)
	n := opt.n
	p := opt.p
	if p <= 0 {
		p = 4.0 / float64(n)
	}
	side := int(math.Round(math.Sqrt(float64(n))))
	switch opt.graphKind {
	case "path":
		return graph.Path(n), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "star":
		return graph.Star(n), nil
	case "clique":
		return graph.Clique(n), nil
	case "grid":
		return graph.Grid(side, side), nil
	case "torus":
		return graph.Torus(side, side), nil
	case "tree":
		return graph.RandomTree(n, src), nil
	case "binary":
		return graph.BinaryTree(n), nil
	case "caterpillar":
		return graph.Caterpillar(n), nil
	case "broom":
		return graph.Broom(n), nil
	case "gnp":
		return graph.GnpConnected(n, p, src), nil
	case "geometric", "powerlaw", "smallworld":
		// The campaign registry is the single source of truth for the
		// sweep families' default parameters, so single runs generate
		// exactly the family the sweeps measure.
		return campaign.BuildGraph(campaign.Family{Kind: opt.graphKind}, n, opt.seed)
	case "lattice":
		return graph.ProneuralLattice(side, side), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", opt.graphKind)
	}
}

func pickAdversary(opt options) (engine.Adversary, error) {
	adv, ok := engine.NamedAdversaries(opt.seed + 1)[opt.adversary]
	if !ok {
		return nil, fmt.Errorf("unknown adversary %q", opt.adversary)
	}
	return adv, nil
}

func runLBA(opt options, w io.Writer) error {
	var (
		tm    *lba.TM
		input []lba.Symbol
	)
	switch opt.protocol {
	case "lba-abc":
		tm = lba.ABC()
		input = make([]lba.Symbol, len(opt.word))
		for i, c := range opt.word {
			switch c {
			case 'a':
				input[i] = lba.SymA
			case 'b':
				input[i] = lba.SymB
			case 'c':
				input[i] = lba.SymC
			default:
				return fmt.Errorf("lba-abc input must be over {a,b,c}, got %q", opt.word)
			}
		}
	case "lba-palindrome":
		tm = lba.Palindrome()
		input = make([]lba.Symbol, len(opt.word))
		for i, c := range opt.word {
			switch c {
			case 'a':
				input[i] = lba.PalA
			case 'b':
				input[i] = lba.PalB
			default:
				return fmt.Errorf("lba-palindrome input must be over {a,b}, got %q", opt.word)
			}
		}
	default:
		return fmt.Errorf("unknown protocol %q", opt.protocol)
	}
	direct, err := tm.Run(input, opt.seed, 0)
	if err != nil {
		return err
	}
	path, err := lba.RunOnPath(tm, input, opt.seed, 0)
	if err != nil {
		return err
	}
	if path.Accepted != direct.Accepted {
		return fmt.Errorf("path verdict %v disagrees with direct run %v", path.Accepted, direct.Accepted)
	}
	verdict := "REJECT"
	if path.Accepted {
		verdict = "ACCEPT"
	}
	fmt.Fprintf(w, "%s(%q) = %s  (direct: %d TM steps; path network of %d FSMs: %d rounds)\n",
		tm.Name, opt.word, verdict, direct.Steps, len(input), path.Rounds)
	return nil
}
