// Command stonebench is the repository's benchmark. One process runs
// one named workload single-threaded (GOMAXPROCS=1, one simulation
// goroutine) on inputs it generates from -seed, drives every trial
// through the public layer calls itself, and prints one JSON result
// line last:
//
//	stonebench -workload sync-large|sweep|hostile -seed N -seconds S -trace 0|1 [-spans FILE]
//
// Before every timed pass the inputs are set up afresh (generation,
// binding, direct compiles and one warm-up run per variant), repeatedly
// for a quarter CPU second; passes over all trials repeat until
// -seconds of CPU time are spent. Every _s figure is process CPU time
// (getrusage user+sys); wall time appears only in the traced run, as
// host.wait_s. A pass's digest hashes every
// trial's simulated statistics; the run exits non-zero if two passes,
// traced or not, disagree. With -trace 1 the same loop also records
// spans around each layer call and reports the per-layer metrics. See
// README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"stoneage/internal/protocol"
)

const (
	// Before every pass the inputs are set up afresh, repeatedly until
	// setupSliceNS of CPU is spent, so set-up is sampled across the whole
	// run like the passes, and a set-up of milliseconds still reports a
	// median over many repetitions.
	setupSliceNS = 0.25e9
	// Untraced passes give the end-to-end medians, so there are at least
	// three; a traced run adds at least two traced passes.
	minPasses       = 3
	minTracedPasses = 2
	maxPasses       = 200
	// wallLimitNS stops adding passes once the process has run this
	// long, so a run ends well inside three minutes on a loaded host.
	wallLimitNS = 120e9
)

// knownDefects are cells whose invalid or unconverged trials are
// recorded program bugs. They are reported in valid_rate and
// converged_rate as they stand; a failing trial of any other cell makes
// the result incorrect. ssmis can terminate on a set that is not
// maximal independent under every asynchronous synchronizer.
var knownDefects = []string{
	// α on reliable links, static or under churn (spec seed 7: n=16 trial
	// 0, n=64 trial 14); sweep seed 7 with 2 graphs per cell also hits
	// the static geometric cell.
	"ssmis/async/",
	// αβv: on the stacked channel at n=128 the hostile-mis spec's seed
	// and 8 trials read converged 0.875, valid 0.75; hostile seed 15 hits
	// corrupt-5.
	"ssmis/async-voted/",
	// αβ: hostile seed 11 hits drop-10.
	"ssmis/async-tolerant/",
}

// executorPaths are the executor paths reported per layer; every trial
// runs exactly one of them.
var executorPaths = []string{
	"sync.packed", "sync.flat", "sync_dynamic",
	"async.alpha", "async_dynamic.alpha",
	"async.voted", "async_dynamic.voted", "async.tolerant",
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	sz       sizes
	log      io.Writer
}

func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stonebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sync-large, sweep or hostile")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "CPU seconds of timed passes")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spans := fs.String("spans", "", "file the traced run writes its spans to (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "stonebench: want -workload W -seed N -seconds S -trace 0|1")
		return 2
	}
	res, err := run(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: *spans, sz: fullSizes, log: stdout})
	if err != nil {
		fmt.Fprintln(stderr, "stonebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "stonebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure; Value is an int64 for exact counts.
type metric struct {
	Value any    `json:"value"`
	Unit  string `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	digest    uint64
}

// passResult is one timed pass over every trial.
type passResult struct {
	traced        bool
	cpuNS, wallNS int64
	digest        uint64
	attempted     int
	converged     int
	valid         int
	errored       []error
	steps         int64
	allocB        uint64
	mallocs       uint64
	gcCycles      uint32
	gcPauseNS     uint64
	counters      [nCounters]int64
	failing       map[string][2]int // cell → (unconverged, invalid) trials
	cellSteps     map[string]int64
	trialCPU      []int64
	paths         map[string]*pathStats
	layers        map[string]int64
	coverage      float64
}

func runPass(in *inputs, tr *tracer, scr *protocol.Scratch) *passResult {
	p := &passResult{traced: tr.on, failing: map[string][2]int{}, cellSteps: map[string]int64{}}
	if tr.on {
		p.paths = map[string]*pathStats{}
	}
	h := &digest{h: fnv.New64a()}
	mark := len(tr.spans)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w0, c0 := wallNow(), cpuNow()
	root := tr.begin("bench.pass", -1)
	for i, t := range in.trials {
		o := t.run(tr, i, scr, h, p.paths)
		p.trialCPU = append(p.trialCPU, o.cpuNS)
		p.attempted++
		p.steps += o.steps
		p.cellSteps[t.cell] += o.steps
		for k, v := range o.counters {
			p.counters[k] += v
		}
		if o.errored != nil {
			p.errored = append(p.errored, o.errored)
		}
		if o.converged {
			p.converged++
		}
		if o.valid {
			p.valid++
		} else {
			f := p.failing[t.cell]
			if !o.converged {
				f[0]++
			} else {
				f[1]++
			}
			p.failing[t.cell] = f
		}
	}
	tr.end(root)
	p.cpuNS, p.wallNS = cpuNow()-c0, wallNow()-w0
	runtime.ReadMemStats(&ms1)
	p.digest = h.h.Sum64()
	p.allocB, p.mallocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	p.gcCycles, p.gcPauseNS = ms1.NumGC-ms0.NumGC, ms1.PauseTotalNs-ms0.PauseTotalNs
	if tr.on {
		p.layers = tr.cpuByName(mark)
		p.coverage = tr.coverage(root)
	}
	return p
}

func run(cfg config) (*result, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want sync-large, sweep or hostile)", cfg.workload)
	}
	fmt.Fprintf(cfg.log, "conditions: workload=%s seed=%d gomaxprocs=%d nproc=%d loadavg1=%g timing=cpu(getrusage user+sys) go=%s\n",
		cfg.workload, cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), loadAvg(), runtime.Version())
	tr := &tracer{on: cfg.trace}

	// setUp rebuilds the inputs until a slice of CPU is spent. The first
	// repetition runs from process start and alone fills the registry
	// compile caches; the passes run on the inputs of the last one.
	var (
		in          *inputs
		setupCPU    []float64
		setupLayers []map[string]int64
	)
	setUp := func() error {
		slice := cpuNow()
		for rep := 0; rep == 0 || cpuNow()-slice < setupSliceNS; rep++ {
			start := int64(0)
			if in != nil {
				in = nil
				runtime.GC()
				start = cpuNow()
			}
			mark := len(tr.spans)
			sp := tr.begin("bench.setup", -1)
			var err error
			in, err = setup(cfg.seed, cfg.sz, tr)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setupCPU = append(setupCPU, float64(cpuNow()-start)/1e9)
			setupLayers = append(setupLayers, tr.cpuByName(mark))
		}
		for _, t := range in.trials {
			if !slices.Contains(executorPaths, t.path) {
				return fmt.Errorf("trial %s runs unreported executor path %s", t.cell, t.path)
			}
		}
		return nil
	}

	// Passes repeat until the next one would overrun the CPU budget. A
	// traced run alternates untraced and traced passes, so host drift
	// falls on both alike.
	scr := protocol.NewScratch()
	off := &tracer{}
	var untraced, traced []*passResult
	spent, last := int64(0), int64(0)
	for {
		enough := len(untraced) >= minPasses && (!cfg.trace || len(traced) >= minTracedPasses)
		if enough && (float64(spent+last) > cfg.seconds*1e9 || len(untraced)+len(traced) >= maxPasses || wallNow() > wallLimitNS) {
			break
		}
		kind, ptr := "untraced", off
		if cfg.trace && len(traced) < len(untraced) {
			kind, ptr = "traced", tr
		}
		if err := setUp(); err != nil {
			return nil, err
		}
		p := runPass(in, ptr, scr)
		spent, last = spent+p.cpuNS, p.cpuNS
		fmt.Fprintf(cfg.log, "pass %d %s: cpu_s=%.6f wall_s=%.6f digest=%016x steps=%d alloc_bytes=%d mallocs=%d gc_cycles=%d\n",
			len(untraced)+len(traced), kind, float64(p.cpuNS)/1e9, float64(p.wallNS)/1e9, p.digest, p.steps, p.allocB, p.mallocs, p.gcCycles)
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	fmt.Fprintf(cfg.log, "setup: reps=%d first_cpu_s=%.6f median_cpu_s=%.6f trials=%d\n",
		len(setupCPU), setupCPU[0], median(setupCPU), len(in.trials))
	if cfg.trace && cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	all := append(append([]*passResult(nil), untraced...), traced...)
	for _, p := range all[1:] {
		if p.digest != all[0].digest {
			return nil, fmt.Errorf("nondeterministic: pass digests %016x and %016x differ (traced=%v)", all[0].digest, p.digest, p.traced)
		}
	}

	first := untraced[0]
	correct := len(first.errored) == 0
	for _, err := range first.errored {
		fmt.Fprintf(cfg.log, "error: %v\n", err)
	}
	cells := make([]string, 0, len(first.cellSteps))
	for c := range first.cellSteps {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	for _, c := range cells {
		f := first.failing[c]
		known := knownDefect(c)
		if f != [2]int{} && !known {
			correct = false
		}
		fmt.Fprintf(cfg.log, "cell %s: steps=%d unconverged=%d invalid=%d known_defect=%v\n", c, first.cellSteps[c], f[0], f[1], known)
	}
	fmt.Fprintf(cfg.log, "outcomes: attempted=%d converged=%d valid=%d errored=%d digest=%016x\n",
		first.attempted, first.converged, first.valid, len(first.errored), first.digest)

	res := &result{Correct: correct, Attempted: first.attempted, Failed: len(first.errored), Metrics: map[string]metric{}, digest: first.digest}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		cpu := passCPU(untraced)
		att := float64(first.attempted)
		res.Metrics["setup_s"] = metric{median(setupCPU), "s"}
		res.Metrics["cpu_s"] = metric{cpu, "s"}
		res.Metrics["steps_per_s"] = metric{float64(first.steps) / cpu, "1/s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
		res.Metrics["converged_rate"] = metric{float64(first.converged) / att, "share"}
		res.Metrics["valid_rate"] = metric{float64(first.valid) / att, "share"}
		return res, nil
	}
	layerMetrics(res.Metrics, in, setupLayers, untraced, traced)
	return res, nil
}

// layerMetrics fills the traced run's per-layer report. Set-up figures
// are medians over the set-up repetitions, pass figures medians over
// the traced passes; exact counts stay integers.
func layerMetrics(m map[string]metric, in *inputs, setupLayers []map[string]int64, untraced, traced []*passResult) {
	setupS := func(name string) float64 {
		v := make([]float64, len(setupLayers))
		for i, l := range setupLayers {
			v[i] = float64(l[name]) / 1e9
		}
		return median(v)
	}
	passS := func(f func(p *passResult) float64) float64 { return median(passField(traced, f)) }
	passN := func(f func(p *passResult) int64) int64 { return medianInt(passFieldInt(traced, f)) }

	m["graph.gen_s"] = metric{setupS("graph.gen"), "s"}
	m["graph.edges"] = metric{in.edges, "count"}
	m["synchro.compile_s"] = metric{setupS("synchro.compile"), "s"}
	m["synchro.states"] = metric{in.synchroStates, "count"}
	m["engine.compile_s"] = metric{setupS("engine.compile"), "s"}
	m["protocol.bind_s"] = metric{setupS("protocol.bind"), "s"}
	m["scenario.gen_s"] = metric{setupS("scenario.gen"), "s"}
	m["scenario.perturbations"] = metric{in.perturbations, "count"}
	for _, name := range []string{"protocol.decode", "protocol.check"} {
		m[name+"_s"] = metric{passS(func(p *passResult) float64 { return float64(p.layers[name]) / 1e9 }), "s"}
	}
	for _, path := range executorPaths {
		ps := func(p *passResult) *pathStats {
			if s := p.paths[path]; s != nil {
				return s
			}
			return &pathStats{}
		}
		pre := "engine." + path
		m[pre+".cpu_s"] = metric{passS(func(p *passResult) float64 { return float64(ps(p).cpuNS) / 1e9 }), "s"}
		m[pre+".steps"] = metric{passN(func(p *passResult) int64 { return ps(p).steps }), "count"}
		m[pre+".ns_per_step"] = metric{passS(func(p *passResult) float64 {
			if s := ps(p); s.steps > 0 {
				return float64(s.cpuNS) / float64(s.steps)
			}
			return 0
		}), "ns"}
		m[pre+".alloc_mb"] = metric{passS(func(p *passResult) float64 { return float64(ps(p).allocB) / (1 << 20) }), "MiB"}
		m[pre+".mallocs"] = metric{passN(func(p *passResult) int64 { return int64(ps(p).mallocs) }), "count"}
	}
	for k, name := range counterNames {
		m[name] = metric{traced[0].counters[k], "count"}
	}
	m["gc.cycles"] = metric{passN(func(p *passResult) int64 { return int64(p.gcCycles) }), "count"}
	m["gc.pause_ms"] = metric{passS(func(p *passResult) float64 { return float64(p.gcPauseNS) / 1e6 }), "ms"}
	m["host.wait_s"] = metric{passS(func(p *passResult) float64 { return float64(p.wallNS-p.cpuNS) / 1e9 }), "s"}
	m["pass.alloc_mb"] = metric{median(passField(untraced, func(p *passResult) float64 { return float64(p.allocB) / (1 << 20) })), "MiB"}
	m["pass.mallocs"] = metric{medianInt(passFieldInt(untraced, func(p *passResult) int64 { return int64(p.mallocs) })), "count"}
	m["trace.overhead_s"] = metric{passCPU(traced) - passCPU(untraced), "s"}
	m["trace.coverage"] = metric{passS(func(p *passResult) float64 { return p.coverage }), "share"}
}

// passCPU is the CPU seconds of one pass over every trial, each trial
// timed as its median over the passes: a burst of host noise during one
// pass moves only the trials it hit, and only if it hit most passes.
func passCPU(ps []*passResult) float64 {
	total := 0.0
	for i := range ps[0].trialCPU {
		total += median(passField(ps, func(p *passResult) float64 { return float64(p.trialCPU[i]) / 1e9 }))
	}
	return total
}

func knownDefect(cell string) bool {
	for _, d := range knownDefects {
		if strings.HasPrefix(cell, d) {
			return true
		}
	}
	return false
}

func passField(ps []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func passFieldInt(ps []*passResult, f func(*passResult) int64) []int64 {
	out := make([]int64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianInt is the lower median, so an exact count stays an integer.
func medianInt(v []int64) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}
