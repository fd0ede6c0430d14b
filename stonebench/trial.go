package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"

	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/protocol"
	"stoneage/internal/scenario"
	"stoneage/internal/xrand"
)

// saltAdversary keeps the adversary's coins independent of the
// protocol's (the model requires an oblivious adversary).
var saltAdversary = xrand.FNV("stonebench-adversary")

// trial is one run of a pass: either a protocol bound to a graph
// (Descriptor.Bind, run through Bound.Run{Sync,Async}Reusing and
// validated by Bound.CheckRun) or machine code bound to a CSR
// (MachineCode.BindCSR, run through Program.RunSyncReusing, decoded by
// the descriptor and checked on the CSR).
type trial struct {
	cell string // protocol/engine/perturbation[/family]
	path string // executor path the run takes
	span string // "engine." + path
	n    int

	bound    *protocol.Bound
	syncCfg  *protocol.SyncConfig
	asyncCfg *protocol.AsyncConfig

	prog    *engine.Program
	csr     *graph.CSR
	desc    *protocol.Descriptor
	args    protocol.Args
	seed    uint64
	backend string
	check   func(*graph.CSR, protocol.Output) error
}

func newCSRTrial(d *protocol.Descriptor, args protocol.Args, code *engine.MachineCode, csr *graph.CSR,
	check func(*graph.CSR, protocol.Output) error, seed uint64, tr *tracer) *trial {
	sp := tr.begin("protocol.bind", -1)
	prog := code.BindCSR(csr)
	tr.end(sp)
	path := pathOf(code, csr.N())
	return &trial{
		cell: d.Name + "/" + path, path: path, span: "engine." + path, n: csr.N(),
		prog: prog, csr: csr, desc: d, args: args, seed: seed, check: check,
	}
}

// graphTrial builds a Bound trial. eng is "sync" or "async"; synchro
// selects the asynchronous synchronizer ("" is α).
func graphTrial(b *protocol.Bound, cell, eng, synchro string, sc *scenario.Scenario, model channel.Model, seed uint64, maxSteps int64) *trial {
	t := &trial{cell: cell, n: b.Graph().N(), bound: b, seed: seed}
	dynamic := !sc.Empty()
	if eng == "sync" {
		t.syncCfg = &protocol.SyncConfig{Seed: seed, Workers: 1, Scenario: sc, Channel: model}
		t.path = "sync.flat"
		if dynamic || model != nil {
			t.path = "sync_dynamic"
		}
	} else {
		adv := engine.NamedAdversaries(seed ^ saltAdversary)["uniform"]
		t.asyncCfg = &protocol.AsyncConfig{Seed: seed, Adversary: adv, MaxSteps: maxSteps, Scenario: sc, Channel: model, Synchro: synchro}
		name := synchro
		if name == "" {
			name = protocol.SynchroAlpha
		}
		t.path = "async." + name
		if dynamic {
			t.path = "async_dynamic." + name
		}
	}
	t.span = "engine." + t.path
	return t
}

// outcome is what one trial run reports to its pass.
type outcome struct {
	converged, valid bool
	errored          error // any run error other than non-convergence
	cpuNS            int64 // run, decode and check; the digest is not timed
	steps            int64 // async Run.Steps; rounds × n for sync runs
	counters         [nCounters]int64
}

// Channel and vote counters summed over a pass; every one is a
// simulated statistic, identical under any performance-only change.
const (
	cDropped = iota
	cDuplicated
	cReordered
	cCorrupted
	cOutvoted
	cRePulseSends
	cEvicted
	nCounters
)

var counterNames = [nCounters]string{
	"channel.dropped", "channel.duplicated", "channel.reordered", "channel.corrupted",
	"voted.outvoted", "voted.repulse_sends", "voted.evicted",
}

// pathStats accumulates one executor path's share of a traced pass.
type pathStats struct {
	cpuNS, steps    int64
	allocB, mallocs uint64
}

// run executes the trial and feeds its simulated statistics into h (nil
// skips the digest). With tracing on it records the calls as spans of
// trial id and, when paths is non-nil, charges the engine call to its
// executor path there.
func (t *trial) run(tr *tracer, id int, scr *protocol.Scratch, h *digest, paths map[string]*pathStats) outcome {
	var ms0, ms1 runtime.MemStats
	if tr.on {
		sp := tr.begin("bench.memstats", id)
		runtime.ReadMemStats(&ms0)
		tr.end(sp)
	}
	var (
		o   outcome
		run *protocol.Run
		res *engine.SyncResult
		err error
	)
	c0 := cpuNow()
	sp := tr.begin(t.span, id)
	switch {
	case t.prog != nil:
		res, err = t.prog.RunSyncReusing(engine.SyncConfig{Seed: t.seed, Workers: 1, Backend: t.backend}, scr.Eng)
	case t.syncCfg != nil:
		run, err = t.bound.RunSyncReusing(*t.syncCfg, scr)
	default:
		run, err = t.bound.RunAsyncReusing(*t.asyncCfg, scr)
	}
	cpu := tr.end(sp)
	if tr.on {
		sp := tr.begin("bench.memstats", id)
		runtime.ReadMemStats(&ms1)
		tr.end(sp)
	}
	switch {
	case err == nil:
		o.converged = true
	case !errors.Is(err, engine.ErrNoConvergence):
		o.errored = fmt.Errorf("%s: %w", t.cell, err)
	}
	var out protocol.Output
	if o.converged {
		if res != nil {
			o.steps = int64(res.Rounds) * int64(t.n)
			sp := tr.begin("protocol.decode", id)
			out, err = t.desc.Decode(t.args, res.States)
			tr.end(sp)
			if err != nil {
				o.errored = fmt.Errorf("%s: decode: %w", t.cell, err)
				o.converged = false
			} else {
				sp := tr.begin("protocol.check", id)
				o.valid = t.check(t.csr, out) == nil
				tr.end(sp)
			}
		} else {
			out = run.Output
			if t.asyncCfg != nil {
				o.steps = run.Steps
			} else {
				o.steps = int64(run.Rounds) * int64(t.n)
			}
			o.counters = [nCounters]int64{run.Dropped, run.Duplicated, run.Reordered, run.Corrupted,
				run.Outvoted, run.RePulseSends, int64(len(run.EvictedEdges))}
			sp := tr.begin("protocol.check", id)
			o.valid = t.bound.CheckRun(run) == nil
			tr.end(sp)
		}
	}
	o.cpuNS = cpuNow() - c0
	if tr.on && paths != nil {
		ps := paths[t.path]
		if ps == nil {
			ps = &pathStats{}
			paths[t.path] = ps
		}
		ps.cpuNS += cpu
		ps.steps += o.steps
		ps.allocB += ms1.TotalAlloc - ms0.TotalAlloc
		ps.mallocs += ms1.Mallocs - ms0.Mallocs
	}
	if h != nil {
		sp := tr.begin("bench.digest", id)
		h.trial(t, &o, run, res, out)
		tr.end(sp)
	}
	return o
}

// digest hashes every trial's simulated statistics in pass order:
// status, rounds or time units, steps, transmissions, channel and vote
// counters, perturbation times, recovery and the output itself. Timing
// never enters it, so it must repeat exactly across passes, processes
// and any performance-only change.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func (d *digest) u64(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
func (d *digest) i64(v int64)  { d.u64(uint64(v)) }
func (d *digest) f64(v float64) {
	d.u64(math.Float64bits(v))
}
func (d *digest) flush() {
	d.h.Write(d.buf) // hash.Hash.Write never fails
	d.buf = d.buf[:0]
}

func (d *digest) trial(t *trial, o *outcome, run *protocol.Run, res *engine.SyncResult, out protocol.Output) {
	d.buf = append(d.buf, t.cell...)
	var status uint64
	if o.converged {
		status |= 1
	}
	if o.valid {
		status |= 2
	}
	if o.errored != nil {
		status |= 4
	}
	d.u64(status)
	d.i64(o.steps)
	switch {
	case res != nil:
		d.i64(int64(res.Rounds))
		d.i64(res.Transmissions)
	case run != nil:
		d.i64(int64(run.Rounds))
		d.i64(run.Transmissions)
		d.f64(run.TimeUnits)
		d.i64(run.Steps)
		d.i64(run.Lost)
		for _, v := range []int64{run.Dropped, run.Duplicated, run.Delayed, run.Reordered, run.Corrupted, run.Severed,
			run.Outvoted, run.VotedRejections, run.RePulses, run.RePulseSends} {
			d.i64(v)
		}
		for _, e := range run.EvictedEdges {
			d.i64(int64(e[0]))
			d.i64(int64(e[1]))
		}
		for _, at := range run.PerturbedAt {
			d.f64(at)
		}
		d.f64(run.Recovery)
	}
	d.flush()
	switch v := out.(type) {
	case protocol.Mask:
		for i, in := range v {
			if in {
				d.u64(uint64(i))
			}
			if len(d.buf) >= 4096 {
				d.flush()
			}
		}
	case protocol.Colors:
		for _, c := range v {
			d.buf = append(d.buf, byte(c))
			if len(d.buf) >= 4096 {
				d.flush()
			}
		}
	}
	d.flush()
}

// checkMISCSR verifies a maximal independent set on a CSR: no two
// members adjacent, every non-member has a member neighbor.
func checkMISCSR(c *graph.CSR, out protocol.Output) error {
	in, ok := out.(protocol.Mask)
	if !ok || len(in) != c.N() {
		return fmt.Errorf("mis output is %T of length mismatched to n=%d", out, c.N())
	}
	for v := 0; v < c.N(); v++ {
		dominated := in[v]
		for _, u := range c.NbrDat[c.NbrOff[v]:c.NbrOff[v+1]] {
			if in[u] {
				if in[v] {
					return fmt.Errorf("adjacent members %d and %d", v, u)
				}
				dominated = true
			}
		}
		if !dominated {
			return fmt.Errorf("node %d has no member in its closed neighborhood", v)
		}
	}
	return nil
}

// checkColor3CSR verifies a proper colouring with colours 1..3 on a CSR.
func checkColor3CSR(c *graph.CSR, out protocol.Output) error {
	col, ok := out.(protocol.Colors)
	if !ok || len(col) != c.N() {
		return fmt.Errorf("color3 output is %T of length mismatched to n=%d", out, c.N())
	}
	for v := 0; v < c.N(); v++ {
		if col[v] < 1 || col[v] > 3 {
			return fmt.Errorf("node %d has colour %d outside 1..3", v, col[v])
		}
		for _, u := range c.NbrDat[c.NbrOff[v]:c.NbrOff[v+1]] {
			if col[u] == col[v] {
				return fmt.Errorf("adjacent nodes %d and %d share colour %d", v, u, col[v])
			}
		}
	}
	return nil
}
