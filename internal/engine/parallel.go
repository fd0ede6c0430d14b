package engine

import (
	"fmt"
	"runtime"
	"sync"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// minShard is the smallest per-worker node range the default worker
// count creates: below it a round's barriers outweigh the sharding.
const minShard = 256

// RunSync executes the compiled program in the locally synchronous
// environment with a private scratch arena (see RunSyncReusing).
func (p *Program) RunSync(cfg SyncConfig) (*SyncResult, error) {
	return p.RunSyncReusing(cfg, nil)
}

// RunSyncReusing executes the compiled program synchronously, reusing
// the scratch arena's working state and memos across runs (scr may be
// nil for a private arena).
//
// This is the compiled engine's only round loop. A round's compute
// phase applies δ to every node against the ports frozen at the end of
// the previous round; its deliver phase makes the round's transmissions
// visible. A backend kernel (flat or bit-plane) runs both over one shard
// pool; everything else is a hook around them. A non-empty scenario
// applies its due batches before a compute phase and restricts it to
// the awake nodes, and a channel model expands the flat deliver phase
// (dynamic_sync.go). A static run is the empty-scenario case.
func (p *Program) RunSyncReusing(cfg SyncConfig, scr *Scratch) (*SyncResult, error) {
	sc := cfg.Scenario
	if sc.Empty() {
		sc = nil // a static run: every scenario hook below is off
	}
	packed, err := p.packedBackend(cfg.Backend, sc != nil || cfg.Channel != nil)
	if err != nil {
		return nil, err
	}
	if sc != nil {
		if p.g == nil {
			return nil, fmt.Errorf("engine: scenario runs need a graph-bound program (Bind, not BindCSR)")
		}
		if err := prepScenario(sc, p.g); err != nil {
			return nil, err
		}
	}
	if scr == nil {
		scr = NewScratch()
	}
	n := p.csr.N()
	states, err := initialStates(p.m, n, cfg.Init)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}
	scr.bind(p.MachineCode)
	res := &SyncResult{States: states}
	var dyn *syncScenario
	if sc != nil {
		byz, err := byzIndex(sc.Byzantine, n, p.nl)
		if err != nil {
			return nil, err
		}
		dyn = &syncScenario{sc: sc, init: cfg.Init, g: p.g, live: scenario.NewLiveness(n, sc.Asleep), byz: byz}
		res.FinalGraph = p.g
	}

	var k roundKernel
	var fk *flatKernel
	units := n
	if packed {
		pk := &packedKernel{p: p, pc: p.packedCode(), ps: scr.packed(), seed: cfg.Seed}
		pk.ps.reset(p, pk.pc, states)
		k, units = pk, pk.ps.nw
	} else {
		scr.rc.reset(p, p.csr)
		if cap(scr.emits) < n {
			scr.emits = make([]nfsm.Letter, n)
		}
		fk = &flatKernel{p: p, rc: &scr.rc, csr: p.csr, states: states, emits: scr.emits[:n], seed: cfg.Seed, dyn: dyn}
		if cfg.Channel != nil {
			fk.ch = &scr.ch
			fk.ch.reset(cfg.Channel, res)
		}
		k = fk
	}
	// Scenario and channel runs are sequential; static runs shard.
	workers := 1
	if sc == nil && cfg.Channel == nil && (packed || p.parallel) {
		if workers = cfg.Workers; workers <= 0 {
			workers = min(runtime.GOMAXPROCS(0), n/minShard)
		}
		workers = max(1, min(workers, units))
	}
	pool := &scr.pool
	pool.size(workers, units)
	k.shard(scr, pool)

	// Termination is every awake honest node in an output state.
	outputs, target := dyn.count(p, &scr.dss[0], states)
	if !dyn.pending() && outputs == target {
		return res, nil
	}
	defer pool.start(k)()

	// stable counts consecutive rounds ending in an output
	// configuration. After a perturbation termination takes TWO: a batch
	// leaves fresh ports holding the initial letter for one round, so a
	// configuration can look terminal before the perturbation's effects
	// have propagated, and one confirmation round closes that window.
	stable, lastPerturb := 0, 0
	for round := 1; round <= maxRounds; round++ {
		if dyn.due(round) {
			if err := fk.applyBatches(round, res); err != nil {
				return nil, err
			}
			outputs, target = dyn.count(p, &scr.dss[0], states)
			lastPerturb = round - 1
		}
		r := pool.run(k, round)
		if r.err != nil {
			return nil, r.err
		}
		res.Transmissions += r.tx
		outputs += r.outDelta
		pool.run(k, -round)
		if cfg.Observer != nil {
			k.decode(states)
			cfg.Observer(round, states)
		}
		if !dyn.pending() && outputs == target {
			stable++
		} else {
			stable = 0
		}
		if stable >= 2 || (stable >= 1 && len(res.PerturbedAt) == 0) {
			res.Rounds = round
			if len(res.PerturbedAt) > 0 {
				res.RecoveryRounds = round - lastPerturb
			}
			k.decode(states)
			return res, nil
		}
		// A round that evaluated no node froze the configuration for
		// good; fail fast unless an observer must see every round.
		if r.frozen && cfg.Observer == nil {
			break
		}
	}
	return nil, fmt.Errorf("%w: %s after %d rounds", ErrNoConvergence, machineName(p.m), maxRounds)
}

// packedBackend resolves SyncConfig.Backend to whether the run takes
// the bit-plane kernel. It is the one place a backend is validated, so
// each fault fails with one message whatever the run's shape.
func (p *Program) packedBackend(backend string, dynamic bool) (bool, error) {
	switch backend {
	case "":
		return !dynamic && p.csr.N() >= packedAutoThreshold && p.PackedEligible(), nil
	case BackendFlat:
		return false, nil
	case BackendPacked:
		if dynamic {
			return false, fmt.Errorf("engine: the packed backend supports neither scenarios nor channel models")
		}
		if !p.PackedEligible() {
			return false, fmt.Errorf("engine: machine %s is not packed-eligible (flat-tabulated, b ≤ %d required)", machineName(p.m), maxPackedB)
		}
		return true, nil
	}
	return false, fmt.Errorf("engine: unknown sync backend %q (want %q or %q)", backend, BackendFlat, BackendPacked)
}

// roundKernel is a backend's share of a round over its units: nodes for
// the flat kernel, 64-node plane words for the packed one. compute
// covers the units [lo, hi) as worker w and, on a sharded run, routes
// w's transmissions to their destination shards; decode brings states
// up to date for the Observer and the result.
type roundKernel interface {
	shard(scr *Scratch, pool *shardPool) // size the per-worker buffers
	compute(lo, hi, round, w int) shardResult
	deliver(round int)      // the sequential deliver phase
	deliverShard(shard int) // the sharded deliver phase of one shard
	decode(states []nfsm.State)
}

// shardResult is one worker's compute-phase aggregate; frozen reports
// that the shard evaluated no node, so nothing changes until a delivery.
type shardResult struct {
	tx       int64
	outDelta int
	frozen   bool
	err      error
}

// shardPool runs a round's phases over w shards of a kernel's units,
// one goroutine per shard (started per run) or a direct call on one
// worker. It lives in the Scratch. A shard's compute writes only its own
// units and each destination is delivered to by its owning shard alone,
// so results are bit-identical at every shard count (DESIGN.md).
type shardPool struct {
	lo, hi  []int   // shard s owns units [lo[s], hi[s])
	shardOf []int32 // unit → owning shard (sharded runs only)
	results []shardResult
	cmds    []chan int     // per shard: see run
	wg      sync.WaitGroup // the phase barrier
	exited  sync.WaitGroup // the shard goroutines still running
}

// size splits units over w shards, reusing the pool's storage.
func (sp *shardPool) size(w, units int) {
	sp.lo, sp.hi, sp.results = perWorker(sp.lo, w), perWorker(sp.hi, w), perWorker(sp.results, w)
	sp.shardOf = sp.shardOf[:0]
	if w > 1 {
		sp.shardOf = grow(sp.shardOf, units, 0)
	}
	for i := 0; i < w; i++ {
		sp.lo[i], sp.hi[i] = i*units/w, (i+1)*units/w
		for u := sp.lo[i]; w > 1 && u < sp.hi[i]; u++ {
			sp.shardOf[u] = int32(i)
		}
	}
}

// start launches the shard goroutines and returns their stop function,
// which returns once every one of them has returned: no goroutine
// outlives the run.
func (sp *shardPool) start(k roundKernel) (stop func()) {
	if len(sp.lo) == 1 {
		return func() {}
	}
	sp.cmds = perWorker(sp.cmds, len(sp.lo))
	sp.exited.Add(len(sp.cmds))
	for i := range sp.cmds {
		sp.cmds[i] = make(chan int, 1)
		go func(i int) {
			defer sp.exited.Done()
			for c := range sp.cmds[i] {
				if c > 0 {
					sp.results[i] = k.compute(sp.lo[i], sp.hi[i], c, i)
				} else {
					k.deliverShard(i)
				}
				sp.wg.Done()
			}
		}(i)
	}
	return func() {
		for _, c := range sp.cmds {
			close(c)
		}
		sp.exited.Wait()
	}
}

// run runs one phase of a round on every shard behind a barrier: c > 0
// is round c's compute phase, whose aggregate it returns (the lowest
// shard's error wins, as on one worker), and c < 0 round -c's deliver
// phase.
func (sp *shardPool) run(k roundKernel, c int) shardResult {
	if len(sp.lo) == 1 {
		if c > 0 {
			return k.compute(sp.lo[0], sp.hi[0], c, 0)
		}
		k.deliver(-c)
		return shardResult{}
	}
	sp.wg.Add(len(sp.cmds))
	for _, ch := range sp.cmds {
		ch <- c
	}
	sp.wg.Wait()
	if c < 0 {
		return shardResult{}
	}
	r := shardResult{frozen: true}
	for _, s := range sp.results {
		if s.err != nil {
			return s
		}
		r.tx += s.tx
		r.outDelta += s.outDelta
		r.frozen = r.frozen && s.frozen
	}
	return r
}

// perWorker returns buf resized to w entries, keeping the storage of
// the entries a previous run left behind.
func perWorker[T any](buf []T, w int) []T {
	if cap(buf) < w {
		nb := make([]T, w)
		copy(nb, buf[:cap(buf)])
		return nb
	}
	return buf[:w]
}

// routeBuckets sizes the w×w route buckets: buckets[i][s] holds the
// writes worker i's emitters address to shard s.
func routeBuckets[W any](buckets [][][]W, w int) [][][]W {
	buckets = perWorker(buckets, w)
	for i := range buckets {
		buckets[i] = perWorker(buckets[i], w)
	}
	return buckets
}

// flatKernel is the word-per-node backend over runCounts' ports and
// incremental counts. Its scenario and channel hooks (dyn, ch) are nil
// on static reliable runs.
type flatKernel struct {
	p      *Program
	rc     *runCounts
	csr    *graph.CSR // the current topology (re-bound by scenario batches)
	states []nfsm.State
	emits  []nfsm.Letter
	seed   uint64
	dss    []dynScratch // per-worker dynamic-path scratch (counts + δ-row memos)
	// emitters[w] lists worker w's transmitters this round: deliver walks
	// only their edges (most rounds of a converging protocol are quiet).
	emitters [][]int32
	buckets  [][][]portWrite
	shardOf  []int32 // node → owning shard (sharded runs only)

	dyn *syncScenario
	ch  *syncChannel
}

// portWrite is one routed transmission: set the port at CSR slot `slot`
// of node `u` to letter `l`.
type portWrite struct {
	u, slot int32
	l       int32
}

func (e *flatKernel) shard(scr *Scratch, pool *shardPool) {
	w := len(pool.lo)
	scr.emitters, scr.buckets, scr.dss = perWorker(scr.emitters, w), routeBuckets(scr.buckets, w), perWorker(scr.dss, w)
	e.emitters, e.buckets, e.dss, e.shardOf = scr.emitters, scr.buckets, scr.dss, pool.shardOf
	for i := range e.dss {
		e.dss[i].init(e.p.MachineCode)
	}
}

func (e *flatKernel) decode([]nfsm.State) {}

// compute applies δ to every node of [lo, hi) against its frozen
// counts, drawing its move from the node-indexed coin. Writes touch only
// states[v], emits[v] and the worker's own emitter list, so shards never
// conflict. Tabulated machines run without a function call per node;
// dynamic-fallback machines and every scenario run take the generic
// path.
func (e *flatKernel) compute(lo, hi, round, worker int) (r shardResult) {
	p := e.p
	states, emits, seed := e.states, e.emits, e.seed
	mask := p.outMask
	emitters := e.emitters[worker][:0]
	defer func() { e.emitters[worker] = emitters }()

	kind := p.kind
	if e.dyn != nil {
		kind = progDynamic
	}
	switch kind {
	case progFlat:
		delta, pdim, idx := p.delta, p.pdim, e.rc.idx
		for v := lo; v < hi; v++ {
			q := states[v]
			moves := delta[int(q)*pdim+int(idx[v])]
			if len(moves) == 0 {
				r.err = deltaEmptyErr(v, q, round)
				return r
			}
			mv := nfsm.PickMove(seed, v, round, moves)
			if mv.Next != q {
				r.outDelta += int(mask[mv.Next>>6]>>(uint(mv.Next)&63)&1) - int(mask[q>>6]>>(uint(q)&63)&1)
				states[v] = mv.Next
			}
			if mv.Emit != nfsm.NoLetter {
				emits[v] = mv.Emit
				emitters = append(emitters, int32(v))
				r.tx++
			}
		}
	default:
		// On a scenario run, asleep and crashed nodes do nothing, and a
		// Byzantine node never runs δ (its state stays put) but emits
		// whatever its behavior dictates; its traffic rides the channel
		// like any other and counts as a transmission.
		ds, d := &e.dss[worker], e.dyn
		for v := lo; v < hi; v++ {
			q := states[v]
			var mv nfsm.Move
			if d != nil && !d.honest(v) {
				if !d.live.Awake(v) {
					continue
				}
				mv = nfsm.Move{Next: q, Emit: d.sc.Byzantine[d.byz[v]].Emit(round, p.nl)}
			} else {
				var dout, size int
				if mv, dout, size = e.rc.pick(v, q, ds, seed, round); size == 0 {
					r.err = deltaEmptyErr(v, q, round)
					return r
				}
				r.outDelta += dout
			}
			states[v] = mv.Next
			if mv.Emit != nfsm.NoLetter {
				e.emits[v] = mv.Emit
				emitters = append(emitters, int32(v))
				r.tx++
			}
		}
	}
	if len(e.shardOf) > 0 {
		e.route(worker, emitters)
	}
	return r
}

// route buckets the worker's emitted edges by destination shard.
func (e *flatKernel) route(worker int, emitters []int32) {
	off, nbr, rev := e.csr.NbrOff, e.csr.NbrDat, e.csr.RevPort
	bk := e.buckets[worker]
	for s := range bk {
		bk[s] = bk[s][:0]
	}
	for _, v := range emitters {
		l := int32(e.emits[v])
		for k := off[v]; k < off[v+1]; k++ {
			u := nbr[k]
			s := e.shardOf[u]
			bk[s] = append(bk[s], portWrite{u: u, slot: off[u] + rev[k], l: l})
		}
	}
}

func deltaEmptyErr(v int, q nfsm.State, round int) error {
	return fmt.Errorf("engine: δ empty at node %d state %d round %d", v, q, round)
}

// deliver is the sequential deliver phase: runCounts.setPort unrolled
// over every emitter's edges with its indirections hoisted — the
// hottest loop of the engine. A channel run takes deliverChannel.
func (e *flatKernel) deliver(round int) {
	if e.ch != nil {
		e.deliverChannel(round)
		return
	}
	rc := e.rc
	off, nbr, rev := e.csr.NbrOff, e.csr.NbrDat, e.csr.RevPort
	portDat, raw, idx, pow := rc.portDat, rc.raw, rc.idx, e.p.pow
	nl, b := e.p.nl, int32(e.p.b)
	for _, lst := range e.emitters {
		for _, v := range lst {
			l := e.emits[v]
			for k := off[v]; k < off[v+1]; k++ {
				u := nbr[k]
				dst := off[u] + rev[k]
				old := portDat[dst]
				if old == l {
					continue
				}
				portDat[dst] = l
				base := int(u) * nl
				io, in := base+int(old), base+int(l)
				raw[io]--
				raw[in]++
				if idx != nil {
					if raw[io] < b {
						idx[u] -= pow[old]
					}
					if raw[in] <= b {
						idx[u] += pow[l]
					}
				}
			}
		}
	}
}

// deliverShard applies exactly the port writes routed to the shard.
// Ports are owned by their destination node and written at most once
// per round, and the count updates commute, so the post-round state is
// identical for every worker count.
func (e *flatKernel) deliverShard(shard int) {
	rc := e.rc
	portDat, raw, idx, pow := rc.portDat, rc.raw, rc.idx, e.p.pow
	nl, b := e.p.nl, int32(e.p.b)
	for w := range e.buckets {
		for _, d := range e.buckets[w][shard] {
			l := nfsm.Letter(d.l)
			old := portDat[d.slot]
			if old == l {
				continue
			}
			portDat[d.slot] = l
			base := int(d.u) * nl
			io, in := base+int(old), base+int(l)
			raw[io]--
			raw[in]++
			if idx != nil {
				if raw[io] < b {
					idx[d.u] -= pow[old]
				}
				if raw[in] <= b {
					idx[d.u] += pow[l]
				}
			}
		}
	}
}
