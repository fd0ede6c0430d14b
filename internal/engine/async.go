package engine

import (
	"fmt"
	"math"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// stepKey is the tie key of a step event under a TieFree adversary,
// replacing the push-order seq counter the reference engine breaks
// ties with. Parking elides and reorders pushes, so push order is no
// longer available — but under the TieFree contract the only events
// that can share an exact time are steps of constant-step-length
// nodes, and for those the reference's push order is derivable: the
// node with the larger current step length pushed earlier (its
// previous step was earlier), and equal lengths recurse down identical
// chains to the pushes that began them. A chain begins at the initial
// pushes (time 0, node order) or at the batch that (re)started the
// node (batch time, start order); a batch precedes every event at its
// time, so the chain that began later pushed first, and equal origin
// times keep their push order. Packing the inverted float bits of the
// length (descending) over the node's origin rank (ascending; see
// originRanks) therefore reproduces the reference's tie order exactly.
// The low 20 bits hold the rank, so lengths must be distinguishable in
// their top 44 bits and n plus the scenario's restart and wake
// mutations must stay below 2^20 — both documented in TieFree.
// The chain-walk window bounds the lookahead of a single park decision:
// a longer silent chain is virtualized in checkpoint windows (the cap
// branch schedules a real step mid-chain, which is always sound). The
// window adapts per node between these bounds — see
// asyncScratch.walkCap.
const (
	walkCapMin = 16
	walkCapMax = 256
)

func stepKey(l float64, rank int32) uint64 {
	return ^math.Float64bits(l)&^uint64(0xFFFFF) | uint64(uint32(rank))&0xFFFFF
}

// originRanks fills base[i] with the first origin rank of batch i's
// starts and returns the first rank of the initial pushes and the
// number of ranks used. Origins are ranked by time descending, then
// push order ascending: the batches after time 0, latest first (equal
// times in list order), then the initial pushes in node order, then the
// batches at time 0 in list order. A batch's rank block has one rank
// per restart or wake mutation, an upper bound on the nodes it starts.
func originRanks(batches []scenario.Batch, n int, base []int32) (initBase int32, total int) {
	starts := func(b scenario.Batch) int {
		k := 0
		for _, m := range b.Muts {
			if m.Kind == graph.MutRestartNode || m.Kind == graph.MutWakeNode {
				k++
			}
		}
		return k
	}
	end := len(batches)
	for end > 0 && batches[end-1].At > 0 {
		// The group of batches sharing the latest remaining time.
		start := end - 1
		for start > 0 && batches[start-1].At == batches[end-1].At {
			start--
		}
		for i := start; i < end; i++ {
			base[i] = int32(total)
			total += starts(batches[i])
		}
		end = start
	}
	initBase = int32(total)
	total += n
	for i := 0; i < end; i++ {
		base[i] = int32(total)
		total += starts(batches[i])
	}
	return initBase, total
}

// AsyncConfig parameterizes an asynchronous run.
type AsyncConfig struct {
	// Seed keys the protocol's random choices (the adversary carries its
	// own seed; Section 2 requires the adversary be oblivious to the
	// protocol's coins, which separate seeds guarantee).
	Seed uint64
	// Adversary supplies every step length and delivery delay. Nil
	// selects the Synchronous policy.
	Adversary Adversary
	// MaxSteps aborts the run when the total number of node steps
	// exceeds it; zero selects 1<<24.
	MaxSteps int64
	// Init optionally assigns per-node initial states, as in SyncConfig.
	Init []nfsm.State
	// Observer, when non-nil, is invoked after every node step with the
	// event time, the node, its step index and its new state. Used by
	// analysis instrumentation (e.g. the synchronization-property
	// tests). Setting an observer disables the self-loop parking fast
	// path: every step is then materialized so the observer sees the
	// full stream.
	Observer func(time float64, node, step int, state nfsm.State)
	// Scenario, when non-nil and non-empty, makes the run dynamic: each
	// mutation batch is applied at absolute time Batch.At, before any
	// event scheduled at or after that time. Surviving node and port
	// state (letters, FIFO horizons, write times) is carried across
	// topology re-binds; a delivery resolves its port against the
	// topology current at arrival, so traffic in flight on a removed
	// edge is dropped; crashed nodes stop stepping and restarted ones
	// resume from a reboot. The reset policy must be concrete (the
	// protocol layer resolves ResetAuto). A nil or empty scenario is the
	// static run: the same event loop with every scenario hook off. A
	// scenario keeps the parking fast path on.
	Scenario *scenario.Scenario
	// Channel, when non-nil, subjects every transmission to an
	// unreliable-link model: each per-neighbor copy is expanded through
	// the model into zero or more delivered fates (dropped, duplicated,
	// extra-delayed, corrupted — see package channel). A reordering
	// model voids the per-edge FIFO guarantee, and any model turns off
	// the parking fast path; a nil Channel is the unchanged
	// zero-overhead reliable path.
	Channel channel.Model
	// Voted, when non-nil, selects the voted synchronizer tier's
	// engine contract (see voted.go): burst transmissions decoded by a
	// K-of-(2K−1) receipt vote, dead-edge eviction, and per-edge
	// re-pulse backoff. The machine should be a synchro.CompileVoted
	// compilation (the αβ state machine with the voted contract);
	// voted runs disable the parking fast path and reject scenarios
	// with topological mutations. Nil runs the plain
	// or αβ contract unchanged.
	Voted *VotedConfig
}

// AsyncResult reports a completed asynchronous run.
type AsyncResult struct {
	// Time is the absolute time at which the output configuration was
	// reached, in the adversary's raw scale.
	Time float64
	// TimeUnits is the paper's run-time measure: Time divided by the
	// largest step-length or delay parameter used before completion.
	TimeUnits float64
	// Steps is the total number of node steps executed.
	Steps int64
	// Transmissions counts non-ε transmissions.
	Transmissions int64
	// Lost counts deliveries that overwrote a port value which the
	// destination node had not yet observed in any step — messages the
	// adversary destroyed, as permitted by the model (no buffering).
	// This is pure paper semantics: channel drops and removed-edge
	// drops are counted separately below.
	Lost int64
	// Dropped, Duplicated and Corrupted count the channel model's
	// interventions (zero without one): copies eliminated, extra copies
	// created, letters flipped. Delayed counts copies the model assigned
	// a non-zero extra delay (attempted reorders); Reordered counts
	// deliveries scheduled before an already-scheduled delivery on the
	// same directed edge — the overtakes those attempts actually caused.
	// Under a self-pacing synchronizer Delayed can be large while
	// Reordered stays 0: the per-edge send gap outgrows the extra delay.
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Reordered  int64
	Corrupted  int64
	// Severed counts in-flight deliveries dropped because a scenario
	// mutation removed their edge before arrival (previously conflated
	// with nothing — they vanished uncounted).
	Severed int64
	// Voted-decoder reporting, populated only under AsyncConfig.Voted:
	// Outvoted counts corrupted receipts the vote refused to commit;
	// VotedRejections counts receipts that produced no winner;
	// RePulses counts re-pulse firings (node emissions classified by
	// the machine's re-pulse source states); RePulseSends counts the
	// per-edge re-pulse transmissions actually sent after backoff
	// gating; EvictedEdges lists the evicted edges as (listener,
	// silenced neighbor) pairs in eviction order.
	Outvoted        int64
	VotedRejections int64
	RePulses        int64
	RePulseSends    int64
	EvictedEdges    [][2]int
	// States is the final state of every node.
	States []nfsm.State

	// PerturbedAt lists the absolute times of a dynamic run's mutation
	// batches. Nil for static runs.
	PerturbedAt []float64
	// RecoveryTime is the absolute time from the last perturbation to
	// the final output configuration (0 when nothing was perturbed);
	// RecoveryTimeUnits is the same span in the paper's normalized
	// measure.
	RecoveryTime      float64
	RecoveryTimeUnits float64
	// FinalGraph is the post-mutation topology of a dynamic run — the
	// graph any output validator must be checked against. Nil for
	// static runs.
	FinalGraph *graph.Graph
}

// RunAsync executes machine m on graph g in the asynchronous environment
// of Section 2 under the given adversarial policy. Like RunSync it goes
// through the compiled fast path; Compile once and call Program.RunAsync
// to amortize the lowering across runs.
func RunAsync(m nfsm.Machine, g *graph.Graph, cfg AsyncConfig) (*AsyncResult, error) {
	return Compile(m, g).RunAsync(cfg)
}

// RunAsync executes the compiled program asynchronously with a private
// scratch arena. Callers that execute many runs should allocate one
// Scratch per worker and call RunAsyncReusing.
func (p *Program) RunAsync(cfg AsyncConfig) (*AsyncResult, error) {
	return p.RunAsyncReusing(cfg, nil)
}

// RunAsyncReusing executes the compiled program asynchronously. The
// event loop is sequential (the adversary's timing makes steps causally
// dependent), but it shares the synchronous executor's representation:
// flat δ lookups, the CSR edge order for ports and the flattened
// reverse-port table for deliveries, and incremental count maintenance
// in place of per-step port rescans.
//
// Events — steps and every in-flight delivery — are ordered by the
// (time, seq) total order in a two-tier ladder queue. Under a TieFree
// adversary, a node whose current δ row is a lone ε self-loop is
// "parked": its spin steps leave the queue entirely and are replayed
// arithmetically when a delivery next touches the node (or when the run
// ends), consuming exactly the adversary parameters and step counts the
// materialized steps would have — the differential and fuzz walls check
// the executor is bit-identical to the reference engine either way.
//
// A non-empty cfg.Scenario is a hook inside the same loop, not a
// separate executor: mutation batches apply before any event at or
// after their time, a crash invalidates the node's pending step through
// its epoch, rebooted nodes resume on a fresh step schedule, Byzantine
// nodes emit by behavior instead of running δ, and per-edge state —
// port letters, last-write times, FIFO horizons — is carried across
// topology re-binds by directed-edge identity (graph.RemapPorts). Slots
// renumber at a re-bind, so a scenario that mutates the topology
// addresses its deliveries by sender and resolves the port against the
// topology current at arrival: a delivery whose edge is gone is
// Severed, one whose edge was removed and re-added lands on the new
// port. Each fast path stays on only where the run cannot tell. Parking
// survives batches: a batch first replays every parked chain up to its
// time, then mutates, then re-schedules those nodes from their pending
// step, so a re-bind or reset is observed exactly when the reference
// observes it.
//
// scr may be nil (a private arena is allocated); reusing one across
// runs makes steady-state execution allocation-free.
func (p *Program) RunAsyncReusing(cfg AsyncConfig, scr *Scratch) (*AsyncResult, error) {
	// sc is nil on a static run: a nil or empty scenario skips every
	// scenario hook below.
	sc := cfg.Scenario
	if sc.Empty() {
		sc = nil
	} else {
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
	cur := p.csr
	n := cur.N()
	states, err := initialStates(p.m, n, cfg.Init)
	if err != nil {
		return nil, err
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = Synchronous{}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1 << 24
	}

	ne := len(cur.NbrDat)
	scr.bind(p.MachineCode)
	rc := &scr.rc
	rc.reset(p, cur)
	ds := &scr.dss[0]
	as := scr.async()

	// portWriteAt[k] is the time of the last write to the port at CSR
	// edge slot k (-1 initially); lastDelivery[k] enforces FIFO on the
	// directed edge at slot k (v → NbrDat[k]).
	as.portWriteAt = grow(as.portWriteAt, ne, -1)
	as.lastDelivery = grow(as.lastDelivery, ne, 0)
	portWriteAt, lastDelivery := as.portWriteAt, as.lastDelivery

	as.stepIndex = grow(as.stepIndex, n, 0)
	as.lastStepAt = grow(as.lastStepAt, n, 0)
	stepIndex, lastStepAt := as.stepIndex, as.lastStepAt
	// epochs[v] invalidates node v's queued step event: a crash bumps
	// it, and so does a delivery or a batch landing inside a parked
	// chain.
	as.epochs = grow(as.epochs, n, 0)
	epochs := as.epochs

	lq := &as.lq
	lq.reset()

	// Scenario state, zero on static runs: g is the evolving topology
	// (cur is its CSR snapshot), live tracks who is awake, byz maps each
	// Byzantine node to its behavior's index, and bySender marks a
	// scenario that mutates the topology.
	var (
		g          *graph.Graph
		live       *scenario.Liveness
		byz        []int32
		batches    []scenario.Batch
		stepsSince []int
		bySender   bool
		topoAt     float64
	)
	if sc != nil {
		g = p.g.Clone()
		live = scenario.NewLiveness(n, sc.Asleep)
		if byz, err = byzIndex(sc.Byzantine, n, p.nl); err != nil {
			return nil, err
		}
		batches = sc.Batches
		stepsSince = make([]int, n)
		as.seen = grow(as.seen, n, false)
		topoAt, bySender = topologicalAt(batches)
	}

	// model/chStats: the unreliable-channel axis. A reordering model
	// voids the per-edge FIFO clamp (overtakes are counted instead).
	model := cfg.Channel
	reorders := model != nil && model.Reorders()
	var chStats channel.Stats

	// Voted tier: the decoder state is per directed-edge slot, and the
	// eviction sentinel would be mis-rebuilt by a re-bind, so topological
	// scenarios are rejected up front. Voting decouples deliveries from
	// port writes (a receipt may commit nothing, or commit a letter other
	// than its own), which the parking replay assumes away, so voted runs
	// materialize every step.
	var vs *votedState
	if cfg.Voted != nil {
		if bySender {
			return nil, fmt.Errorf("engine: voted synchronizer does not support topological mutations (batch at %g)", topoAt)
		}
		vs = newVotedState(cfg.Voted, ne)
	}

	// Parking is sound only when no skipped step can tie exactly with a
	// delivery (see TieFree); observers must see every step
	// materialized, and the step tie key reserves 20 bits for the origin
	// rank, so runs with more chain origins run fully materialized.
	// Channel models multiply and drop deliveries, which the
	// silent-chain walk cannot anticipate, so channel runs also
	// materialize every step.
	initRank, ranks := int32(0), n
	if sc != nil {
		as.batchRank = grow(as.batchRank, len(batches), 0)
		initRank, ranks = originRanks(batches, n, as.batchRank)
	}
	canPark := cfg.Observer == nil && model == nil && ranks < 1<<20 && vs == nil
	if tf, ok := adv.(TieFree); !ok || !tf.TieFreeTimes() {
		canPark = false
	}
	var parked []bool
	var pendingReal []bool
	var rank []int32
	if canPark {
		// rank[v] is the origin rank of node v's current step chain (see
		// stepKey); a batch that (re)starts v assigns it a new one.
		as.rank = grow(as.rank, n, 0)
		rank = as.rank
		for v := range rank {
			rank[v] = initRank + int32(v)
		}
		as.parked = grow(as.parked, n, false)
		as.virtTime = grow(as.virtTime, n, 0)
		as.virtIndex = grow(as.virtIndex, n, 0)
		as.virtLen = grow(as.virtLen, n, 0)
		as.pendingReal = grow(as.pendingReal, n, false)
		if cap(as.walkCap) < n {
			as.walkCap = make([]int32, n)
		}
		as.walkCap = as.walkCap[:n]
		for v := range as.walkCap {
			as.walkCap[v] = walkCapMin
		}
		parked, pendingReal = as.parked, as.pendingReal
	}
	parkedCount := 0
	// Post-perturbation settling window (the asynchronous analogue of
	// the synchronous engines' two-stable-rounds rule): after a batch,
	// termination additionally requires every awake node to have taken
	// at least two steps, so a configuration that merely has not yet
	// observed the perturbation is not mistaken for terminal. Unlike the
	// synchronous window this is a heuristic — adversarial delays can
	// outlast any fixed step budget — but it closes the common race.
	// lagging counts the awake nodes still short of two steps.
	lagging := 0
	batcher, _ := adv.(StepBatcher)
	// stepLen returns StepLength(v, t), batched per node when the
	// adversary supports it: one hash-prefix derivation serves
	// stepLenBatch consecutive steps of a node, and each value is read
	// bit-identically to the per-call sequence the reference engine
	// draws (the function is pure, so reads are free to repeat).
	stepLen := func(v, t int) float64 {
		if batcher == nil {
			return adv.StepLength(v, t)
		}
		idx := t - as.stepFrom[v]
		base := v * stepLenBatch
		if idx < 0 || idx >= stepLenBatch {
			batcher.StepLengths(v, t, as.stepLens[base:base+stepLenBatch])
			as.stepFrom[v] = t
			idx = 0
		}
		return as.stepLens[base+idx]
	}
	if batcher != nil {
		if cap(as.stepLens) < n*stepLenBatch {
			as.stepLens = make([]float64, n*stepLenBatch)
		}
		as.stepLens = as.stepLens[:n*stepLenBatch]
		as.stepFrom = grow(as.stepFrom, n, 0)
		for v := range as.stepFrom {
			as.stepFrom[v] = -2 * stepLenBatch // nothing cached yet
		}
	}

	res := &AsyncResult{States: states, FinalGraph: g}
	// Termination is every awake honest node in an output state
	// (Byzantine nodes never reach one); target counts those nodes — all
	// n on a static run.
	outputs, target := 0, 0
	countLive := func() {
		outputs, target = 0, 0
		for v := 0; v < n; v++ {
			if (live != nil && !live.Awake(v)) || (byz != nil && byz[v] >= 0) {
				continue
			}
			target++
			if p.isOutputDS(states[v], ds) {
				outputs++
			}
		}
	}
	countLive()
	if sc == nil && outputs == target {
		return res, nil
	}

	var (
		seq      uint64
		maxParam float64
	)

	// replay advances parked node v through every skipped step strictly
	// before `until`, exactly as the reference engine would have
	// processed them. The node's ports are untouched since it parked
	// (any delivery unparks first), so its evolution is deterministic:
	// singleton silent rows chain until they reach a self-loop, which
	// then spins arithmetically. Each skipped step advances the state,
	// step index and last-step time, counts toward Steps and the
	// budget, and consumes its successor's step length (updating
	// maxParam) — bit-identical to materialized execution.
	// tieKey 0 replays strictly before `until`; a terminating step's
	// own key additionally includes a virtual step landing exactly on
	// `until` whose reference-order position precedes it.
	replay := func(v int, until float64, tieKey uint64) error {
		vt, vi := as.virtTime[v], as.virtIndex[v]
		lastL := as.virtLen[v] // length of the pending step at vt
		if vt > until || (vt == until && stepKey(lastL, rank[v]) >= tieKey) {
			return nil
		}
		steps := res.Steps
		mp := maxParam
		last := lastStepAt[v]
		cs := states[v]
		for vt < until || (vt == until && stepKey(lastL, rank[v]) < tieKey) {
			nx, kind := rc.silentNext(v, cs, ds)
			if kind == rowSilentSelf && vt < until {
				// Self-loop: spin to the horizon in one tight loop.
				buf := as.stepBuf[:]
				bi, bn := 0, 0
				for vt < until {
					last = vt
					steps++
					if steps >= maxSteps {
						res.Steps = steps
						return fmt.Errorf("%w: %s after %d steps", ErrNoConvergence, machineName(p.m), steps)
					}
					var l float64
					if batcher != nil {
						if bi == bn {
							batcher.StepLengths(v, vi+1, buf)
							bi, bn = 0, len(buf)
						}
						l = buf[bi]
						bi++
					} else {
						l = adv.StepLength(v, vi+1)
					}
					if l <= 0 {
						return fmt.Errorf("engine: adversary returned non-positive step length %g for node %d step %d", l, v, vi+1)
					}
					if l > mp {
						mp = l
					}
					vt += l
					vi++
					lastL = l
				}
				continue
			}
			// One deterministic silent step: a chain hop, or the virtual
			// step landing exactly on the terminating event's time that
			// precedes it in the reference's tie order (its successor is
			// strictly later, so there is one).
			last = vt
			steps++
			if steps >= maxSteps {
				res.Steps = steps
				return fmt.Errorf("%w: %s after %d steps", ErrNoConvergence, machineName(p.m), steps)
			}
			var l float64
			if batcher == nil {
				l = adv.StepLength(v, vi+1)
			} else if idx := vi + 1 - as.stepFrom[v]; uint(idx) < stepLenBatch {
				l = as.stepLens[v*stepLenBatch+idx]
			} else {
				l = stepLen(v, vi+1)
			}
			if l <= 0 {
				return fmt.Errorf("engine: adversary returned non-positive step length %g for node %d step %d", l, v, vi+1)
			}
			if l > mp {
				mp = l
			}
			vt += l
			vi++
			lastL = l
			if kind == rowSilentHop {
				cs = nx
			}
		}
		as.virtTime[v], as.virtIndex[v] = vt, vi
		as.virtLen[v] = lastL
		states[v] = cs
		res.Steps = steps
		maxParam = mp
		lastStepAt[v] = last
		stepIndex[v] = vi - 1
		return nil
	}

	// schedule decides how node v proceeds from state q with pending
	// step ti at absolute time tt. It walks the deterministic silent
	// chain ahead of the node (ports frozen until the next delivery, so
	// the walk is exact): a self-loop parks the node with no event at
	// all; a branching, transmitting or output-flipping row gets a real
	// event at its precomputed time, with the chain before it left
	// virtual for replay. The walk reads future step lengths but
	// commits nothing — lengths enter maxParam only when replay (or
	// materialized processing) consumes them, exactly when the
	// reference engine would.
	// l0 is the length of the pending step at (ti, tt) — the step tie
	// key the reference engine's push order implies (see stepKey).
	schedule := func(v int, q nfsm.State, ti int, tt float64, l0 float64) {
		if !canPark {
			lq.push(qevent{time: tt, seq: seq, node: int32(v), epoch: epochs[v], step: true})
			seq++
			return
		}
		as.virtTime[v], as.virtIndex[v] = tt, ti
		as.virtLen[v] = l0
		if (lagging > 0 && stepsSince[v] < 2) || (byz != nil && byz[v] >= 0) {
			// Virtual steps never count toward the settling window, so a
			// node still short of its two post-batch steps takes them
			// materialized; a Byzantine node does not run δ, so the walk
			// cannot predict it.
			lq.push(qevent{time: tt, seq: stepKey(l0, rank[v]), node: int32(v), epoch: epochs[v], step: true})
			pendingReal[v] = true
			return
		}
		cs := q
		chainCap := int(as.walkCap[v])
		for hop := 0; ; hop++ {
			nx, kind := rc.silentNext(v, cs, ds)
			if kind == rowSilentSelf {
				// Spins until a delivery changes what it observes.
				parked[v] = true
				parkedCount++
				return
			}
			l := 0.0
			if kind == rowSilentHop && hop < chainCap {
				if batcher == nil {
					l = adv.StepLength(v, ti+1)
				} else if idx := ti + 1 - as.stepFrom[v]; uint(idx) < stepLenBatch {
					l = as.stepLens[v*stepLenBatch+idx]
				} else {
					l = stepLen(v, ti+1)
				}
			}
			if l <= 0 {
				// Real event: a branching, transmitting or output-flipping
				// row, a checkpoint on a long chain, or a non-positive
				// length, on which the reference errors when the step
				// consumes it. Replay reconstructs the virtual steps
				// before it.
				lq.push(qevent{time: tt, seq: stepKey(l0, rank[v]), node: int32(v), epoch: epochs[v], step: true})
				pendingReal[v] = true
				if ti > as.virtIndex[v] {
					// Steps were virtualized ahead of the event. The
					// state alone cannot tell (a silent cycle returns
					// to its start state), so compare the step index.
					parked[v] = true
					parkedCount++
				}
				return
			}
			cs = nx
			tt += l
			ti++
			l0 = l
		}
	}

	// scheduleNext draws the length of node v's next step and schedules
	// it, from state q, that long after time `after`.
	scheduleNext := func(v int, q nfsm.State, after float64) error {
		t := stepIndex[v] + 1
		l := stepLen(v, t)
		if l <= 0 {
			return fmt.Errorf("engine: adversary returned non-positive step length %g for node %d step %d", l, v, t)
		}
		if l > maxParam {
			maxParam = l
		}
		schedule(v, q, t, after+l, l)
		return nil
	}

	resetNode := func(v int) {
		states[v] = resetStateOf(p.m, cfg.Init, v)
		rc.resetNode(v, cur)
		for k := cur.NbrOff[v]; k < cur.NbrOff[v+1]; k++ {
			portWriteAt[k] = -1
		}
		if vs != nil {
			vs.resetSlots(cur.NbrOff[v], cur.NbrOff[v+1])
		}
	}
	applyBatch := func(bi int) error {
		b := batches[bi]
		// Materialize every parked chain up to the batch: the batch
		// precedes every event at or after its time, and a re-bind or
		// reset can change what the chain observes. A parked node stays
		// flagged through the mutations, marking it for re-scheduling
		// below, unless the batch crashes it.
		if parkedCount > 0 {
			for w := 0; w < n; w++ {
				if !parked[w] {
					continue
				}
				if err := replay(w, b.At, 0); err != nil {
					return err
				}
				if pendingReal[w] {
					epochs[w]++
					pendingReal[w] = false
				}
			}
		}
		topo := false
		started := as.started[:0]
		for _, m := range b.Muts {
			st, err := live.Apply(m)
			if err != nil {
				return err
			}
			started = append(started, st...)
			if m.Kind == graph.MutCrashNode {
				epochs[m.U]++ // invalidate the pending step event
				if canPark {
					if parked[m.U] {
						parked[m.U] = false
						parkedCount--
					}
					pendingReal[m.U] = false
				}
			}
			if err := m.Apply(g); err != nil {
				return err
			}
			topo = topo || m.Topological()
		}
		// A node may start more than once in a batch (restart, crash,
		// restart): it reboots once and gets one step stream.
		uniq := started[:0]
		for _, v := range started {
			if !as.seen[v] {
				as.seen[v] = true
				uniq = append(uniq, v)
			}
		}
		for _, v := range uniq {
			as.seen[v] = false
		}
		started = uniq
		as.started = started
		if topo {
			next := g.CSR()
			remap := graph.RemapPorts(cur, next)
			rc.rebind(next, remap)
			pw := make([]float64, len(next.NbrDat))
			ld := make([]float64, len(next.NbrDat))
			for k := range pw {
				if o := remap[k]; o >= 0 {
					pw[k] = portWriteAt[o]
					ld[k] = lastDelivery[o]
				} else {
					pw[k] = -1
				}
			}
			portWriteAt, lastDelivery = pw, ld
			cur = next
		}
		for _, v := range b.ResetSet(sc.Reset, g) {
			if live.Awake(v) {
				resetNode(v)
			}
		}
		for _, v := range started {
			resetNode(v)
		}
		countLive()
		for v := range stepsSince {
			stepsSince[v] = 0
		}
		lagging = live.NumAwake()
		// The materialized chains resume from their pending steps.
		if parkedCount > 0 {
			for w := 0; w < n; w++ {
				if parked[w] {
					parked[w] = false
					parkedCount--
					schedule(w, states[w], as.virtIndex[w], as.virtTime[w], as.virtLen[w])
				}
			}
		}
		// Rebooted nodes still awake resume stepping from the batch
		// time, each on a new chain origin.
		k := int32(0)
		for _, v := range started {
			if !live.Awake(v) {
				continue // crashed again later in the batch
			}
			if canPark {
				rank[v] = as.batchRank[bi] + k
				k++
			}
			if err := scheduleNext(v, states[v], b.At); err != nil {
				return err
			}
		}
		return nil
	}

	for v := 0; v < n; v++ {
		if live == nil || live.Awake(v) {
			if err := scheduleNext(v, states[v], 0); err != nil {
				return nil, err
			}
		}
	}
	if sc != nil && len(batches) == 0 && outputs == target {
		return res, nil
	}

	nextBatch := 0
	lastPerturb := 0.0
	units := func(t float64) float64 {
		if maxParam == 0 {
			return 0
		}
		return t / maxParam
	}
	finish := func(at float64) *AsyncResult {
		res.Time = at
		res.TimeUnits = units(at)
		if len(res.PerturbedAt) > 0 {
			res.RecoveryTime = at - lastPerturb
			res.RecoveryTimeUnits = units(res.RecoveryTime)
		}
		res.Dropped, res.Duplicated, res.Delayed, res.Corrupted = chStats.Dropped, chStats.Duplicated, chStats.Delayed, chStats.Corrupted
		res.Outvoted = chStats.Outvoted
		if vs != nil {
			vs.fill(res)
		}
		return res
	}

	for {
		if nextBatch < len(batches) {
			// A due batch precedes every event scheduled at or after it.
			if at, ok := lq.peekTime(); !ok || at >= batches[nextBatch].At {
				b := batches[nextBatch]
				if err := applyBatch(nextBatch); err != nil {
					return nil, err
				}
				nextBatch++
				lastPerturb = b.At
				res.PerturbedAt = append(res.PerturbedAt, b.At)
				if nextBatch == len(batches) && outputs == target && lagging == 0 {
					// Only reachable with no awake nodes left (a batch sets
					// lagging to the awake count): vacuous convergence.
					return finish(b.At), nil
				}
				continue
			}
		}
		e, ok := lq.pop()
		if !ok {
			if parkedCount > 0 {
				// Every remaining event is a parked node's silent
				// self-loop spin: the reference engine keeps spinning
				// them (self-loops cannot produce an output
				// configuration) until the step budget aborts the run.
				return nil, fmt.Errorf("%w: %s after %d steps", ErrNoConvergence, machineName(p.m), maxSteps)
			}
			return nil, fmt.Errorf("%w: event queue drained", ErrNoConvergence)
		}
		v := int(e.node)
		if !e.step {
			// Delivery: overwrite the destination port. If the previous
			// value was written after the destination's last step, it was
			// never observable — a lost message.
			k := e.aux
			if bySender {
				// A removed edge loses its in-flight traffic (Severed,
				// distinct from paper-semantics Lost overwrites and from
				// channel Dropped).
				if k = portSlot(cur, v, int(e.aux)); k < 0 {
					res.Severed++
					continue
				}
			}
			if parkedCount > 0 && parked[v] {
				if err := replay(v, e.time, 0); err != nil {
					return nil, err
				}
			}
			if vs != nil {
				// Voted decoding: the receipt enters the port's vote
				// window; only a winning letter touches the port, and a
				// confirming winner touches nothing at all.
				letter := nfsm.Letter(e.letter)
				outcome, winner := vs.receive(k, letter, rc.portDat[k])
				if outcome == voteCommit {
					if portWriteAt[k] > lastStepAt[v] {
						res.Lost++
					}
					rc.setPort(v, k, winner)
					portWriteAt[k] = e.time
				}
				if e.corrupt && vs.outvoted(outcome, winner, letter) {
					chStats.Outvoted++
				}
				continue
			}
			if portWriteAt[k] > lastStepAt[v] {
				res.Lost++
			}
			rc.setPort(v, k, nfsm.Letter(e.letter))
			portWriteAt[k] = e.time
			if canPark && parked[v] {
				// The write may have changed what the node observes:
				// invalidate the precomputed chain and re-decide from
				// the landed state.
				parked[v] = false
				parkedCount--
				if pendingReal[v] {
					epochs[v]++
					pendingReal[v] = false
				}
				as.walkCap[v] = walkCapMin
				schedule(v, states[v], as.virtIndex[v], as.virtTime[v], as.virtLen[v])
			}
			continue
		}
		if e.epoch != epochs[v] {
			continue // invalidated by a crash or a mid-chain delivery
		}
		if canPark {
			if parked[v] {
				if err := replay(v, e.time, e.seq); err != nil {
					return nil, err
				}
				parked[v] = false
				parkedCount--
			}
			pendingReal[v] = false
		}

		t := stepIndex[v] + 1
		q := states[v]
		var mv nfsm.Move
		single := false
		isByz := byz != nil && byz[v] >= 0
		if isByz {
			// Byzantine node: never runs δ (its state stays put) and
			// emits whatever its behavior dictates; the step still
			// counts and its traffic rides the channel like any other.
			mv = nfsm.Move{Next: q, Emit: sc.Byzantine[byz[v]].Emit(t, p.nl)}
		} else {
			var dout, size int
			mv, dout, size = rc.pick(v, q, ds, cfg.Seed, t)
			if size == 0 {
				return nil, fmt.Errorf("engine: δ empty at node %d state %d step %d", v, q, t)
			}
			single = size == 1
			outputs += dout
			states[v] = mv.Next
		}
		stepIndex[v] = t
		lastStepAt[v] = e.time
		res.Steps++
		if lagging > 0 && stepsSince[v] < 2 {
			if stepsSince[v]++; stepsSince[v] == 2 {
				lagging--
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(e.time, v, t, mv.Next)
		}

		if mv.Emit != nfsm.NoLetter {
			// Voted tier: honest emissions burst K copies per edge, and
			// re-pulses (emissions from pausing states) advance stall
			// counters and are gated by the per-edge backoff; round
			// messages are never gated. A Byzantine node's traffic is
			// one ungated copy — its receivers' votes and stall counters
			// do the tolerating.
			K, isRP := 1, false
			if vs != nil && !isByz {
				K = int(vs.k)
				if isRP = vs.isRePulse != nil && p.rePulse(q, ds, vs.isRePulse); isRP {
					vs.rePulses++
				}
			}
			sent := false
			reliable := [1]channel.Fate{{Letter: mv.Emit}}
			for k := cur.NbrOff[v]; k < cur.NbrOff[v+1]; k++ {
				u := cur.NbrDat[k]
				if isRP {
					send, evictNow := vs.fireEdge(k)
					if evictNow {
						rc.evictPort(v, k)
						res.EvictedEdges = append(res.EvictedEdges, [2]int{v, int(u)})
					}
					if !send {
						continue
					}
				}
				d := adv.Delay(v, t, int(u))
				if d <= 0 {
					return nil, fmt.Errorf("engine: adversary returned non-positive delay %g for node %d step %d", d, v, t)
				}
				if d > maxParam {
					maxParam = d
				}
				sent = true
				dst := int32(v)
				if !bySender {
					dst = cur.NbrOff[u] + cur.RevPort[k]
				}
				for c := 0; c < K; c++ {
					fates := reliable[:]
					if model != nil {
						as.chBuf = channel.ExpandAt(model, v, t, int(u), c, mv.Emit, p.nl, as.chBuf, &chStats)
						fates = as.chBuf
					}
					for _, f := range fates {
						at := e.time + d + f.Extra
						if at < lastDelivery[k] && !reorders {
							at = lastDelivery[k] // FIFO per directed edge
						}
						if at < lastDelivery[k] {
							res.Reordered++ // an overtake on this edge
						} else {
							lastDelivery[k] = at
						}
						lq.push(qevent{time: at, seq: seq, node: u, aux: dst, letter: int32(f.Letter), corrupt: f.Corrupt})
						seq++
					}
				}
			}
			if sent || vs == nil {
				res.Transmissions++
			}
		}

		if nextBatch == len(batches) && outputs == target && lagging == 0 {
			if parkedCount > 0 {
				// Flush the parked nodes' skipped steps (all strictly
				// before the terminating event under a TieFree
				// adversary) so States, Steps, maxParam and the budget
				// reflect exactly what the reference engine processed.
				// The terminating step itself is uncounted during the
				// flush: the reference checks termination before the
				// budget, so a run ending exactly on the budget's last
				// step succeeds.
				res.Steps--
				for w := 0; w < n; w++ {
					if parked[w] {
						if err := replay(w, e.time, e.seq); err != nil {
							return nil, err
						}
					}
				}
				res.Steps++
			}
			return finish(e.time), nil
		}
		if res.Steps >= maxSteps {
			return nil, fmt.Errorf("%w: %s after %d steps", ErrNoConvergence, machineName(p.m), res.Steps)
		}
		if canPark && single && mv.Emit == nfsm.NoLetter {
			// A materialized silent step is a checkpoint reached
			// undisturbed: open the node's walk window fully (it closes
			// again on the next delivery invalidation, keeping re-walks
			// cheap where deliveries are frequent).
			as.walkCap[v] = walkCapMax
		}
		if err := scheduleNext(v, mv.Next, e.time); err != nil {
			return nil, err
		}
	}
}

// portSlot returns the CSR slot of node to's port from node from, or -1
// when {from, to} is not an edge of the snapshot (binary search over
// to's sorted run).
func portSlot(csr *graph.CSR, to, from int) int32 {
	lo, hi := csr.NbrOff[to], csr.NbrOff[to+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if csr.NbrDat[mid] < int32(from) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < csr.NbrOff[to+1] && csr.NbrDat[lo] == int32(from) {
		return lo
	}
	return -1
}
