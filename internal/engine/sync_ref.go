package engine

import (
	"fmt"
	"math"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// This file is the reference engine for the locally synchronous
// environment: a direct, slow, obviously-correct transcription of the
// model — a static run is the empty-scenario case of a dynamic one — in
// the seed engine's representation: nested-slice ports in adjacency
// order, interface dispatch into m.Moves, full count recomputation per
// node per round, and a from-scratch rebuild of every derived structure
// at each mutation batch. It shares no executor code with the compiled
// executors (only the scenario policy definitions and channel.Expand),
// so the differential and fuzz suites comparing them really do pin the
// fast paths' re-binding, port-carrying and liveness handling against
// an independent implementation.

// RunSyncRef is the reference synchronous engine. It is kept as the
// oracle the compiled executors are differentially tested against
// (TestDifferentialSyncEngines, TestDifferentialDynamicSync); use
// RunSync everywhere else. A run with an empty scenario is static —
// with or without a channel model — and reports no dynamic extras (nil
// PerturbedAt and FinalGraph).
func RunSyncRef(m nfsm.Machine, g0 *graph.Graph, cfg SyncConfig) (*SyncResult, error) {
	sc := cfg.Scenario
	static := sc.Empty()
	if static {
		sc = &scenario.Scenario{Reset: scenario.ResetNone}
	}
	if err := prepScenario(sc, g0); err != nil {
		return nil, err
	}
	g := g0.Clone()
	n := g.N()
	states, err := initialStates(m, n, cfg.Init)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}

	topo := newPortTopology(g)
	cnt := newCounter(m)
	live := scenario.NewLiveness(n, sc.Asleep)
	nl := m.NumLetters()
	byz, err := byzIndex(sc.Byzantine, n, nl)
	if err != nil {
		return nil, err
	}
	isByz := func(v int) bool { return byz != nil && byz[v] >= 0 }

	// Channel model state; see syncChannel — fates expand through the
	// exact helper the compiled executor uses.
	model := cfg.Channel
	reorders := model != nil && model.Reorders()
	var chStats channel.Stats
	var chBuf []channel.Fate
	var pend []syncPend
	var horizon map[uint64]int
	if reorders {
		horizon = make(map[uint64]int)
	}

	// ports[v][i] holds the last letter delivered from g.Neighbors(v)[i].
	ports := make([][]nfsm.Letter, n)
	for v := 0; v < n; v++ {
		ports[v] = make([]nfsm.Letter, g.Degree(v))
		for i := range ports[v] {
			ports[v][i] = m.InitialLetter()
		}
	}

	res := &SyncResult{States: states}
	if !static {
		res.FinalGraph = g
	}
	// Byzantine nodes never reach an output state: termination is every
	// awake honest node in an output state.
	outputs, awakeByz := 0, 0
	countLive := func() {
		outputs, awakeByz = 0, 0
		for v := 0; v < n; v++ {
			if !live.Awake(v) {
				continue
			}
			if isByz(v) {
				awakeByz++
			} else if m.IsOutput(states[v]) {
				outputs++
			}
		}
	}
	countLive()
	target := func() int { return live.NumAwake() - awakeByz }
	nextBatch := 0
	lastPerturb := 0
	// Two consecutive stable rounds are required after a perturbation;
	// see the confirmation-window comment in Program.RunSyncReusing.
	stable := 0
	if nextBatch == len(sc.Batches) && outputs == target() {
		return res, nil
	}

	resetNode := func(v int) {
		states[v] = resetStateOf(m, cfg.Init, v)
		for i := range ports[v] {
			ports[v][i] = m.InitialLetter()
		}
	}

	applyBatch := func(b scenario.Batch) error {
		prev := g.Clone()
		topoChanged := false
		var started []int
		for _, mu := range b.Muts {
			st, err := live.Apply(mu)
			if err != nil {
				return err
			}
			started = append(started, st...)
			if err := mu.Apply(g); err != nil {
				return err
			}
			topoChanged = topoChanged || mu.Topological()
		}
		if topoChanged {
			// Rebuild the port arrays by directed-edge identity: a
			// surviving port keeps its letter, found through the
			// previous graph's port numbering; new ports start at the
			// initial letter.
			next := make([][]nfsm.Letter, n)
			for v := 0; v < n; v++ {
				nb := g.Neighbors(v)
				next[v] = make([]nfsm.Letter, len(nb))
				for i, u := range nb {
					if o := prev.PortOf(v, u); o >= 0 {
						next[v][i] = ports[v][o]
					} else {
						next[v][i] = m.InitialLetter()
					}
				}
			}
			ports = next
			topo = newPortTopology(g)
		}
		for _, v := range b.ResetSet(sc.Reset, g) {
			if live.Awake(v) {
				resetNode(v)
			}
		}
		// Repeated or later-crashed entries of started are harmless: the
		// reset is idempotent, and only awake nodes step each round.
		for _, v := range started {
			resetNode(v)
		}
		countLive()
		return nil
	}

	emits := make([]nfsm.Letter, n)
	for round := 1; round <= maxRounds; round++ {
		for nextBatch < len(sc.Batches) && int(sc.Batches[nextBatch].At) < round {
			if err := applyBatch(sc.Batches[nextBatch]); err != nil {
				return nil, err
			}
			nextBatch++
			lastPerturb = round - 1
			res.PerturbedAt = append(res.PerturbedAt, round-1)
		}

		for v := 0; v < n; v++ {
			emits[v] = nfsm.NoLetter
			if !live.Awake(v) {
				continue
			}
			if isByz(v) {
				// Byzantine node: never runs δ, emits per its behavior.
				emits[v] = sc.Byzantine[byz[v]].Emit(round, nl)
				continue
			}
			q := states[v]
			moves := m.Moves(q, cnt.counts(q, ports[v]))
			if len(moves) == 0 {
				return nil, fmt.Errorf("engine: δ empty at node %d state %d round %d", v, q, round)
			}
			mv := nfsm.PickMove(cfg.Seed, v, round, moves)
			if m.IsOutput(mv.Next) != m.IsOutput(q) {
				if m.IsOutput(mv.Next) {
					outputs++
				} else {
					outputs--
				}
			}
			states[v] = mv.Next
			emits[v] = mv.Emit
		}
		// Channel-deferred deliveries land before the round's own
		// traffic; see flatKernel.deliverChannel.
		if model != nil && len(pend) > 0 {
			keep := pend[:0]
			for _, pd := range pend {
				if pd.due != round {
					keep = append(keep, pd)
					continue
				}
				if i := g.PortOf(int(pd.to), int(pd.from)); i >= 0 {
					ports[pd.to][i] = pd.letter
				} else {
					res.Severed++ // edge removed before the due round
				}
			}
			pend = keep
		}
		for v := 0; v < n; v++ {
			l := emits[v]
			if l == nfsm.NoLetter {
				continue
			}
			res.Transmissions++
			if model == nil {
				for i, u := range g.Neighbors(v) {
					ports[u][topo.rev[v][i]] = l
				}
				continue
			}
			for i, u := range g.Neighbors(v) {
				chBuf = channel.Expand(model, v, round, u, l, nl, chBuf, &chStats)
				for _, f := range chBuf {
					delay := int(math.Ceil(f.Extra))
					if reorders {
						key := uint64(uint32(v))<<32 | uint64(uint32(u))
						if due := round + delay; due < horizon[key] {
							res.Reordered++
						} else {
							horizon[key] = due
						}
					}
					if delay == 0 {
						ports[u][topo.rev[v][i]] = f.Letter
					} else {
						pend = append(pend, syncPend{due: round + delay, from: int32(v), to: int32(u), letter: f.Letter})
					}
				}
			}
		}

		if cfg.Observer != nil {
			cfg.Observer(round, states)
		}
		if nextBatch == len(sc.Batches) && outputs == target() {
			stable++
		} else {
			stable = 0
		}
		if stable >= 2 || (stable >= 1 && len(res.PerturbedAt) == 0) {
			res.Rounds = round
			if len(res.PerturbedAt) > 0 {
				res.RecoveryRounds = round - lastPerturb
			}
			res.Dropped, res.Duplicated, res.Delayed, res.Corrupted = chStats.Dropped, chStats.Duplicated, chStats.Delayed, chStats.Corrupted
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: %s after %d rounds", ErrNoConvergence, machineName(m), maxRounds)
}
