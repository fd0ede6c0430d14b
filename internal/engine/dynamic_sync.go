package engine

import (
	"errors"
	"fmt"
	"math"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// syncPend is a channel-delayed synchronous delivery: a reordering
// model's extra delay rounds up to whole rounds, and the letter lands in
// the deliver phase of round due, on the topology of that round.
type syncPend struct {
	due      int
	from, to int32
	letter   nfsm.Letter
}

// This file holds the scenario and channel hooks of the synchronous
// round loop and the scenario helpers all four engines share. The
// differential and fuzz suites pin the hooks to sync_ref.go.

// errResetAuto rejects unresolved reset policies: the engines do not
// know protocol capabilities, so scenario.ResetAuto must be resolved by
// the protocol layer (or the caller) before a run starts.
var errResetAuto = errors.New("engine: scenario reset policy auto must be resolved before execution")

// prepScenario validates the scenario against the bound graph and
// rejects unresolved reset policies. Both engines of each environment
// run it first, so invalid scenarios fail identically everywhere.
func prepScenario(sc *scenario.Scenario, g *graph.Graph) error {
	if sc.Reset == scenario.ResetAuto {
		return errResetAuto
	}
	return sc.Validate(g)
}

// byzIndex maps each node to its position in the scenario's Byzantine
// list (-1 for honest nodes), validating every behavior against the
// node count and alphabet size. Both executors of each engine pair call
// it, so an ill-formed Byzantine set fails identically everywhere.
func byzIndex(byz []channel.ByzNode, n, nl int) ([]int32, error) {
	if len(byz) == 0 {
		return nil, nil
	}
	idx := make([]int32, n)
	for v := range idx {
		idx[v] = -1
	}
	for i, b := range byz {
		if err := b.Validate(n, nl); err != nil {
			return nil, err
		}
		if idx[b.Node] >= 0 {
			return nil, fmt.Errorf("engine: duplicate byzantine node %d", b.Node)
		}
		idx[b.Node] = int32(i)
	}
	return idx, nil
}

// topologicalAt reports the time of the first batch that mutates the
// topology, and whether there is one.
func topologicalAt(batches []scenario.Batch) (float64, bool) {
	for _, b := range batches {
		for _, m := range b.Muts {
			if m.Topological() {
				return b.At, true
			}
		}
	}
	return 0, false
}

// resetStateOf returns the state a rebooted node v resumes from: its
// per-node input when the run was configured with one, the machine's
// default input state otherwise.
func resetStateOf(m nfsm.Machine, init []nfsm.State, v int) nfsm.State {
	if init != nil {
		return init[v]
	}
	return m.InputState()
}

// syncScenario is the scenario hook of the synchronous round loop. A
// nil *syncScenario is the static run: no batch is ever pending and
// every node counts toward termination.
type syncScenario struct {
	sc   *scenario.Scenario
	init []nfsm.State
	// g is the evolving topology: the bound graph itself until a batch
	// mutates the topology, a private clone from then on.
	g    *graph.Graph
	live *scenario.Liveness
	byz  []int32 // node → index into sc.Byzantine, -1 for honest nodes
	next int     // index of the next batch to apply
}

// pending reports whether batches remain to apply.
func (d *syncScenario) pending() bool { return d != nil && d.next < len(d.sc.Batches) }

// due reports whether a batch applies before round: batch At = r
// applies after round r completes.
func (d *syncScenario) due(round int) bool {
	return d.pending() && int(d.sc.Batches[d.next].At) < round
}

// honest reports whether node v runs δ: awake and not Byzantine.
func (d *syncScenario) honest(v int) bool { return d.live.Awake(v) && (d.byz == nil || d.byz[v] < 0) }

// count returns the termination tally: the awake honest nodes in an
// output state, and the awake honest nodes (the target).
func (d *syncScenario) count(p *Program, ds *dynScratch, states []nfsm.State) (outputs, target int) {
	for v, q := range states {
		if d != nil && !d.honest(v) {
			continue
		}
		target++
		if p.isOutputDS(q, ds) {
			outputs++
		}
	}
	return outputs, target
}

// applyBatches applies every batch due before round, logging each in
// res.PerturbedAt. A batch mutates graph and liveness, re-binds the
// layout on a topology change (graph.RemapPorts carries every surviving
// port's letter by its directed edge), and resets the reset policy's
// awake nodes plus every restarted or woken node.
func (e *flatKernel) applyBatches(round int, res *SyncResult) error {
	d, p, rc := e.dyn, e.p, e.rc
	for d.due(round) {
		b := d.sc.Batches[d.next]
		topo := false
		var reboot []int
		for _, m := range b.Muts {
			started, err := d.live.Apply(m)
			if err != nil {
				return err
			}
			reboot = append(reboot, started...)
			if m.Topological() && d.g == p.g {
				d.g = p.g.Clone()
			}
			if err := m.Apply(d.g); err != nil {
				return err
			}
			topo = topo || m.Topological()
		}
		if topo {
			next := d.g.CSR()
			rc.rebind(next, graph.RemapPorts(e.csr, next))
			e.csr = next
		}
		for _, v := range b.ResetSet(d.sc.Reset, d.g) {
			if d.live.Awake(v) {
				reboot = append(reboot, v)
			}
		}
		// A node started twice in the batch (restart, crash, restart)
		// appears twice in reboot, and one started then crashed appears
		// too: the reset is idempotent, and the round loop steps only
		// nodes awake at the round, so neither needs deduping here.
		for _, v := range reboot {
			e.states[v] = resetStateOf(p.m, d.init, v)
			rc.resetNode(v, e.csr)
		}
		d.next++
		res.PerturbedAt = append(res.PerturbedAt, round-1)
	}
	res.FinalGraph = d.g
	return nil
}

// syncChannel is the channel hook of the flat deliver phase. It lives in
// the Scratch, so the fate buffer, the pending deliveries and the
// per-edge horizon map are reused across runs.
type syncChannel struct {
	model    channel.Model
	reorders bool
	stats    channel.Stats
	res      *SyncResult // takes the channel counters
	buf      []channel.Fate
	pend     []syncPend
	// horizon[(from, to)] is the latest due round scheduled on a directed
	// edge (reordering models only); a delivery due earlier overtakes.
	horizon map[uint64]int
}

func (c *syncChannel) reset(model channel.Model, res *SyncResult) {
	c.model, c.reorders, c.stats, c.res = model, model.Reorders(), channel.Stats{}, res
	c.pend = c.pend[:0]
	if c.horizon == nil {
		c.horizon = make(map[uint64]int)
	}
	clear(c.horizon)
}

// deliverChannel is the deliver phase of a channel run (one worker).
// Ports receive letters whatever the neighbor's liveness. Deferred
// deliveries land first, on the current topology (a removed edge severs
// them), so the round's own traffic overwrites stale letters.
func (e *flatKernel) deliverChannel(round int) {
	c, rc, cur := e.ch, e.rc, e.csr
	if len(c.pend) > 0 {
		keep := c.pend[:0]
		for _, pd := range c.pend {
			if pd.due != round {
				keep = append(keep, pd)
				continue
			}
			if k := portSlot(cur, int(pd.to), int(pd.from)); k >= 0 {
				rc.setPort(int(pd.to), k, pd.letter)
			} else {
				c.res.Severed++
			}
		}
		c.pend = keep
	}
	for _, v := range e.emitters[0] {
		l := e.emits[v]
		for k := cur.NbrOff[v]; k < cur.NbrOff[v+1]; k++ {
			u := int(cur.NbrDat[k])
			c.buf = channel.Expand(c.model, int(v), round, u, l, e.p.nl, c.buf, &c.stats)
			for _, f := range c.buf {
				delay := int(math.Ceil(f.Extra))
				if c.reorders {
					key := uint64(uint32(v))<<32 | uint64(uint32(u))
					if due := round + delay; due < c.horizon[key] {
						c.res.Reordered++ // an overtake on this edge
					} else {
						c.horizon[key] = due
					}
				}
				if delay == 0 {
					rc.setPort(u, cur.NbrOff[u]+cur.RevPort[k], f.Letter)
				} else {
					c.pend = append(c.pend, syncPend{due: round + delay, from: v, to: int32(u), letter: f.Letter})
				}
			}
		}
	}
	st := &c.stats
	c.res.Dropped, c.res.Duplicated, c.res.Delayed, c.res.Corrupted = st.Dropped, st.Duplicated, st.Delayed, st.Corrupted
}
