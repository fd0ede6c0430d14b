package engine

import (
	"stoneage/internal/nfsm"
)

// This file implements the engine half of the voted synchronizer tier
// (αβv, synchro.CompileVoted). The compiled machine is the αβ hybrid
// unchanged; what the voted contract adds lives entirely in the
// executor, because all three mechanisms are per-directed-edge state
// that a constant-size per-node machine cannot carry:
//
//   - Voted pulse decoding: a receipt commits to the receiving port
//     only when its letter holds K of the last 2K−1 receipts on that
//     port (the window admits at most one such winner). Every non-ε
//     transmission is sent as a burst of K copies per edge, so on a
//     reliable link the K-th copy lands at the same absolute time a
//     single αβ copy would and the commit times — hence the run's
//     time-unit measure — are unchanged, while a corrupted copy needs
//     K−1 equally corrupted companions inside the window to be
//     believed.
//
//   - Dead-edge eviction: each transmitted re-pulse advances a stall
//     counter on its edge; any receipt resets it — eviction targets
//     silence, corruption is the vote's job, so a live edge whose
//     receipts keep losing the vote never evicts. An edge whose
//     EvictAfter-th consecutive re-pulse would go unanswered is
//     evicted instead of re-pulsed — the port permanently reads as ε
//     (it stops counting toward any letter), which unsticks the
//     pausing feature a Byzantine-silent neighbor would otherwise
//     deadlock forever. Strikes only count once the backoff cadence
//     has fully decayed to its cap — the edge is condemned after E
//     unanswered re-pulses at maximal slack, not after E raw timeout
//     firings. The eviction clock runs in the evictor's own firings,
//     so a raw clock misreads any live neighbor whose steps are
//     merely slower: a transient firing-rate imbalance on a lossy
//     link, or a 16× step-skewed neighbor still making progress,
//     empirically evicts half the graph under a raw 3-firing clock.
//     Riding the decayed cadence stretches the runway to
//     (BackoffCap−1) + E·BackoffCap firings (31 at the defaults)
//     while keeping the three-strike contract; with backoff disabled
//     (cap 1) it degenerates to exactly E consecutive firings. The
//     run records every evicted edge: an evicted honest edge is a
//     measured correctness cost, not a silent one.
//
//   - Adaptive re-pulse backoff: re-pulse transmissions are gated per
//     outgoing edge by a multiplicative window (doubling up to
//     BackoffCap firings, reset to 1 by any receipt from that
//     neighbor), so a live edge re-pulses at full αβ cadence while a
//     dead or drastically skewed one decays to 1-in-BackoffCap. The
//     receipt reset has to accept non-winning receipts for the same
//     reason the stall reset does: both run on the firing clock the
//     eviction threshold counts, so a gate that only a decoded winner
//     could reset would starve a live-but-noisy neighbor's stall
//     counter into a spurious eviction.
//
// Both asynchronous engines (the compiled event loop and the reference
// oracle, each serving static and scenario runs alike) drive the same
// votedState methods in the same per-slot order, the way they share
// channel.Expand — the decoding logic exists once, so the two cannot
// diverge on it.

// VotedConfig parameterizes the voted synchronizer tier. The zero
// value of each knob selects its default.
type VotedConfig struct {
	// K is the vote threshold: a receipt letter commits when it holds
	// K of the last 2K−1 receipts on the port, and every transmission
	// bursts K copies per edge. K=1 degenerates the decoder to the αβ
	// contract (every receipt commits); the default is 2.
	K int
	// EvictAfter is the number of consecutive unanswered re-pulses at
	// fully decayed backoff cadence before the edge is evicted (the
	// EvictAfter-th strike evicts instead of transmitting). The
	// default is 3.
	EvictAfter int
	// BackoffCap caps the per-edge re-pulse gating window, in firings.
	// The default is 8; 1 disables backoff (every firing transmits).
	BackoffCap int
	// RePulseSource classifies emissions: an emission made from state
	// s is a re-pulse (gated per edge, advancing stall counters)
	// rather than a fresh round message (never gated). The protocol
	// layer wires synchro.(*Compiled).RePulseSource here. Nil treats
	// every emission as a round message: voting still applies, but no
	// edge ever stalls or backs off.
	RePulseSource func(nfsm.State) bool
}

func (c *VotedConfig) k() int32 {
	if c.K <= 0 {
		return 2
	}
	return int32(c.K)
}

func (c *VotedConfig) evictAfter() int32 {
	if c.EvictAfter <= 0 {
		return 3
	}
	return int32(c.EvictAfter)
}

func (c *VotedConfig) backoffCap() int32 {
	if c.BackoffCap <= 0 {
		return 8
	}
	return int32(c.BackoffCap)
}

// Vote outcomes of votedState.receive.
const (
	voteIgnored  int8 = iota // evicted slot: the receipt is discarded
	voteNoWinner             // no letter holds K of the window
	voteConfirm              // the winner is already the committed value
	voteCommit               // commit the winner (caller writes the port)
)

// votedState is the per-run voted-decoder state, indexed by directed
// edge slot. Slot numbering is the CSR edge-slot space: slot k of node
// v's block serves both directions of the edge {v, u=NbrDat[k]} — the
// receiving role (v's port from u: vote ring, stall counter, evicted
// flag) and the sending role (v's re-pulse gate toward u). Reference
// executors index the same space through a prefix-degree offset, which
// coincides with CSR slots on the sorted adjacency.
type votedState struct {
	k          int32 // vote threshold
	win        int32 // ring size, 2k−1
	evictAfter int32
	capW       int32
	isRePulse  func(nfsm.State) bool

	ring    []int32 // ring[slot*win+i]: last receipts, −1 = empty
	ringPos []int32
	stall   []int32
	dead    []bool
	rpGap   []int32
	rpWin   []int32

	rejections   int64 // receipts that produced no winner
	rePulses     int64 // re-pulse firings (node emissions)
	rePulseSends int64 // re-pulse transmissions actually sent, per edge
}

func newVotedState(cfg *VotedConfig, ne int) *votedState {
	vs := &votedState{
		k:          cfg.k(),
		evictAfter: cfg.evictAfter(),
		capW:       cfg.backoffCap(),
		isRePulse:  cfg.RePulseSource,
	}
	vs.win = 2*vs.k - 1
	vs.ring = make([]int32, ne*int(vs.win))
	for i := range vs.ring {
		vs.ring[i] = -1
	}
	vs.ringPos = make([]int32, ne)
	vs.stall = make([]int32, ne)
	vs.dead = make([]bool, ne)
	vs.rpGap = make([]int32, ne)
	vs.rpWin = make([]int32, ne)
	for i := range vs.rpWin {
		vs.rpWin[i] = 1
	}
	return vs
}

// receive records one receipt on a receiving slot and resolves the
// vote. cur is the port's committed value. Any receipt resets the
// slot's stall counter and re-pulse backoff (the edge proved live —
// only silence evicts or decays the cadence). With window
// 1 the decoder degenerates to the αβ contract
// exactly: every receipt returns voteCommit, including same-letter
// overwrites, so the caller's write-time and lost-message bookkeeping
// reproduces the αβ engine bit for bit.
func (vs *votedState) receive(slot int32, letter, cur nfsm.Letter) (int8, nfsm.Letter) {
	if vs.dead[slot] {
		return voteIgnored, nfsm.NoLetter
	}
	vs.stall[slot] = 0
	vs.rpGap[slot], vs.rpWin[slot] = 0, 1
	base := slot * vs.win
	pos := vs.ringPos[slot]
	vs.ring[base+pos] = int32(letter)
	if pos++; pos == vs.win {
		pos = 0
	}
	vs.ringPos[slot] = pos
	// At most one letter can hold k of the 2k−1 window entries.
	winner := int32(-1)
	for i := int32(0); i < vs.win && winner < 0; i++ {
		c := vs.ring[base+i]
		if c < 0 {
			continue
		}
		n := int32(0)
		for j := int32(0); j < vs.win; j++ {
			if vs.ring[base+j] == c {
				n++
			}
		}
		if n >= vs.k {
			winner = c
		}
	}
	if winner < 0 {
		vs.rejections++
		return voteNoWinner, nfsm.NoLetter
	}
	if vs.win > 1 && nfsm.Letter(winner) == cur {
		return voteConfirm, nfsm.Letter(winner)
	}
	return voteCommit, nfsm.Letter(winner)
}

// fireEdge advances the per-edge state for one re-pulse firing of the
// edge at slot k. Firings inside the backoff window neither transmit
// nor count; a send opportunity while the window is still growing
// transmits and doubles the window; once the window sits at the cap,
// each opportunity is a strike, and the EvictAfter-th consecutive
// strike evicts instead of transmitting (the caller clears the port
// and records the edge). send reports whether the re-pulse is
// transmitted on this edge.
func (vs *votedState) fireEdge(k int32) (send, evict bool) {
	if vs.dead[k] {
		return false, false
	}
	vs.rpGap[k]++
	if vs.rpGap[k] < vs.rpWin[k] {
		return false, false
	}
	vs.rpGap[k] = 0
	if vs.rpWin[k] < vs.capW {
		if w := 2 * vs.rpWin[k]; w <= vs.capW {
			vs.rpWin[k] = w
		} else {
			vs.rpWin[k] = vs.capW
		}
	} else {
		vs.stall[k]++
		if vs.stall[k] >= vs.evictAfter {
			vs.dead[k] = true
			return false, true
		}
	}
	vs.rePulseSends++
	return true, false
}

// outvoted reports whether a corrupted receipt was refused: it entered
// the vote and its letter was not the committed winner.
func (vs *votedState) outvoted(outcome int8, winner, letter nfsm.Letter) bool {
	switch outcome {
	case voteNoWinner:
		return true
	case voteConfirm, voteCommit:
		return winner != letter
	}
	return false // voteIgnored: discarded by eviction, not outvoted
}

// resetSlots clears the voted state of one node's slot range — the
// engine half of a node reboot (restart, wake, or reset policy), which
// also restores every port to the initial letter. Previously recorded
// evictions stay recorded; the rebooted node just starts listening
// again.
func (vs *votedState) resetSlots(lo, hi int32) {
	for k := lo; k < hi; k++ {
		vs.dead[k] = false
		vs.stall[k] = 0
		vs.rpGap[k], vs.rpWin[k] = 0, 1
		vs.ringPos[k] = 0
		base := k * vs.win
		for i := int32(0); i < vs.win; i++ {
			vs.ring[base+i] = -1
		}
	}
}

// fill copies the decoder's counters into a completed result.
func (vs *votedState) fill(res *AsyncResult) {
	res.VotedRejections = vs.rejections
	res.RePulses = vs.rePulses
	res.RePulseSends = vs.rePulseSends
}
