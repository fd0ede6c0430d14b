// Package matching implements maximal matching under an *extended* nFSM
// model. The paper proves MIS and tree coloring in the pure model but
// notes that its efficient maximal-matching protocol "requires a small
// unavoidable modification of the nFSM model that goes beyond the scope
// of the current version of the paper". The obstruction is symmetry: a
// pure nFSM node broadcasts the same letter to all neighbors and reads
// only one-two-many counts, so it can never *address* the specific
// neighbor it wants to marry.
//
// The extension implemented here adds exactly two capabilities, both
// constant-size in spirit but port-aware:
//
//  1. targeted transmission — a node may send a letter through a single
//     port chosen uniformly at random among the ports currently showing a
//     given letter (rather than broadcasting to all neighbors);
//  2. port memory — a node may remember one port index (the prospective
//     partner) across rounds.
//
// Everything else follows the stone-age discipline: constant states,
// constant alphabet, one-two-many counting with b = 1, uniform random
// choices only.
//
// The protocol is a three-way handshake tournament in four-round phases:
// free nodes announce themselves; a coin splits them into proposers and
// listeners; a proposer sends PROPOSE into one uniformly random
// FREE-showing port; a listener answers exactly one PROPOSE-showing port
// with ACCEPT; a proposer whose proposal port shows ACCEPT replies
// CONFIRM and both ends are matched. Mismatched proposals dissolve and
// the nodes retry in the next phase. A free node with no free neighbors
// terminates unmatched; a node pair terminates matched — together these
// outputs form a maximal matching.
package matching

import (
	"errors"
	"fmt"

	"stoneage/internal/graph"
	"stoneage/internal/protocol"
	"stoneage/internal/xrand"
)

// The protocol self-registers with its bespoke engine: Solve below is
// not hosted on the nFSM engines (the port-aware extension has no
// synchronizer route), so the descriptor is sync-only and the shared
// runner dispatches straight to it.
var _ = protocol.Register(&protocol.Descriptor{
	Name:    "matching",
	Summary: "maximal matching under the extended nFSM model (targeted transmission + port memory)",
	Caps:    protocol.CapSyncOnly | protocol.CapExtended,
	Solve: func(_ protocol.Args, g *graph.Graph, seed uint64, maxRounds int) (*protocol.Run, error) {
		res, err := Solve(g, seed, maxRounds)
		if err != nil {
			return nil, err
		}
		return &protocol.Run{Output: protocol.Mate(res.Mate), Rounds: res.Rounds}, nil
	},
	Check: func(_ protocol.Args, g *graph.Graph, out protocol.Output) error {
		return g.IsMaximalMatching(out.(protocol.Mate))
	},
	Mutate: protocol.BreakMate,
})

// ErrNoConvergence mirrors the engine's budget error.
var ErrNoConvergence = errors.New("matching: no output configuration within budget")

// The extended protocol's letters.
const (
	letFree byte = iota
	letMatched
	letPropose
	letAccept
	letConfirm
	numLetters
)

// Node modes.
const (
	modeFree      byte = iota
	modeProposer       // sent PROPOSE, awaiting ACCEPT on the proposal port
	modeListener       // flipped listener this phase
	modeAccepted       // sent ACCEPT, awaiting CONFIRM on the accepted port
	modeNewlyWed       // matched this phase, announcement pending
	modeMatched        // output: matched through partner port
	modeUnmatched      // output: no free neighbor remained
)

// Result reports a matching run.
type Result struct {
	// Mate[v] is the matched partner of v, or -1.
	Mate []int
	// Rounds is the number of synchronous rounds used.
	Rounds int
	// Phases is Rounds/4 rounded up.
	Phases int
}

type node struct {
	mode    byte
	partner int // port index of the prospective/actual partner, -1 if none
}

// Solve runs the extended-model maximal matching protocol on g.
// maxRounds of zero selects 1<<20.
func Solve(g *graph.Graph, seed uint64, maxRounds int) (*Result, error) {
	n := g.N()
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}

	nodes := make([]node, n)
	for v := range nodes {
		nodes[v] = node{mode: modeFree, partner: -1}
	}
	// The port state lives in the graph's CSR layout: the ports of node
	// v occupy ports[off[v]:off[v+1]] in neighbor order, and the
	// flattened reverse-port table routes transmissions without the
	// nested revPort slices the engine used to rebuild per run. The
	// initial letter is FREE (all nodes start free).
	csr := g.CSR()
	off, nbr, rev := csr.NbrOff, csr.NbrDat, csr.RevPort()
	ports := make([]byte, len(nbr))
	for k := range ports {
		ports[k] = letFree
	}
	var showBuf []int // scratch for portsShowing, reused across nodes

	// Transmission buffers for the current round: target port (-1 for
	// broadcast, -2 for silence) plus letter.
	target := make([]int, n)
	letter := make([]byte, n)

	outputs := 0
	for round := 1; round <= maxRounds; round++ {
		phaseRound := (round-1)%4 + 1
		for v := 0; v < n; v++ {
			target[v], letter[v] = -2, 0
			nd := &nodes[v]
			src := xrand.NewStream(seed, uint64(v), uint64(round))
			switch phaseRound {
			case 1: // announcements
				switch nd.mode {
				case modeNewlyWed:
					nd.mode = modeMatched
					outputs++
					target[v], letter[v] = -1, letMatched
				case modeFree:
					target[v], letter[v] = -1, letFree
				}
			case 2: // role coin and proposals
				if nd.mode != modeFree {
					break
				}
				free := portsShowing(showBuf[:0], ports[off[v]:off[v+1]], letFree)
				showBuf = free
				if len(free) == 0 {
					nd.mode = modeUnmatched
					outputs++
					break
				}
				if src.Bool() {
					nd.mode = modeProposer
					nd.partner = free[src.Intn(len(free))]
					target[v], letter[v] = nd.partner, letPropose
				} else {
					nd.mode = modeListener
				}
			case 3: // listeners answer one proposal
				if nd.mode != modeListener {
					break
				}
				proposals := portsShowing(showBuf[:0], ports[off[v]:off[v+1]], letPropose)
				showBuf = proposals
				if len(proposals) == 0 {
					nd.mode = modeFree
					break
				}
				nd.mode = modeAccepted
				nd.partner = proposals[src.Intn(len(proposals))]
				target[v], letter[v] = nd.partner, letAccept
			case 4: // proposers confirm accepted proposals
				switch nd.mode {
				case modeProposer:
					if ports[off[v]+int32(nd.partner)] == letAccept {
						nd.mode = modeNewlyWed
						target[v], letter[v] = nd.partner, letConfirm
					} else {
						nd.mode = modeFree
						nd.partner = -1
					}
				}
			}
		}
		// Deliver this round's transmissions.
		for v := 0; v < n; v++ {
			switch target[v] {
			case -2:
			case -1:
				for k := off[v]; k < off[v+1]; k++ {
					ports[off[nbr[k]]+rev[k]] = letter[v]
				}
			default:
				k := off[v] + int32(target[v])
				ports[off[nbr[k]]+rev[k]] = letter[v]
			}
		}
		// Round 4 epilogue for accepters: the CONFIRM letter lands in the
		// port during round 4, and the accepter resolves at the start of
		// round 1; fold it in here so phases stay at four rounds.
		if phaseRound == 4 {
			for v := 0; v < n; v++ {
				nd := &nodes[v]
				if nd.mode != modeAccepted {
					continue
				}
				if ports[off[v]+int32(nd.partner)] == letConfirm {
					nd.mode = modeNewlyWed
				} else {
					nd.mode = modeFree
					nd.partner = -1
				}
			}
		}
		if outputs == n {
			return finish(g, nodes, round)
		}
	}
	return nil, fmt.Errorf("%w after %d rounds", ErrNoConvergence, maxRounds)
}

func portsShowing(out []int, ports []byte, letter byte) []int {
	for i, l := range ports {
		if l == letter {
			out = append(out, i)
		}
	}
	return out
}

func finish(g *graph.Graph, nodes []node, rounds int) (*Result, error) {
	mate := make([]int, len(nodes))
	for v := range nodes {
		switch nodes[v].mode {
		case modeMatched:
			mate[v] = g.Neighbors(v)[nodes[v].partner]
		case modeUnmatched:
			mate[v] = -1
		default:
			return nil, fmt.Errorf("matching: node %d ended in mode %d", v, nodes[v].mode)
		}
	}
	return &Result{Mate: mate, Rounds: rounds, Phases: (rounds + 3) / 4}, nil
}
