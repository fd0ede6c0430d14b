// Package engine executes nFSM machines on graphs. It provides the two
// environments of the paper:
//
//   - RunSync executes a machine in a locally synchronous environment
//     (properties (S1) and (S2) of Section 3.1, realized as lockstep
//     rounds). This is the environment the Section 4 and 5 protocols are
//     written for.
//
//   - RunAsync executes a machine in the fully asynchronous environment of
//     Section 2: an oblivious adversary chooses every step length L_{v,t}
//     and every delivery delay D_{v,t,u}; deliveries are FIFO per directed
//     edge but ports are overwrite-only (messages can be lost, footnote 4
//     of the paper). The reported run-time follows the paper's measure:
//     elapsed time divided by the largest adversary parameter used before
//     the output configuration was reached.
//
// Both engines draw each node's uniform choice among δ's moves from the
// deterministic coin nfsm.PickMove(seed, node, step, ...), so a protocol,
// graph and seed fully determine the execution.
package engine

import (
	"errors"
	"fmt"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
)

// ErrNoConvergence is returned when a run exhausts its round, step or time
// budget before reaching an output configuration.
var ErrNoConvergence = errors.New("engine: no output configuration within budget")

// initialStates resolves the per-node initial state vector: a copy of init
// when provided, otherwise the machine's default input state everywhere.
func initialStates(m nfsm.Machine, n int, init []nfsm.State) ([]nfsm.State, error) {
	states := make([]nfsm.State, n)
	if init == nil {
		q := m.InputState()
		for v := range states {
			states[v] = q
		}
		return states, nil
	}
	if len(init) != n {
		return nil, fmt.Errorf("engine: init vector length %d != n %d", len(init), n)
	}
	for v, q := range init {
		if q < 0 || int(q) >= m.NumStates() {
			return nil, fmt.Errorf("engine: init state %d of node %d out of range", q, v)
		}
		states[v] = q
	}
	return states, nil
}

// portTopology precomputes, for every node v and every neighbor index i of
// v, the port index of v at that neighbor — i.e. where v's transmissions
// land. Ports are identified by position in the sorted adjacency list.
type portTopology struct {
	g   *graph.Graph
	rev [][]int // rev[v][i] = port index of v at g.Neighbors(v)[i]
}

func newPortTopology(g *graph.Graph) *portTopology {
	rev := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		rev[v] = make([]int, len(nb))
		for i, u := range nb {
			rev[v][i] = g.PortOf(u, v)
		}
	}
	return &portTopology{g: g, rev: rev}
}

// counter computes clamped count vectors from a node's ports, counting
// only the machine's query letter when it is a single-query machine.
type counter struct {
	m      nfsm.Machine
	single nfsm.SingleQuery // nil when the machine queries all letters
	buf    []nfsm.Count
	// touched lists the letters the previous multi-letter call wrote, so
	// the next call clears only those instead of zeroing the full
	// alphabet buffer (a node's ports can hold at most deg(v) distinct
	// letters, typically far fewer than |Σ| for compiled machines).
	// It is per-call scratch, not cross-round state: every call still
	// recomputes the vector from the ports, so the reference engines
	// built on this counter remain a direct transcription of the model.
	touched []nfsm.Letter
}

func newCounter(m nfsm.Machine) *counter {
	c := &counter{m: m, buf: make([]nfsm.Count, m.NumLetters())}
	if sq, ok := m.(nfsm.SingleQuery); ok {
		c.single = sq
	}
	return c
}

// counts fills the count vector observed by a node in state q whose ports
// hold the given letters, clamped by f_b. The returned slice is reused
// across calls.
func (c *counter) counts(q nfsm.State, ports []nfsm.Letter) []nfsm.Count {
	b := c.m.Bound()
	if c.single != nil {
		ql := c.single.QueryLetter(q)
		n := 0
		for _, l := range ports {
			if l == ql {
				n++
			}
		}
		c.buf[ql] = nfsm.ClampCount(n, b)
		return c.buf
	}
	for _, l := range c.touched {
		c.buf[l] = 0
	}
	c.touched = c.touched[:0]
	for _, l := range ports {
		if l < 0 {
			continue
		}
		if c.buf[l] == 0 {
			c.touched = append(c.touched, l)
		}
		if int(c.buf[l]) < b {
			c.buf[l]++
		}
	}
	return c.buf
}
