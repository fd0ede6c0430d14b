// Package graph provides the undirected-graph substrate on which every
// protocol in this repository runs: the adjacency structure itself, the
// generators used by the experiment workloads (Sections 4 and 5 of the
// paper evaluate on arbitrary graphs and on trees respectively), and the
// validators that decide whether a protocol's output is a correct solution
// (maximal independent set, proper coloring, maximal matching).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a finite simple undirected graph G = (V, E) with V = {0..n-1}.
// The adjacency lists are kept sorted by neighbor id, which gives
// deterministic port numbering to the execution engines.
type Graph struct {
	adj [][]int
	m   int // number of edges
}

// New returns an empty graph on n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns Δ(G), the largest degree in the graph (0 for the empty
// graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for _, nb := range g.adj {
		if len(nb) > d {
			d = len(nb)
		}
	}
	return d
}

// Neighbors returns the sorted adjacency list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error (the nFSM model is defined on simple
// graphs).
func (g *Graph) AddEdge(u, v int) error {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.insert(u, v)
	g.insert(v, u)
	g.m++
	return nil
}

// RemoveEdge deletes the undirected edge {u, v}. Removing an absent edge
// (or an out-of-range endpoint) is an error: the dynamic-network layer
// treats a redundant removal as a scenario bug, not a no-op.
func (g *Graph) RemoveEdge(u, v int) error {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: removing absent edge (%d,%d)", u, v)
	}
	g.remove(u, v)
	g.remove(v, u)
	g.m--
	return nil
}

func (g *Graph) remove(u, v int) {
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	g.adj[u] = append(nb[:i], nb[i+1:]...)
}

// mustAddEdge is the internal generator helper: generators construct edges
// they know to be fresh and in range.
func (g *Graph) mustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic("graph: generator bug: " + err.Error())
	}
}

// mustAddEmitted is mustAddEdge in the shape of an EdgeStream emit
// callback, so a generator and its stream share one edge enumerator.
func (g *Graph) mustAddEmitted(u, v int32) { g.mustAddEdge(int(u), int(v)) }

func (g *Graph) insert(u, v int) {
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	nb = append(nb, 0)
	copy(nb[i+1:], nb[i:])
	nb[i] = v
	g.adj[u] = nb
}

// Edges returns every edge exactly once as ordered pairs (u < v),
// lexicographically sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u, nb := range g.adj {
		for _, v := range nb {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int, g.N()), m: g.m}
	for v, nb := range g.adj {
		c.adj[v] = append([]int(nil), nb...)
	}
	return c
}

// InducedSubgraph returns the subgraph induced by the node set keep
// (keep[v] true means v survives), together with the mapping from new node
// ids to original ids. Used by the MIS analysis to build the virtual graphs
// G^i of Section 4.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int) {
	if len(keep) != g.N() {
		panic("graph: keep mask has wrong length")
	}
	newID := make([]int, g.N())
	var orig []int
	for v := range g.adj {
		if keep[v] {
			newID[v] = len(orig)
			orig = append(orig, v)
		} else {
			newID[v] = -1
		}
	}
	sub := New(len(orig))
	for u, nb := range g.adj {
		if !keep[u] {
			continue
		}
		for _, v := range nb {
			if u < v && keep[v] {
				sub.mustAddEdge(newID[u], newID[v])
			}
		}
	}
	return sub, orig
}

// Connected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) Connected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	return g.bfsCount(0) == n
}

func (g *Graph) bfsCount(start int) int {
	seen := make([]bool, g.N())
	queue := []int{start}
	seen[start] = true
	count := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		count++
		for _, u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return count
}

// IsTree reports whether the graph is a tree: connected with exactly n-1
// edges. The single-node graph is a tree; the empty graph is not.
func (g *Graph) IsTree() bool {
	n := g.N()
	return n >= 1 && g.m == n-1 && g.Connected()
}

// Diameter returns the diameter of a connected graph via repeated BFS, or
// an error when the graph is disconnected or empty. Intended for analysis
// of small and medium instances (O(n·m) time).
func (g *Graph) Diameter() (int, error) {
	n := g.N()
	if n == 0 || !g.Connected() {
		return 0, errors.New("graph: diameter undefined for empty or disconnected graph")
	}
	diam := 0
	dist := make([]int, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] > diam {
				diam = dist[v]
			}
			for _, u := range g.adj[v] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return diam, nil
}

// PortOf returns the port index of neighbor u at node v: the position of u
// in v's sorted adjacency list. It returns -1 when {u,v} is not an edge.
// The execution engines identify each port ψ_v(u) of the paper's model by
// this index.
func (g *Graph) PortOf(v, u int) int {
	nb := g.adj[v]
	i := sort.SearchInts(nb, u)
	if i < len(nb) && nb[i] == u {
		return i
	}
	return -1
}
