package graph

import (
	"stoneage/internal/xrand"
)

// This file contains the workload generators used by the experiment
// harness. Section 4 of the paper evaluates MIS on arbitrary graphs;
// Section 5 evaluates 3-coloring on undirected trees. The tree families
// below deliberately include the extreme shapes for the coloring analysis
// (stars stress the waiting hierarchy, paths and caterpillars stress the
// good-node census of Observation 5.2).

// Path returns the path graph P_n: 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.mustAddEdge(v, v+1)
	}
	return g
}

// Cycle returns the cycle graph C_n (n >= 3); for n < 3 it returns a path.
func Cycle(n int) *Graph {
	g := New(n)
	cycleEdges(n, g.mustAddEmitted)
	return g
}

// cycleEdges calls emit once per edge of Cycle(n), in insertion order;
// Cycle and CycleStream both enumerate through it.
func cycleEdges(n int, emit func(u, v int32)) {
	for v := 0; v+1 < n; v++ {
		emit(int32(v), int32(v+1))
	}
	if n >= 3 {
		emit(int32(n-1), 0)
	}
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.mustAddEdge(0, v)
	}
	return g
}

// Clique returns the complete graph K_n.
func Clique(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.mustAddEdge(u, v)
		}
	}
	return g
}

// Grid returns the rows×cols grid graph (4-neighbor lattice).
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.mustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.mustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows×cols torus (grid with wraparound), rows, cols >= 3.
// For smaller dimensions it degrades to Grid to keep the graph simple.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		return Grid(rows, cols)
	}
	g := Grid(rows, cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		g.mustAddEdge(id(r, cols-1), id(r, 0))
	}
	for c := 0; c < cols; c++ {
		g.mustAddEdge(id(rows-1, c), id(0, c))
	}
	return g
}

// Gnp returns a binomial random graph G(n, p): every pair becomes an edge
// independently with probability p, drawn from the given deterministic
// stream.
func Gnp(n int, p float64, src *xrand.Source) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Float64() < p {
				g.mustAddEdge(u, v)
			}
		}
	}
	return g
}

// GnpConnected returns a G(n,p) sample augmented with a random spanning
// backbone so the result is always connected (a convenience for run-time
// experiments where disconnected shards trivially parallelize).
func GnpConnected(n int, p float64, src *xrand.Source) *Graph {
	g := New(n)
	// Random-attachment spanning tree backbone.
	for v := 1; v < n; v++ {
		g.mustAddEdge(v, src.Intn(v))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && src.Float64() < p {
				g.mustAddEdge(u, v)
			}
		}
	}
	return g
}

// RandomTree returns a uniform-attachment random tree: node v attaches to a
// uniformly random earlier node. These trees have O(log n) expected height
// and a broad degree distribution.
func RandomTree(n int, src *xrand.Source) *Graph {
	g := New(n)
	randomTreeEdges(n, src, g.mustAddEmitted)
	return g
}

// randomTreeEdges draws the uniform-attachment tree from src and calls
// emit once per edge; RandomTree and RandomTreeStream both draw through
// it, so a stream is draw-identical to its materialized twin.
func randomTreeEdges(n int, src *xrand.Source, emit func(u, v int32)) {
	for v := 1; v < n; v++ {
		emit(int32(v), int32(src.Intn(v)))
	}
}

// BinaryTree returns the complete-ish binary tree on n nodes (heap order:
// node v has children 2v+1 and 2v+2).
func BinaryTree(n int) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		if 2*v+1 < n {
			g.mustAddEdge(v, 2*v+1)
		}
		if 2*v+2 < n {
			g.mustAddEdge(v, 2*v+2)
		}
	}
	return g
}

// Caterpillar returns a caterpillar tree: a spine path of ⌈n/2⌉ nodes with
// the remaining nodes attached as legs spread round-robin along the spine.
// Caterpillars maximize degree-2 spine structure, the "good node" shape of
// Observation 5.2.
func Caterpillar(n int) *Graph {
	if n <= 0 {
		return New(0)
	}
	spine := (n + 1) / 2
	g := New(n)
	for v := 0; v+1 < spine; v++ {
		g.mustAddEdge(v, v+1)
	}
	for leg := spine; leg < n; leg++ {
		g.mustAddEdge(leg, (leg-spine)%spine)
	}
	return g
}

// Broom returns a "broom" tree: a path of length n/2 ending in a star of
// the remaining nodes. It mixes the two extreme tree shapes.
func Broom(n int) *Graph {
	if n <= 0 {
		return New(0)
	}
	handle := n / 2
	if handle == 0 {
		handle = 1
	}
	g := New(n)
	for v := 0; v+1 < handle; v++ {
		g.mustAddEdge(v, v+1)
	}
	for v := handle; v < n; v++ {
		g.mustAddEdge(handle-1, v)
	}
	return g
}

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.mustAddEdge(u, v)
		}
	}
	return g
}

// NearRegular returns a random graph of degree at most d: the union of
// d rounds of random perfect matchings over random permutations, each
// round giving a node at most one edge. A node ends below d only when a
// round paired it with an existing neighbour or, for odd n, left it
// out. Useful as a bounded-degree workload.
func NearRegular(n, d int, src *xrand.Source) *Graph {
	g := New(n)
	rounds := d
	for r := 0; r < rounds; r++ {
		p := src.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			u, v := p[i], p[i+1]
			if u != v && !g.HasEdge(u, v) && g.Degree(u) < d && g.Degree(v) < d {
				g.mustAddEdge(u, v)
			}
		}
	}
	return g
}

// ProneuralLattice models the fly sensory-organ-precursor workload of Afek
// et al. (Science 2011), cited in the paper's introduction: cells arranged
// in a hexagonal-ish lattice where each cell inhibits neighbors within
// radius 2 in grid distance. SOP selection is exactly MIS on this graph.
func ProneuralLattice(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for dr := -2; dr <= 2; dr++ {
				for dc := -2; dc <= 2; dc++ {
					if dr == 0 && dc == 0 {
						continue
					}
					if abs(dr)+abs(dc) > 2 {
						continue
					}
					r2, c2 := r+dr, c+dc
					if r2 < 0 || r2 >= rows || c2 < 0 || c2 >= cols {
						continue
					}
					u, v := id(r, c), id(r2, c2)
					if u < v {
						g.mustAddEdge(u, v)
					}
				}
			}
		}
	}
	return g
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
