package graph

import (
	"math"

	"stoneage/internal/xrand"
)

// This file contains the sparse-topology families the campaign sweeps
// run on, beyond the hand-shaped generators of generators.go: random
// geometric graphs (the standard wireless / sensor-deployment model),
// preferential-attachment power-law graphs, and small-world rewirings.
// All three are deterministic functions of their xrand source, so a
// campaign trial seed reproduces its graph exactly.

// RandomGeometric returns a random geometric graph: n points placed
// uniformly in the unit square, with an edge between every pair at
// Euclidean distance at most r. Edges are found through an r-sized
// bucket grid, so construction costs O(n + m) expected time instead of
// the naive O(n²) pair scan.
//
// The connectivity threshold is r ≈ √(ln n / (π n)); callers that need a
// connected instance should choose r comfortably above it (see
// GeometricRadius) — the generator itself does not augment the sample.
func RandomGeometric(n int, r float64, src *xrand.Source) *Graph {
	g := New(n)
	randomGeometricEdges(n, r, src, g.mustAddEmitted)
	return g
}

// randomGeometricEdges draws the n points from src and calls emit once
// per pair within distance r; RandomGeometric and RandomGeometricStream
// both draw through it. Point coordinates and the bucket grid are O(n)
// scratch; edges are never stored.
func randomGeometricEdges(n int, r float64, src *xrand.Source, emit func(u, v int32)) {
	if n == 0 || r <= 0 {
		return
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	// Bucket the points into an ⌈1/r⌉² grid: all neighbors of a point
	// live in its own or an adjacent bucket.
	side := int(1 / r)
	if side < 1 {
		side = 1
	}
	bucket := make(map[[2]int][]int32, n)
	cellOf := func(i int) [2]int {
		cx := int(xs[i] * float64(side))
		cy := int(ys[i] * float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return [2]int{cx, cy}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		bucket[c] = append(bucket[c], int32(i))
	}
	r2 := r * r
	for i := 0; i < n; i++ {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bucket[[2]int{c[0] + dx, c[1] + dy}] {
					if int(j) <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						emit(int32(i), j)
					}
				}
			}
		}
	}
}

// GeometricRadius returns c times the connectivity-threshold radius
// √(ln n / (π n)) of the random geometric model. c = 1.5 gives connected
// instances with high probability at the campaign's sizes.
func GeometricRadius(n int, c float64) float64 {
	if n < 2 {
		return 1
	}
	return c * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
}

// PreferentialAttachment returns a Barabási–Albert power-law graph: the
// first m+1 nodes form a clique, and every later node attaches to m
// distinct existing nodes chosen with probability proportional to their
// current degree. The result is connected by construction and its degree
// distribution has a heavy tail — the high-degree hubs stress the
// one-two-many clamping in a way near-regular workloads cannot.
func PreferentialAttachment(n, m int, src *xrand.Source) *Graph {
	if m < 1 {
		m = 1
	}
	g := New(n)
	if n <= 1 {
		return g
	}
	seed := m + 1
	if seed > n {
		seed = n
	}
	// targets holds each node once per unit of degree: a uniform pick
	// from it is a degree-proportional pick from the nodes.
	targets := make([]int, 0, 2*m*n)
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			g.mustAddEdge(u, v)
			targets = append(targets, u, v)
		}
	}
	picked := make([]int, 0, m)
	for v := seed; v < n; v++ {
		picked = picked[:0]
		for len(picked) < m {
			u := targets[src.Intn(len(targets))]
			dup := false
			for _, w := range picked {
				if w == u {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, u)
			}
		}
		for _, u := range picked {
			g.mustAddEdge(v, u)
			targets = append(targets, v, u)
		}
	}
	return g
}

// SmallWorld returns a Watts–Strogatz small-world graph: a ring lattice
// where every node is joined to its k nearest neighbors (k even), with
// each clockwise lattice edge rewired to a uniformly random endpoint
// with probability beta. beta = 0 is the pure lattice; beta = 1 is close
// to a random k-regular-ish graph; small beta gives the short-diameter,
// high-clustering regime. Rewiring skips moves that would create a
// self-loop or duplicate edge, so the graph stays simple with exactly
// n·k/2 edges.
func SmallWorld(n, k int, beta float64, src *xrand.Source) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	if k < 2 {
		k = 2
	}
	k &^= 1 // even
	if k >= n {
		k = (n - 1) &^ 1
	}
	for d := 1; d <= k/2; d++ {
		for v := 0; v < n; v++ {
			u := (v + d) % n
			// For d = n/2 the clockwise and counterclockwise edges
			// coincide; mustAddEdge would reject the duplicate.
			if g.HasEdge(v, u) {
				continue
			}
			g.mustAddEdge(v, u)
		}
	}
	edges := g.Edges()
	for _, e := range edges {
		if src.Float64() >= beta {
			continue
		}
		u, v := e[0], e[1]
		w := src.Intn(n)
		if w == u || w == v || g.HasEdge(u, w) {
			continue // keep the lattice edge: the rewire target is taken
		}
		g.removeEdge(u, v)
		g.mustAddEdge(u, w)
	}
	return g
}

// removeEdge deletes the undirected edge {u, v}; it must exist.
func (g *Graph) removeEdge(u, v int) {
	g.removeArc(u, v)
	g.removeArc(v, u)
	g.m--
}

func (g *Graph) removeArc(u, v int) {
	nb := g.adj[u]
	i := g.PortOf(u, v)
	if i < 0 {
		panic("graph: removeEdge on a non-edge")
	}
	g.adj[u] = append(nb[:i], nb[i+1:]...)
}
