package graph

import (
	"fmt"
	"math"

	"stoneage/internal/xrand"
)

// This file is the implicit-graph path to million-node instances. The
// materialized Graph keeps nested adjacency slices and per-edge structs,
// which is fine up to tens of thousands of nodes but dominates memory
// long before the engines do at n = 10⁶. An EdgeStream instead *emits*
// edges from a closed-form or seeded-RNG description, and BuildCSR
// consumes the stream twice (degree pass, fill pass) to assemble the
// exact CSR layout the engines execute — never holding an O(m) edge
// list, only the O(n + m) CSR arrays themselves plus O(n) scratch.

// EdgeStream describes a graph implicitly as a repeatable edge emitter.
//
// Edges must invoke emit exactly once per undirected edge {u, v}
// (either endpoint order), with 0 ≤ u, v < N(), u ≠ v, and no
// duplicates. Every call to Edges must emit the identical edge multiset
// — implementations that sample from randomness must re-derive their
// source from a stored seed on each call, not consume a shared stream.
type EdgeStream interface {
	// N returns the number of nodes.
	N() int
	// Edges calls emit once per undirected edge.
	Edges(emit func(u, v int32))
}

// BuildCSR assembles the compressed-sparse-row snapshot of the stream
// with two passes: a degree-counting pass sizes the runs, a fill pass
// writes them, then each run is sorted in place and the reverse-port
// table is derived with the same ascending-scan cursor trick as
// Graph.CSR. The result is layout-identical to ToGraph(s).CSR(), so the
// engines (and the differential tests) cannot tell the two apart.
//
// Peak extra memory beyond the returned CSR is one int32 per node.
func BuildCSR(s EdgeStream) (*CSR, error) {
	n := s.N()
	if n < 0 {
		return nil, fmt.Errorf("graph: stream reports negative n %d", n)
	}
	deg := make([]int32, n)
	var m int64
	var streamErr error
	s.Edges(func(u, v int32) {
		if streamErr != nil {
			return
		}
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			streamErr = fmt.Errorf("graph: stream edge (%d,%d) out of range [0,%d)", u, v, n)
			return
		}
		if u == v {
			streamErr = fmt.Errorf("graph: stream emitted self-loop at node %d", u)
			return
		}
		deg[u]++
		deg[v]++
		m++
	})
	if streamErr != nil {
		return nil, streamErr
	}
	if 2*m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges exceed the int32 CSR index space", m)
	}
	c := &CSR{
		NbrOff:  make([]int32, n+1),
		NbrDat:  make([]int32, 2*m),
		RevPort: make([]int32, 2*m),
	}
	var off int32
	for v := 0; v < n; v++ {
		c.NbrOff[v] = off
		off += deg[v]
	}
	c.NbrOff[n] = off
	// Fill pass, reusing deg as the per-node write cursor.
	cur := deg
	copy(cur, c.NbrOff[:n])
	var m2 int64
	s.Edges(func(u, v int32) {
		if streamErr != nil {
			return
		}
		m2++
		if m2 > m {
			streamErr = fmt.Errorf("graph: stream is not repeatable: second pass emitted more than %d edges", m)
			return
		}
		c.NbrDat[cur[u]] = v
		cur[u]++
		c.NbrDat[cur[v]] = u
		cur[v]++
	})
	if streamErr != nil {
		return nil, streamErr
	}
	if m2 != m {
		return nil, fmt.Errorf("graph: stream is not repeatable: passes emitted %d then %d edges", m, m2)
	}
	for v := 0; v < n; v++ {
		run := c.NbrDat[c.NbrOff[v]:c.NbrOff[v+1]]
		sortRun(run)
		for i := 1; i < len(run); i++ {
			if run[i] == run[i-1] {
				return nil, fmt.Errorf("graph: stream emitted duplicate edge {%d,%d}", v, run[i])
			}
		}
	}
	// Reverse ports: scanning u ascending, the successive occurrences of
	// w visit adj(w) in sorted order (see Graph.CSR).
	for v := range cur {
		cur[v] = 0
	}
	for u := 0; u < n; u++ {
		for k := c.NbrOff[u]; k < c.NbrOff[u+1]; k++ {
			w := c.NbrDat[k]
			c.RevPort[c.NbrOff[w]+cur[w]] = k - c.NbrOff[u]
			cur[w]++
		}
	}
	return c, nil
}

// sortRun sorts a (typically short) adjacency run in place: insertion
// sort below a small threshold, in-place heapsort above it. Both avoid
// the per-call closure allocations of sort.Slice across n runs.
func sortRun(a []int32) {
	if len(a) < 24 {
		for i := 1; i < len(a); i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && a[j] > x {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	heapify(a)
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a[:end], 0)
	}
}

func heapify(a []int32) {
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDown(a, i)
	}
}

func siftDown(a []int32, i int) {
	for {
		l := 2*i + 1
		if l >= len(a) {
			return
		}
		big := l
		if r := l + 1; r < len(a) && a[r] > a[l] {
			big = r
		}
		if a[big] <= a[i] {
			return
		}
		a[i], a[big] = a[big], a[i]
		i = big
	}
}

// ToGraph materializes the stream as an adjacency-list Graph. It exists
// for the small-n differential tests (streamed-vs-materialized builders
// compared edge for edge) and for code paths that still need Graph
// semantics; at large n use BuildCSR directly.
func ToGraph(s EdgeStream) (*Graph, error) {
	g := New(s.N())
	var streamErr error
	s.Edges(func(u, v int32) {
		if streamErr != nil {
			return
		}
		if err := g.AddEdge(int(u), int(v)); err != nil {
			streamErr = err
		}
	})
	if streamErr != nil {
		return nil, streamErr
	}
	return g, nil
}

// funcStream adapts (n, edges) pairs to EdgeStream.
type funcStream struct {
	n     int
	edges func(emit func(u, v int32))
}

func (s funcStream) N() int                      { return s.n }
func (s funcStream) Edges(emit func(u, v int32)) { s.edges(emit) }

// CycleStream streams the cycle graph C_n, matching Cycle(n) (a path
// for n < 3).
func CycleStream(n int) EdgeStream {
	return funcStream{n: n, edges: func(emit func(u, v int32)) { cycleEdges(n, emit) }}
}

// RandomTreeStream streams the uniform-attachment random tree,
// draw-identical to RandomTree(n, xrand.New(seed)).
func RandomTreeStream(n int, seed uint64) EdgeStream {
	return funcStream{n: n, edges: func(emit func(u, v int32)) {
		randomTreeEdges(n, xrand.New(seed), emit)
	}}
}

// GnpConnectedStream streams a G(n,p) sample over a random-attachment
// spanning backbone — the same model as GnpConnected, but the pair scan
// is replaced by geometric skip sampling: instead of flipping a coin
// per pair (O(n²) draws), it jumps directly between successful pairs in
// the lexicographic (u,v) order, costing O(n + m) expected time. The
// instance for a given seed therefore differs from GnpConnected's (the
// two consume randomness differently) but follows the same
// distribution, up to the backbone-collision detail: both emit each
// backbone edge exactly once and sample every remaining pair with
// probability p.
func GnpConnectedStream(n int, p float64, seed uint64) EdgeStream {
	return funcStream{n: n, edges: func(emit func(u, v int32)) {
		src := xrand.New(seed)
		parent := make([]int32, n)
		for v := 1; v < n; v++ {
			parent[v] = int32(src.Intn(v))
			emit(int32(v), parent[v])
		}
		if n < 2 || p <= 0 {
			return
		}
		isBackbone := func(u, v int32) bool {
			// u < v, and v's backbone parent is < v, so only one
			// direction can match.
			return parent[v] == u
		}
		if p >= 1 {
			for u := int32(0); u < int32(n); u++ {
				for v := u + 1; v < int32(n); v++ {
					if !isBackbone(u, v) {
						emit(u, v)
					}
				}
			}
			return
		}
		// Geometric skip sampling over the C(n,2) pairs in row-major
		// (u,v) order: after each hit, skip ~Geometric(p) pairs.
		lq := math.Log1p(-p) // ln(1-p) < 0
		total := int64(n) * int64(n-1) / 2
		var u int32
		rowStart, rowEnd := int64(0), int64(n-1)
		t := int64(-1)
		for {
			gap := math.Log1p(-src.Float64()) / lq
			if gap >= float64(total-t) {
				return
			}
			t += 1 + int64(gap)
			if t >= total {
				return
			}
			for t >= rowEnd {
				u++
				rowStart = rowEnd
				rowEnd += int64(n) - 1 - int64(u)
			}
			v := u + 1 + int32(t-rowStart)
			if !isBackbone(u, v) {
				emit(u, v)
			}
		}
	}}
}

// RandomGeometricStream streams the random geometric graph,
// draw-identical to RandomGeometric(n, r, xrand.New(seed)). Point
// coordinates are regenerated on every pass.
func RandomGeometricStream(n int, r float64, seed uint64) EdgeStream {
	return funcStream{n: n, edges: func(emit func(u, v int32)) {
		randomGeometricEdges(n, r, xrand.New(seed), emit)
	}}
}
