package graph

import (
	"reflect"
	"testing"

	"stoneage/internal/xrand"
)

// csrEqual reports a field-for-field comparison of two CSR snapshots.
func csrEqual(t *testing.T, name string, a, b *CSR) {
	t.Helper()
	if !reflect.DeepEqual(a.NbrOff, b.NbrOff) {
		t.Errorf("%s: NbrOff differs", name)
	}
	if !reflect.DeepEqual(a.NbrDat, b.NbrDat) {
		t.Errorf("%s: NbrDat differs", name)
	}
	if !reflect.DeepEqual(a.RevPort(), b.RevPort()) {
		t.Errorf("%s: RevPort differs", name)
	}
}

// TestBuildCSRMatchesMaterialized checks that the streaming CSR builder
// produces the exact layout Graph.CSR does — offsets, sorted runs, and
// reverse ports — for every stream family across sizes, including the
// degenerate ones.
func TestBuildCSRMatchesMaterialized(t *testing.T) {
	streams := []struct {
		name string
		s    EdgeStream
	}{
		{"cycle/0", CycleStream(0)},
		{"cycle/1", CycleStream(1)},
		{"cycle/2", CycleStream(2)},
		{"cycle/3", CycleStream(3)},
		{"cycle/97", CycleStream(97)},
		{"tree/1", RandomTreeStream(1, 7)},
		{"tree/2", RandomTreeStream(2, 7)},
		{"tree/300", RandomTreeStream(300, 12345)},
		{"gnp/2", GnpConnectedStream(2, 0.5, 3)},
		{"gnp/64", GnpConnectedStream(64, 0.1, 42)},
		{"gnp/193", GnpConnectedStream(193, 4.0/193, 99)},
		{"gnp/p0", GnpConnectedStream(50, 0, 5)},
		{"gnp/p1", GnpConnectedStream(20, 1, 5)},
		{"geo/64", RandomGeometricStream(64, GeometricRadius(64, 1.5), 8)},
		{"geo/200", RandomGeometricStream(200, GeometricRadius(200, 1.5), 21)},
		{"geo/r0", RandomGeometricStream(30, 0, 4)},
	}
	for _, tc := range streams {
		g, err := ToGraph(tc.s)
		if err != nil {
			t.Fatalf("%s: ToGraph: %v", tc.name, err)
		}
		c, err := BuildCSR(tc.s)
		if err != nil {
			t.Fatalf("%s: BuildCSR: %v", tc.name, err)
		}
		csrEqual(t, tc.name, g.CSR(), c)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: materialized graph invalid: %v", tc.name, err)
		}
	}
}

// TestStreamsMatchMaterializedGenerators pins the stream variants that
// promise draw-identity to their materialized generators.
func TestStreamsMatchMaterializedGenerators(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 33, 257} {
		want := Cycle(n).CSR()
		got, err := BuildCSR(CycleStream(n))
		if err != nil {
			t.Fatalf("cycle n=%d: %v", n, err)
		}
		csrEqual(t, "cycle", want, got)
	}
	for _, n := range []int{1, 2, 17, 400} {
		seed := uint64(n) * 31
		want := RandomTree(n, xrand.New(seed)).CSR()
		got, err := BuildCSR(RandomTreeStream(n, seed))
		if err != nil {
			t.Fatalf("tree n=%d: %v", n, err)
		}
		csrEqual(t, "tree", want, got)
	}
	for _, n := range []int{2, 50, 300} {
		seed := uint64(n)*977 + 1
		r := GeometricRadius(n, 1.5)
		want := RandomGeometric(n, r, xrand.New(seed)).CSR()
		got, err := BuildCSR(RandomGeometricStream(n, r, seed))
		if err != nil {
			t.Fatalf("geo n=%d: %v", n, err)
		}
		csrEqual(t, "geo", want, got)
	}
}

// TestGnpConnectedStreamShape checks the skip-sampled G(n,p) stream's
// structural promises: always connected, no duplicates (BuildCSR
// verifies), and an edge count near the binomial expectation.
func TestGnpConnectedStreamShape(t *testing.T) {
	n, p := 2000, 3.0/2000
	g, err := ToGraph(GnpConnectedStream(n, p, 7))
	if err != nil {
		t.Fatalf("ToGraph: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
	if !connected(g) {
		t.Fatalf("GnpConnectedStream sample is disconnected")
	}
	// Backbone contributes n-1 edges; the pair sweep adds ≈ p·C(n,2).
	exp := float64(n-1) + p*float64(n)*float64(n-1)/2
	m := float64(g.M())
	if m < exp*0.7 || m > exp*1.3 {
		t.Errorf("edge count %v far from expectation %v", m, exp)
	}
	// Degenerate and extreme p.
	if g, _ := ToGraph(GnpConnectedStream(10, 0, 3)); g.M() != 9 {
		t.Errorf("p=0: want backbone only (9 edges), got %d", g.M())
	}
	if g, _ := ToGraph(GnpConnectedStream(10, 1, 3)); g.M() != 45 {
		t.Errorf("p=1: want complete graph (45 edges), got %d", g.M())
	}
}

// TestBuildCSRRejectsBadStreams checks the builder's validation paths.
func TestBuildCSRRejectsBadStreams(t *testing.T) {
	bad := []struct {
		name string
		s    EdgeStream
	}{
		{"self-loop", funcStream{n: 3, edges: func(emit func(u, v int32)) { emit(1, 1) }}},
		{"out-of-range", funcStream{n: 3, edges: func(emit func(u, v int32)) { emit(0, 3) }}},
		{"duplicate", funcStream{n: 3, edges: func(emit func(u, v int32)) { emit(0, 1); emit(1, 0) }}},
	}
	for _, tc := range bad {
		if _, err := BuildCSR(tc.s); err == nil {
			t.Errorf("%s: BuildCSR accepted an invalid stream", tc.name)
		}
	}
}

func connected(g *Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				cnt++
				stack = append(stack, u)
			}
		}
	}
	return cnt == n
}
