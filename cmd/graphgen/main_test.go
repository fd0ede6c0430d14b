package main

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"stoneage/internal/graph"
)

func TestGenerateAndDecode(t *testing.T) {
	for _, fam := range []string{"path", "cycle", "star", "clique", "grid", "torus",
		"tree", "binary", "caterpillar", "broom", "gnp", "bipartite", "lattice"} {
		var buf bytes.Buffer
		if err := run([]string{"-family", fam, "-n", "20", "-seed", "3"}, &buf); err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		g, err := graph.Decode(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("%s: decode: %v", fam, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", fam)
		}
	}
}

func TestTreeFamilyIsTree(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-family", "tree", "-n", "50"}, &buf); err != nil {
		t.Fatal(err)
	}
	g, err := graph.Decode(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTree() {
		t.Fatal("tree family generated a non-tree")
	}
}

func TestUnknownFamily(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-family", "nope"}, &buf); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-family", "gnp", "-n", "30", "-seed", "9"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-family", "gnp", "-n", "30", "-seed", "9"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different graphs")
	}
}

// TestGnpFamilyIsStreamed pins the gnp family to the streamed G(n,p)
// builder for one seed, so a large instance costs O(n + m) draws, not a
// coin per node pair.
func TestGnpFamilyIsStreamed(t *testing.T) {
	const n, seed = 300, 7
	var buf bytes.Buffer
	if err := run([]string{"-family", "gnp", "-n", strconv.Itoa(n), "-seed", strconv.Itoa(seed)}, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := graph.Decode(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.ToGraph(graph.GnpConnectedStream(n, 4.0/n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("gnp graph (n=%d, m=%d) differs from the streamed builder's (n=%d, m=%d)", got.N(), got.M(), want.N(), want.M())
	}
}
