package graph

import (
	"sync"
	"testing"

	"stoneage/internal/xrand"
)

func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	c := g.CSR()
	if c.N() != g.N() {
		t.Fatalf("CSR.N() = %d, want %d", c.N(), g.N())
	}
	if len(c.NbrDat) != 2*g.M() || len(c.RevPort()) != 2*g.M() {
		t.Fatalf("CSR arrays have %d/%d entries, want %d", len(c.NbrDat), len(c.RevPort()), 2*g.M())
	}
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		if c.Degree(v) != len(nb) {
			t.Fatalf("node %d: CSR degree %d != %d", v, c.Degree(v), len(nb))
		}
		for i, u := range nb {
			k := int(c.NbrOff[v]) + i
			if int(c.NbrDat[k]) != u {
				t.Fatalf("node %d: NbrDat[%d] = %d, want %d", v, k, c.NbrDat[k], u)
			}
			// RevPort must invert the port numbering: following the
			// reverse port from v's edge to u lands back on v.
			rp := int(c.RevPort()[k])
			if rp != g.PortOf(u, v) {
				t.Fatalf("edge %d→%d: RevPort = %d, want %d", v, u, rp, g.PortOf(u, v))
			}
			if back := int(c.NbrDat[int(c.NbrOff[u])+rp]); back != v {
				t.Fatalf("edge %d→%d: reverse port %d points at %d", v, u, rp, back)
			}
		}
	}
}

func TestCSRMatchesAdjacency(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":    New(0),
		"isolated": New(5),
		"path":     Path(17),
		"cycle":    Cycle(12),
		"star":     Star(9),
		"clique":   Clique(8),
		"gnp":      Gnp(64, 0.15, xrand.New(7)),
		"tree":     RandomTree(40, xrand.New(8)),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) { checkCSR(t, g) })
	}
}

func TestCSRIsASnapshot(t *testing.T) {
	g := New(4)
	g.mustAddEdge(0, 1)
	c := g.CSR()
	g.mustAddEdge(2, 3)
	if len(c.NbrDat) != 2 {
		t.Fatalf("snapshot grew to %d entries after AddEdge", len(c.NbrDat))
	}
}

// TestRevPortOnDemand pins the lazily built reverse-port table on every
// generator, materialized and streamed: no snapshot builds it up front,
// four goroutines racing on the first call all get the one table, and
// the table meets its definition — following the reverse port of the
// directed edge k = v → u from u's run lands back on v.
func TestRevPortOnDemand(t *testing.T) {
	src := func(seed uint64) *xrand.Source { return xrand.New(seed) }
	csrs := map[string]*CSR{}
	for name, g := range map[string]*Graph{
		"empty":         New(0),
		"isolated":      New(5),
		"path":          Path(17),
		"cycle":         Cycle(12),
		"star":          Star(9),
		"clique":        Clique(8),
		"grid":          Grid(5, 7),
		"torus":         Torus(4, 6),
		"gnp":           Gnp(64, 0.15, src(7)),
		"gnp-connected": GnpConnected(64, 0.05, src(9)),
		"tree":          RandomTree(40, src(8)),
		"binary-tree":   BinaryTree(31),
		"caterpillar":   Caterpillar(20),
		"broom":         Broom(20),
		"bipartite":     CompleteBipartite(4, 6),
		"near-regular":  NearRegular(50, 4, src(10)),
		"proneural":     ProneuralLattice(6, 6),
		"geometric":     RandomGeometric(60, 0.2, src(11)),
		"pref-attach":   PreferentialAttachment(60, 2, src(12)),
		"small-world":   SmallWorld(60, 4, 0.2, src(13)),
	} {
		csrs[name] = g.CSR()
	}
	for name, s := range map[string]EdgeStream{
		"cycle-stream":     CycleStream(50),
		"tree-stream":      RandomTreeStream(200, 3),
		"gnp-stream":       GnpConnectedStream(300, 4.0/300, 4),
		"geometric-stream": RandomGeometricStream(200, 0.12, 5),
	} {
		c, err := BuildCSR(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		csrs[name] = c
	}
	for name, c := range csrs {
		if c.RevPortBuilt() {
			t.Fatalf("%s: reverse ports built with the snapshot", name)
		}
		var tabs [4][]int32
		var wg sync.WaitGroup
		for i := range tabs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tabs[i] = c.RevPort()
			}(i)
		}
		wg.Wait()
		rev := c.RevPort()
		if !c.RevPortBuilt() || len(rev) != len(c.NbrDat) {
			t.Fatalf("%s: table of %d entries for %d edge slots", name, len(rev), len(c.NbrDat))
		}
		for i, tab := range tabs {
			if len(tab) > 0 && &tab[0] != &rev[0] {
				t.Fatalf("%s: goroutine %d got its own table", name, i)
			}
		}
		for v := 0; v < c.N(); v++ {
			for k := c.NbrOff[v]; k < c.NbrOff[v+1]; k++ {
				u := c.NbrDat[k]
				if rp := rev[k]; rp < 0 || int(rp) >= c.Degree(int(u)) || c.NbrDat[c.NbrOff[u]+rp] != int32(v) {
					t.Fatalf("%s: edge %d→%d: reverse port %d does not lead back", name, v, u, rp)
				}
			}
		}
	}
}
