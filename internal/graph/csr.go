package graph

import (
	"sync"
	"sync/atomic"
)

// CSR is a compressed-sparse-row view of the graph: the adjacency lists
// packed into two flat arrays, plus the flattened reverse-port table the
// execution engines need to route transmissions. It exists so the hot
// round loop walks contiguous memory instead of pointer-chasing through
// nested slices.
//
// For every node v the directed edges v → u occupy the index range
// [NbrOff[v], NbrOff[v+1]) of NbrDat, in the same sorted order as
// Neighbors(v); the port index of u at v is therefore k - NbrOff[v].
// RevPort returns the table aligned with NbrDat: for the directed edge
// at index k from v to u = NbrDat[k], RevPort()[k] is the port index of
// v at u — i.e. the slot of u's port array that v's transmissions land
// in. The table is built on first use, not with the snapshot: the
// bit-plane sync backend never reads it, and at n = 10⁶ it is as large
// as NbrDat.
//
// A CSR is an immutable snapshot: it does not observe edges added to the
// graph after it was built. It is safe for concurrent use.
type CSR struct {
	// NbrOff has length N()+1; NbrOff[v] is the first index of node v's
	// neighbor run in NbrDat.
	NbrOff []int32
	// NbrDat has length 2·M(); the concatenated sorted adjacency lists.
	NbrDat []int32

	revOnce  sync.Once
	rev      []int32
	revBuilt atomic.Bool
}

// CSR builds the compressed-sparse-row snapshot of the graph in O(n + m),
// amortized over the rounds of any execution that uses it.
func (g *Graph) CSR() *CSR {
	n := g.N()
	c := &CSR{
		NbrOff: make([]int32, n+1),
		NbrDat: make([]int32, 2*g.m),
	}
	k := 0
	for v := 0; v < n; v++ {
		c.NbrOff[v] = int32(k)
		for _, u := range g.adj[v] {
			c.NbrDat[k] = int32(u)
			k++
		}
	}
	c.NbrOff[n] = int32(k)
	return c
}

// RevPort returns the reverse-port table (see CSR), building it in
// O(n + m) on the first call; every later call, from any goroutine,
// returns the same slice. Callers must not modify it.
func (c *CSR) RevPort() []int32 {
	c.revOnce.Do(func() {
		c.rev = c.buildRevPort()
		c.revBuilt.Store(true)
	})
	return c.rev
}

// RevPortBuilt reports whether the reverse-port table has been built,
// without building it.
func (c *CSR) RevPortBuilt() bool { return c.revBuilt.Load() }

// buildRevPort derives the reverse ports without per-edge searches:
// scanning nodes u in ascending order, the successive occurrences of w
// across the sorted adjacency runs visit exactly w's own run in order,
// so a cursor per node tracks where the edge (w → u) lives in w's run.
func (c *CSR) buildRevPort() []int32 {
	n := c.N()
	rev := make([]int32, len(c.NbrDat))
	cur := make([]int32, n)
	for u := 0; u < n; u++ {
		for k := c.NbrOff[u]; k < c.NbrOff[u+1]; k++ {
			w := c.NbrDat[k]
			rev[c.NbrOff[w]+cur[w]] = k - c.NbrOff[u]
			cur[w]++
		}
	}
	return rev
}

// RemapPorts aligns an old CSR snapshot with a new one after a topology
// mutation: it returns, for every directed-edge slot k of the new
// snapshot, the slot the same directed edge occupied in the old
// snapshot, or -1 for an edge that did not exist before. This is the
// port-identity carrier of the dynamic execution path — per-edge state
// (the letter a port holds, its last write time, its FIFO horizon) is
// keyed by the directed edge, not by its slot, so surviving edges keep
// their state across a rebind even though sorted-insertion shifts their
// slot indices.
//
// Both snapshots must cover the same node-id space. The adjacency runs
// are sorted, so a single merge walk per node aligns them in O(n + m)
// with no per-edge searches.
func RemapPorts(old, cur *CSR) []int32 {
	if old.N() != cur.N() {
		panic("graph: RemapPorts across different node-id spaces")
	}
	remap := make([]int32, len(cur.NbrDat))
	for v := 0; v < cur.N(); v++ {
		o, oEnd := old.NbrOff[v], old.NbrOff[v+1]
		for k := cur.NbrOff[v]; k < cur.NbrOff[v+1]; k++ {
			u := cur.NbrDat[k]
			for o < oEnd && old.NbrDat[o] < u {
				o++
			}
			if o < oEnd && old.NbrDat[o] == u {
				remap[k] = o
				o++
			} else {
				remap[k] = -1
			}
		}
	}
	return remap
}

// N returns the number of nodes of the snapshot.
func (c *CSR) N() int { return len(c.NbrOff) - 1 }

// Degree returns the degree of node v in the snapshot.
func (c *CSR) Degree(v int) int { return int(c.NbrOff[v+1] - c.NbrOff[v]) }
