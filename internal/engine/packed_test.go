package engine

// Internal packed-backend tests: the bytes-per-node memory-regression
// guard (make check runs TestPackedFootprint) and unit checks of the
// plane arithmetic that the differential wall exercises only
// end-to-end.

import (
	"slices"
	"testing"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
)

// packedTestProto is a small packed-eligible literal protocol (the
// mis/ssmis machines live above the engine and would import-cycle): a
// ping flood with a branching row, a single-query protocol with b = 2.
func packedTestProto() *nfsm.Protocol {
	stay := func(q nfsm.State) []nfsm.Move { return []nfsm.Move{{Next: q, Emit: nfsm.NoLetter}} }
	return &nfsm.Protocol{
		Name:        "packed-flood",
		StateNames:  []string{"idle", "hot", "done"},
		LetterNames: []string{"ping", "quiet"},
		Input:       []nfsm.State{1},
		Output:      []bool{false, false, true},
		Initial:     1,
		B:           2,
		Query:       []nfsm.Letter{0, 0, 0},
		Delta: [][][]nfsm.Move{
			{stay(0), {{Next: 2, Emit: 0}, {Next: 0, Emit: nfsm.NoLetter}}, {{Next: 2, Emit: 0}}},
			{{{Next: 2, Emit: 0}}, {{Next: 2, Emit: 0}}, {{Next: 2, Emit: 0}}},
			{stay(2), stay(2), stay(2)},
		},
	}
}

// packedFootprintBudget is the regression ceiling for the packed run
// state, in bytes per node. Every plane costs 1/8 B per node: for MIS
// on a sparse graph that is 3 state planes, 3 last-emission planes, 3
// old-emission planes, |Σ| = 7 count blocks of ⌈log₂(Δ+1)⌉ words (35
// planes at Δ = 25), and the stability, sink, change and sink-snapshot
// planes, ~6 B/node in all. The round's changed emissions live in
// those planes, not in a list that grows with the changed nodes, so
// the state is the same size in every round. 8 B/node leaves headroom
// without letting the layout quietly regress toward the flat engine's
// ~100 B/node.
const packedFootprintBudget = 8

func TestPackedFootprint(t *testing.T) {
	const n = 1 << 16
	csr, err := graph.BuildCSR(graph.GnpConnectedStream(n, 4.0/n, 1))
	if err != nil {
		t.Fatal(err)
	}
	prog := CompileMachine(packedTestProto()).BindCSR(csr)
	// Half the nodes start idle so the ping wave takes several rounds to
	// sweep the graph instead of converging instantly.
	init := make([]nfsm.State, n)
	for v := range init {
		init[v] = nfsm.State(v & 1)
	}
	scr := NewScratch()
	res, err := prog.RunSyncReusing(SyncConfig{Seed: 1, Workers: 1, Init: init, Backend: BackendPacked}, scr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("converged in zero rounds: the run exercised nothing")
	}
	got := scr.pk.footprintBytes()
	if perNode := float64(got) / n; perNode > packedFootprintBudget {
		t.Errorf("packed run state = %d bytes (%.2f B/node), budget %d B/node", got, perNode, packedFootprintBudget)
	}
}

// TestPackedRunBuildsNoReversePorts pins who builds a CSR's reverse
// ports: a binding that auto-selects the packed backend leaves them
// unbuilt through default runs, sequential and sharded; a forced flat
// run builds them on first use; a binding below the auto-selection
// size builds them at bind.
func TestPackedRunBuildsNoReversePorts(t *testing.T) {
	const n = packedAutoThreshold
	csr, err := graph.BuildCSR(graph.GnpConnectedStream(n, 4.0/n, 1))
	if err != nil {
		t.Fatal(err)
	}
	prog := CompileMachine(packedTestProto()).BindCSR(csr)
	for _, workers := range []int{1, 2} {
		if _, err := prog.RunSync(SyncConfig{Seed: 1, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if csr.RevPortBuilt() {
			t.Fatalf("a packed run on %d workers built the reverse ports", workers)
		}
	}
	if _, err := prog.RunSync(SyncConfig{Seed: 1, Backend: BackendFlat}); err != nil {
		t.Fatal(err)
	}
	if !csr.RevPortBuilt() {
		t.Fatal("a flat run finished without the reverse ports")
	}
	small, err := graph.BuildCSR(graph.GnpConnectedStream(64, 4.0/64, 1))
	if err != nil {
		t.Fatal(err)
	}
	CompileMachine(packedTestProto()).BindCSR(small)
	if !small.RevPortBuilt() {
		t.Fatal("a flat-bound program left its reverse ports to the run")
	}
}

// TestPackedRouteSkipsSinks checks the sharded route against the
// changed emissions it consumes. After every round the test recovers
// the round's changed nodes from the last-emission planes. Then it
// requires that the buckets hold exactly one update per edge from a
// changed node, except edges into a node that was a sink at the
// previous barrier. Over the run some updates must be skipped, the
// snapshot must equal the sink plane at every barrier, and the final
// states must equal a one-worker run's.
func TestPackedRouteSkipsSinks(t *testing.T) {
	const n = 1 << 16
	csr, err := graph.BuildCSR(graph.GnpConnectedStream(n, 4.0/n, 3))
	if err != nil {
		t.Fatal(err)
	}
	prog := CompileMachine(packedTestProto()).BindCSR(csr)
	init := make([]nfsm.State, n)
	for v := range init {
		init[v] = nfsm.State(v & 1)
	}
	want, err := prog.RunSync(SyncConfig{Seed: 1, Workers: 1, Init: init, Backend: BackendPacked})
	if err != nil {
		t.Fatal(err)
	}

	scr := NewScratch()
	letters := make([]int16, n) // each node's emission after the previous round
	for v := range letters {
		letters[v] = int16(prog.initial)
	}
	snap := make([]uint64, (n+63)/64) // the sink snapshot of the previous barrier
	var bucketed, skipped int
	obs := func(round int, _ []nfsm.State) {
		ps := scr.pk
		got := 0
		for _, bk := range ps.buckets {
			for _, b := range bk {
				got += len(b)
			}
		}
		exp := 0
		for v := range letters {
			w, i := v>>6, uint(v)&63
			var le int16
			for j := range ps.leP {
				le |= int16(ps.leP[j][w]>>i&1) << j
			}
			if le == letters[v] {
				continue
			}
			letters[v] = le
			for k := csr.NbrOff[v]; k < csr.NbrOff[v+1]; k++ {
				if u := csr.NbrDat[k]; snap[u>>6]>>(uint(u)&63)&1 != 0 {
					skipped++
				} else {
					exp++
				}
			}
		}
		if got != exp {
			t.Fatalf("round %d: %d bucketed updates, want %d", round, got, exp)
		}
		bucketed += got
		for w := range snap {
			if ps.sinkSnap[w] != ps.sink[w] {
				t.Fatalf("round %d: sink snapshot word %d = %#x, sink plane %#x", round, w, ps.sinkSnap[w], ps.sink[w])
			}
		}
		copy(snap, ps.sinkSnap)
	}
	got, err := prog.RunSyncReusing(SyncConfig{Seed: 1, Workers: 3, Init: init, Backend: BackendPacked, Observer: obs}, scr)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.States, want.States) || got.Rounds != want.Rounds {
		t.Fatalf("3 workers: %d rounds, states differ %v; 1 worker: %d rounds", got.Rounds, !slices.Equal(got.States, want.States), want.Rounds)
	}
	if skipped == 0 {
		t.Fatal("no update addressed a sink: the run exercised nothing")
	}
	t.Logf("%d rounds: %d updates bucketed, %d to sinks skipped", got.Rounds, bucketed, skipped)
}

// TestPackedCountPlanes drives the fixed-depth ripple of move across
// the full count range in the block layout (two letters, two words, so
// one block is neither the first nor the last): moving a node's 31
// units from letter 0 to letter 1 counts letter 1 up through every
// value and letter 0 down, and moving them back does the reverse. No
// other lane, letter or word moves, and every move wakes its node.
func TestPackedCountPlanes(t *testing.T) {
	const nl, nw, wC = 2, 2, 5
	ps := &packedScratch{nw: nw, nl: nl, wQ: 1, wE: 1, wC: wC}
	ps.cnt = make([]uint64, nl*nw*wC)
	ps.stable, ps.sink = make([]uint64, nw), make([]uint64, nw)
	read := func(l int, u int32) int {
		w, i := int(u>>6), uint(u)&63
		c := 0
		for j := 0; j < wC; j++ {
			c |= int(ps.cnt[(l*nw+w)*wC+j]>>i&1) << j
		}
		return c
	}
	for _, u := range []int32{0, 63, 64, 100} {
		blk := ps.countBlock(0, int(u>>6))
		for j := range blk {
			blk[j] |= 1 << (uint(u) & 63) // count 31
		}
		for _, dir := range [][2]int16{{0, 1}, {1, 0}} {
			for k := 1; k <= 31; k++ {
				ps.stable[u>>6] = ^uint64(0)
				ps.move(dir[0], dir[1], u)
				if up, down := read(int(dir[1]), u), read(int(dir[0]), u); up != k || down != 31-k {
					t.Fatalf("node %d after %d moves %d→%d: counts %d, %d", u, k, dir[0], dir[1], down, up)
				}
				if ps.stable[u>>6] != ^(uint64(1) << (uint(u) & 63)) {
					t.Fatalf("node %d: move did not wake exactly its node", u)
				}
			}
		}
	}
	// Independent lanes: counts of other nodes stayed zero.
	for _, u := range []int32{1, 62, 65, 127} {
		if got := read(0, u) + read(1, u); got != 0 {
			t.Fatalf("untouched node %d has count %d", u, got)
		}
	}
	// A node in a sink gets neither the update nor the wake.
	ps.sink[1], ps.stable[1] = 1<<36, ^uint64(0)
	ps.move(0, 1, 100)
	if read(0, 100) != 31 || read(1, 100) != 0 || ps.stable[1] != ^uint64(0) {
		t.Fatal("move updated or woke a sink node")
	}
}

// TestPackedSinkStates pins the sink set of the test protocol: only
// done, whose every row is a lone silent self-loop, is a sink; idle
// stays put on one row but not on the others. (mis's sink set is
// pinned in the external package, which can import it.)
func TestPackedSinkStates(t *testing.T) {
	got := SinkStates(CompileMachine(packedTestProto()))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("sink states = %v, want [2] (done)", got)
	}
}

// TestPackedEligibility pins which compiled kinds reach the bit-plane
// backend.
func TestPackedEligibility(t *testing.T) {
	c := CompileMachine(packedTestProto())
	if !c.PackedEligible() {
		t.Error("literal flat-single protocol should be packed-eligible")
	}
	if c.packedCode() != c.packedCode() {
		t.Error("packedCode not cached on the MachineCode")
	}
}
