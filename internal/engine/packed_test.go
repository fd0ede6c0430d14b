package engine

// Internal packed-backend tests: the bytes-per-node memory-regression
// guard (make check runs TestPackedFootprint) and unit checks of the
// plane arithmetic that the differential wall exercises only
// end-to-end.

import (
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
// state, in bytes per node. The planes themselves cost ~2 B/node for
// MIS on a sparse graph (2 state + 1 emission + |Σ|·⌈log₂Δ⌉ count + 1
// stability planes, each 1/8 B per node); the sequential emitter
// buffer adds up to 8 B/node in the worst all-changed round. 16 B/node
// leaves headroom without letting the layout quietly regress toward
// the flat engine's ~100 B/node.
const packedFootprintBudget = 16

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

// TestPackedCountPlanes drives the ripple-carry inc/dec across the full
// count range of a letter and checks the threshold-clamp reads used by
// the compute phase.
func TestPackedCountPlanes(t *testing.T) {
	ps := &packedScratch{nw: 2, nl: 1, wQ: 1, wE: 1, wC: 5}
	ps.planeBuf = make([]uint64, 5*2)
	ps.cnt = [][]uint64{
		ps.planeBuf[0:2], ps.planeBuf[2:4], ps.planeBuf[4:6],
		ps.planeBuf[6:8], ps.planeBuf[8:10],
	}
	read := func(u int32) int {
		w, i := int(u>>6), uint(u)&63
		c := 0
		for j := 0; j < ps.wC; j++ {
			c |= int(ps.cnt[j][w]>>i&1) << j
		}
		return c
	}
	for _, u := range []int32{0, 63, 64, 100} {
		for k := 1; k <= 31; k++ {
			ps.countInc(0, u)
			if got := read(u); got != k {
				t.Fatalf("node %d after %d incs: count %d", u, k, got)
			}
		}
		for k := 30; k >= 0; k-- {
			ps.countDec(0, u)
			if got := read(u); got != k {
				t.Fatalf("node %d dec to %d: count %d", u, k, got)
			}
		}
	}
	// Independent lanes: counts of other nodes stayed zero.
	for _, u := range []int32{1, 62, 65, 127} {
		if got := read(u); got != 0 {
			t.Fatalf("untouched node %d has count %d", u, got)
		}
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
