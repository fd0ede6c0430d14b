package engine

// Unit tests for the ladder event queue: exact (time, seq) service
// order against a reference model under random interleavings, seq
// tie-breaking on simultaneous events, bucket overflow/rebuild paths
// (everything clustered in one bucket; far-future spreads; repeated rung
// rebuilds), and storage reuse across resets. The executors' epoch invalidation — stale
// precomputed events skipped after a mid-chain delivery or a crash — is
// pinned at the engine level by TestAsyncEpochInvalidation and the
// dynamic differential suite.

import (
	"math"
	"sort"
	"testing"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// drainAll pops every event, asserting (time, seq) order.
func drainAll(t *testing.T, l *ladder) []qevent {
	t.Helper()
	var out []qevent
	for {
		e, ok := l.pop()
		if !ok {
			break
		}
		if len(out) > 0 {
			prev := out[len(out)-1]
			if e.time < prev.time || (e.time == prev.time && e.seq < prev.seq) {
				t.Fatalf("order violation: (%g, %d) after (%g, %d)", e.time, e.seq, prev.time, prev.seq)
			}
		}
		out = append(out, e)
	}
	return out
}

func TestLadderOrdering(t *testing.T) {
	src := xrand.New(1)
	var l ladder
	l.reset()
	const n = 5000
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		// A mix of scales so bottom inserts, bucket appends, top pushes
		// and several rung rebuilds all occur.
		times[i] = float64(src.Uint64()%1000)/64 + float64(src.Uint64()%7)*100
		l.push(qevent{time: times[i], seq: uint64(i)})
	}
	if l.len() != n {
		t.Fatalf("len = %d, want %d", l.len(), n)
	}
	got := drainAll(t, &l)
	if len(got) != n {
		t.Fatalf("drained %d events, want %d", len(got), n)
	}
	sort.Float64s(times)
	for i, e := range got {
		if e.time != times[i] {
			t.Fatalf("pop %d: time %g, want %g", i, e.time, times[i])
		}
	}
}

// TestLadderModel drives random interleaved pushes and pops against a
// sorted-slice reference model, with event times at and after the
// current service point (the executors never schedule into the past).
func TestLadderModel(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(uint64(100 + trial))
		var l ladder
		l.reset()
		var model []qevent
		now := 0.0
		var seq uint64
		for op := 0; op < 4000; op++ {
			if src.Intn(3) > 0 || len(model) == 0 {
				// Push at or after the current time; occasionally far
				// ahead, occasionally exactly at `now` (FIFO clamping
				// produces same-time pushes in the executors).
				var dt float64
				switch src.Intn(4) {
				case 0:
					dt = 0
				case 1:
					dt = float64(src.Intn(1000)) / 999 // near future
				case 2:
					dt = float64(src.Intn(100)) // far future
				default:
					dt = float64(src.Intn(7)) / 3
				}
				e := qevent{time: now + dt, seq: seq}
				seq++
				l.push(e)
				model = append(model, e)
				continue
			}
			e, ok := l.pop()
			if !ok {
				t.Fatalf("trial %d op %d: empty ladder, model has %d", trial, op, len(model))
			}
			// Reference: minimum by (time, seq).
			best := 0
			for i := 1; i < len(model); i++ {
				if model[i].time < model[best].time ||
					(model[i].time == model[best].time && model[i].seq < model[best].seq) {
					best = i
				}
			}
			want := model[best]
			model = append(model[:best], model[best+1:]...)
			if e.time != want.time || e.seq != want.seq {
				t.Fatalf("trial %d op %d: popped (%g, %d), want (%g, %d)",
					trial, op, e.time, e.seq, want.time, want.seq)
			}
			now = e.time
		}
	}
}

// TestLadderSeqTieBreak pins FIFO service of simultaneous events.
func TestLadderSeqTieBreak(t *testing.T) {
	var l ladder
	l.reset()
	// All events share one time: the degenerate rungless-bottom path.
	order := []uint64{5, 1, 9, 0, 7, 3, 8, 2, 6, 4}
	for _, s := range order {
		l.push(qevent{time: 2.5, seq: s})
	}
	got := drainAll(t, &l)
	for i, e := range got {
		if e.seq != uint64(i) {
			t.Fatalf("pop %d: seq %d, want %d", i, e.seq, i)
		}
	}
	// Ties interleaved with other times, plus pushes landing in the
	// partially served bottom batch.
	l.reset()
	l.push(qevent{time: 1, seq: 0})
	l.push(qevent{time: 3, seq: 1})
	l.push(qevent{time: 3, seq: 2})
	if e, _ := l.pop(); e.seq != 0 {
		t.Fatalf("first pop seq %d, want 0", e.seq)
	}
	// Same-time, lower-seq than a pending event: must slot before it.
	l.push(qevent{time: 3, seq: 3})
	got = drainAll(t, &l)
	want := []uint64{1, 2, 3}
	for i, e := range got {
		if e.seq != want[i] {
			t.Fatalf("pop %d: seq %d, want %d", i, e.seq, want[i])
		}
	}
}

// TestLadderBucketOverflow clusters thousands of events into a sliver
// of the rung's span (all in one bucket) with a lone far outlier, so
// one bucket vastly overflows the average and the drain must sort it
// wholesale; then everything repeats after a reset to check storage
// reuse doesn't leak state.
func TestLadderBucketOverflow(t *testing.T) {
	var l ladder
	l.reset()
	for round := 0; round < 2; round++ {
		src := xrand.New(uint64(7 + round))
		const n = 3000
		for i := 0; i < n; i++ {
			l.push(qevent{time: 1 + float64(src.Uint64()%997)/1e6, seq: uint64(i)})
		}
		l.push(qevent{time: 1e6, seq: n}) // stretches the rung span
		got := drainAll(t, &l)
		if len(got) != n+1 {
			t.Fatalf("round %d: drained %d, want %d", round, len(got), n+1)
		}
		if got[n].time != 1e6 {
			t.Fatalf("round %d: outlier served at position %g", round, got[n].time)
		}
		l.reset()
		if _, ok := l.pop(); ok {
			t.Fatalf("round %d: pop after reset succeeded", round)
		}
	}
}

// TestLadderPeek checks peekTime agrees with the subsequent pop and
// does not consume.
func TestLadderPeek(t *testing.T) {
	var l ladder
	l.reset()
	if _, ok := l.peekTime(); ok {
		t.Fatal("peek on empty ladder reported an event")
	}
	l.push(qevent{time: 4, seq: 0})
	l.push(qevent{time: 2, seq: 1})
	for i := 0; i < 2; i++ {
		pt, ok := l.peekTime()
		if !ok {
			t.Fatal("peek reported empty")
		}
		e, _ := l.pop()
		if e.time != pt {
			t.Fatalf("peek %g, pop %g", pt, e.time)
		}
	}
}

// TestAsyncEpochInvalidation pins the parking fast path's epoch
// machinery end to end: under an adversary with extreme speed skew
// (Overwriter), precomputed chain-end events are repeatedly invalidated
// by mid-chain deliveries and rescheduled, and the run must still be
// bit-identical to the reference engine — including Steps, the exact
// termination time and the final state vector.
func TestAsyncEpochInvalidation(t *testing.T) {
	g := graph.GnpConnected(24, 0.2, xrand.New(5))
	compiled, err := synchro.CompileRound(miniRound())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 3} {
		adv := Overwriter{Seed: seed}
		ref, refErr := RunAsyncRef(compiled, g, AsyncConfig{Seed: seed, Adversary: adv})
		got, gotErr := RunAsync(compiled, g, AsyncConfig{Seed: seed, Adversary: adv})
		if refErr != nil || gotErr != nil {
			t.Fatalf("seed %d: errors ref=%v got=%v", seed, refErr, gotErr)
		}
		if got.Time != ref.Time || got.Steps != ref.Steps || got.Lost != ref.Lost ||
			got.Transmissions != ref.Transmissions ||
			math.Abs(got.TimeUnits-ref.TimeUnits) != 0 {
			t.Fatalf("seed %d: (Time, Steps, Lost, Tx, TU) = (%v, %d, %d, %d, %v), reference (%v, %d, %d, %d, %v)",
				seed, got.Time, got.Steps, got.Lost, got.Transmissions, got.TimeUnits,
				ref.Time, ref.Steps, ref.Lost, ref.Transmissions, ref.TimeUnits)
		}
		for v := range ref.States {
			if got.States[v] != ref.States[v] {
				t.Fatalf("seed %d: state of node %d diverged", seed, v)
			}
		}
	}
}

// TestAsyncScratchReuse checks that one scratch arena reused across
// runs (different seeds, then a different machine) yields exactly the
// same results as fresh arenas.
func TestAsyncScratchReuse(t *testing.T) {
	g := graph.GnpConnected(20, 0.25, xrand.New(6))
	compiled, err := synchro.CompileRound(miniRound())
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(compiled, g)
	scr := NewScratch()
	for seed := uint64(0); seed < 6; seed++ {
		adv := UniformRandom{Seed: seed}
		fresh, err1 := prog.RunAsync(AsyncConfig{Seed: seed, Adversary: adv})
		reused, err2 := prog.RunAsyncReusing(AsyncConfig{Seed: seed, Adversary: adv}, scr)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: errors %v / %v", seed, err1, err2)
		}
		if fresh.Time != reused.Time || fresh.Steps != reused.Steps || fresh.Lost != reused.Lost {
			t.Fatalf("seed %d: scratch reuse diverged: (%v,%d,%d) vs (%v,%d,%d)",
				seed, reused.Time, reused.Steps, reused.Lost, fresh.Time, fresh.Steps, fresh.Lost)
		}
		for v := range fresh.States {
			if fresh.States[v] != reused.States[v] {
				t.Fatalf("seed %d: node %d state diverged under scratch reuse", seed, v)
			}
		}
	}
	// Same scratch, different machine: the machine-keyed memos must
	// invalidate, not leak rows across machines.
	g2 := graph.Cycle(12)
	prog2 := Compile(flood2(), g2)
	fresh, err1 := prog2.RunAsync(AsyncConfig{Seed: 1, Adversary: UniformRandom{Seed: 2}})
	reused, err2 := prog2.RunAsyncReusing(AsyncConfig{Seed: 1, Adversary: UniformRandom{Seed: 2}}, scr)
	if err1 != nil || err2 != nil {
		t.Fatalf("machine switch: errors %v / %v", err1, err2)
	}
	for v := range fresh.States {
		if fresh.States[v] != reused.States[v] {
			t.Fatalf("machine switch: node %d state diverged", v)
		}
	}
}

// miniRound is a small convergent round protocol whose synchronizer
// compilation spends most of its steps waiting (pause spins) and
// flipping on delivered letters — the access pattern the parking fast
// path and its epoch invalidation live on.
func miniRound() *nfsm.RoundProtocol {
	const (
		stA nfsm.State = iota
		stB
		stDone
	)
	return &nfsm.RoundProtocol{
		Name:        "mini",
		StateNames:  []string{"A", "B", "DONE"},
		LetterNames: []string{"x", "y"},
		Input:       []nfsm.State{stA},
		Output:      []bool{false, false, true},
		Initial:     0,
		B:           2,
		Transition: func(q nfsm.State, counts []nfsm.Count) []nfsm.Move {
			switch q {
			case stA:
				// Announce, with a random dawdle so multi-move rows occur.
				return []nfsm.Move{{Next: stB, Emit: 1}, {Next: stA, Emit: 1}}
			case stB:
				if counts[1] >= 1 {
					return []nfsm.Move{{Next: stDone, Emit: 1}}
				}
				return []nfsm.Move{{Next: stB, Emit: nfsm.NoLetter}}
			default:
				return []nfsm.Move{{Next: stDone, Emit: nfsm.NoLetter}}
			}
		},
	}
}

// flood2 is a small literal protocol for the machine-switch check.
func flood2() *nfsm.Protocol {
	stay := func(q nfsm.State) []nfsm.Move { return []nfsm.Move{{Next: q, Emit: nfsm.NoLetter}} }
	return &nfsm.Protocol{
		Name:        "flood2",
		StateNames:  []string{"idle", "done"},
		LetterNames: []string{"ping", "quiet"},
		Input:       []nfsm.State{0},
		Output:      []bool{false, true},
		Initial:     1,
		B:           1,
		Query:       []nfsm.Letter{0, 0},
		Delta: [][][]nfsm.Move{
			{{{Next: 0, Emit: 0}, {Next: 1, Emit: 0}}, {{Next: 1, Emit: 0}}},
			{stay(1), stay(1)},
		},
	}
}
