package engine

import (
	"errors"
	"testing"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
)

// waveProtocol is a single-letter broadcast wave: sources transmit PING
// and finish; idle nodes finish (and retransmit) upon observing PING.
// States: 0 IDLE, 1 SOURCE, 2 DONE.
func waveProtocol() *nfsm.Protocol {
	stay := func(q nfsm.State) []nfsm.Move { return []nfsm.Move{{Next: q, Emit: nfsm.NoLetter}} }
	return &nfsm.Protocol{
		Name:        "wave",
		StateNames:  []string{"idle", "source", "done"},
		LetterNames: []string{"ping", "quiet"},
		Input:       []nfsm.State{0, 1},
		Output:      []bool{false, false, true},
		Initial:     1, // quiet
		B:           1,
		Query:       []nfsm.Letter{0, 0, 0},
		Delta: [][][]nfsm.Move{
			{stay(0), {{Next: 2, Emit: 0}}},              // idle: ping seen → done
			{{{Next: 2, Emit: 0}}, {{Next: 2, Emit: 0}}}, // source: always fire
			{stay(2), stay(2)},
		},
	}
}

func waveInit(n, source int) []nfsm.State {
	init := make([]nfsm.State, n)
	init[source] = 1
	return init
}

func TestWaveValidates(t *testing.T) {
	if err := waveProtocol().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncWaveOnPath(t *testing.T) {
	// Source at node 0 of P_n: node k finishes in round k+1, so the run
	// takes exactly n rounds.
	for _, n := range []int{1, 2, 5, 32} {
		g := graph.Path(n)
		res, err := RunSync(waveProtocol(), g, SyncConfig{Seed: 1, Init: waveInit(n, 0)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Rounds != n {
			t.Errorf("n=%d: rounds = %d, want %d", n, res.Rounds, n)
		}
		for v, q := range res.States {
			if q != 2 {
				t.Errorf("n=%d: node %d ended in state %d", n, v, q)
			}
		}
		// One transmission per node.
		if res.Transmissions != int64(n) {
			t.Errorf("n=%d: transmissions = %d, want %d", n, res.Transmissions, n)
		}
	}
}

func TestSyncWaveFromCenterOfStar(t *testing.T) {
	g := graph.Star(10)
	res, err := RunSync(waveProtocol(), g, SyncConfig{Seed: 1, Init: waveInit(10, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
}

func TestSyncObserverSeesEveryRound(t *testing.T) {
	g := graph.Path(6)
	var rounds []int
	_, err := RunSync(waveProtocol(), g, SyncConfig{
		Seed: 1,
		Init: waveInit(6, 0),
		Observer: func(round int, states []nfsm.State) {
			rounds = append(rounds, round)
			if len(states) != 6 {
				t.Errorf("observer got %d states", len(states))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 6 {
		t.Fatalf("observer called %d times, want 6", len(rounds))
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("rounds sequence %v", rounds)
		}
	}
}

func TestSyncNoConvergence(t *testing.T) {
	// All idle, no source: the wave never starts.
	g := graph.Path(4)
	_, err := RunSync(waveProtocol(), g, SyncConfig{Seed: 1, MaxRounds: 50})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	// With the default round budget on the dynamic fallback: every node
	// settles on its silent self-loop in round 1, so the frozen
	// configuration must fail fast with the error a full budget gives,
	// sharded or not.
	for _, workers := range []int{1, 4} {
		_, err := RunSync(DynamicFallback(waveProtocol()), g, SyncConfig{Seed: 1, Workers: workers})
		want := "engine: no output configuration within budget of 1048576 rounds: wave-dynamic"
		if !errors.Is(err, ErrNoConvergence) || err.Error() != want {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

func TestSyncInitValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := RunSync(waveProtocol(), g, SyncConfig{Init: make([]nfsm.State, 2)}); err == nil {
		t.Fatal("short init accepted")
	}
	bad := []nfsm.State{0, 9, 0}
	if _, err := RunSync(waveProtocol(), g, SyncConfig{Init: bad}); err == nil {
		t.Fatal("out-of-range init accepted")
	}
}

func TestSyncImmediateOutputConfiguration(t *testing.T) {
	g := graph.Path(3)
	init := []nfsm.State{2, 2, 2}
	res, err := RunSync(waveProtocol(), g, SyncConfig{Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Fatalf("rounds = %d, want 0", res.Rounds)
	}
}

// thresholdProtocol tests the one-two-many counter: the collector (state
// 0) finishes only upon observing ≥2 PINGs; emitters (state 1) fire once.
func thresholdProtocol() *nfsm.Protocol {
	stay := func(q nfsm.State) []nfsm.Move { return []nfsm.Move{{Next: q, Emit: nfsm.NoLetter}} }
	return &nfsm.Protocol{
		Name:        "threshold",
		StateNames:  []string{"collect", "emit", "done"},
		LetterNames: []string{"ping", "quiet"},
		Input:       []nfsm.State{0, 1},
		Output:      []bool{false, false, true},
		Initial:     1,
		B:           2,
		Query:       []nfsm.Letter{0, 0, 0},
		Delta: [][][]nfsm.Move{
			{stay(0), stay(0), {{Next: 2, Emit: nfsm.NoLetter}}}, // collect: needs ≥2
			{{{Next: 2, Emit: 0}}, {{Next: 2, Emit: 0}}, {{Next: 2, Emit: 0}}},
			{stay(2), stay(2), stay(2)},
		},
	}
}

func TestSyncOneTwoManyCounting(t *testing.T) {
	p := thresholdProtocol()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Star center 0 with 3 leaves, all emitters: center sees 3 pings,
	// clamped to ≥2 → finishes.
	g := graph.Star(4)
	init := []nfsm.State{0, 1, 1, 1}
	res, err := RunSync(p, g, SyncConfig{Seed: 1, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
	// With a single leaf the count stays below the threshold forever.
	g1 := graph.Star(2)
	_, err = RunSync(p, g1, SyncConfig{Seed: 1, Init: []nfsm.State{0, 1}, MaxRounds: 100})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

// coinProtocol flips a fair coin: from state 0 move to output state 1 or 2.
func coinProtocol() *nfsm.Protocol {
	stay := func(q nfsm.State) []nfsm.Move { return []nfsm.Move{{Next: q, Emit: nfsm.NoLetter}} }
	return &nfsm.Protocol{
		Name:        "coin",
		StateNames:  []string{"flip", "heads", "tails"},
		LetterNames: []string{"x"},
		Input:       []nfsm.State{0},
		Output:      []bool{false, true, true},
		Initial:     0,
		B:           1,
		Query:       []nfsm.Letter{0, 0, 0},
		Delta: [][][]nfsm.Move{
			{{{Next: 1, Emit: nfsm.NoLetter}, {Next: 2, Emit: nfsm.NoLetter}},
				{{Next: 1, Emit: nfsm.NoLetter}, {Next: 2, Emit: nfsm.NoLetter}}},
			{stay(1), stay(1)},
			{stay(2), stay(2)},
		},
	}
}

func TestSyncDeterministicAcrossRuns(t *testing.T) {
	g := graph.Clique(8)
	a, err := RunSync(coinProtocol(), g, SyncConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSync(coinProtocol(), g, SyncConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.States {
		if a.States[v] != b.States[v] {
			t.Fatalf("same seed diverged at node %d", v)
		}
	}
	c, err := RunSync(coinProtocol(), g, SyncConfig{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.States {
		if a.States[v] != c.States[v] {
			same = false
		}
	}
	if same {
		t.Log("different seeds produced identical outcome (possible but unlikely for 8 coins)")
	}
}

func TestCoinRoughlyFairAcrossNodes(t *testing.T) {
	g := graph.New(2000) // isolated nodes, one coin each
	res, err := RunSync(coinProtocol(), g, SyncConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	heads := 0
	for _, q := range res.States {
		if q == 1 {
			heads++
		}
	}
	if heads < 900 || heads > 1100 {
		t.Fatalf("heads = %d of 2000, coin is biased", heads)
	}
}

func TestAsyncWaveUnderAllAdversaries(t *testing.T) {
	g := graph.Path(16)
	for name, adv := range NamedAdversaries(7) {
		t.Run(name, func(t *testing.T) {
			res, err := RunAsync(waveProtocol(), g, AsyncConfig{
				Seed: 3, Adversary: adv, Init: waveInit(16, 0),
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, q := range res.States {
				if q != 2 {
					t.Errorf("node %d ended in state %d", v, q)
				}
			}
			if res.TimeUnits <= 0 {
				t.Errorf("TimeUnits = %v, want > 0", res.TimeUnits)
			}
		})
	}
}

func TestAsyncSynchronousAdversaryMatchesRounds(t *testing.T) {
	// Under the Synchronous policy every step and delay is one unit, so
	// the wave front advances one hop per two time units (step, then
	// delivery); the run-time is Θ(n) time units and every parameter is
	// 1, so TimeUnits == Time.
	g := graph.Path(10)
	res, err := RunAsync(waveProtocol(), g, AsyncConfig{Seed: 3, Init: waveInit(10, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != res.TimeUnits {
		t.Fatalf("Time %v != TimeUnits %v under unit parameters", res.Time, res.TimeUnits)
	}
	if res.TimeUnits < 10 || res.TimeUnits > 21 {
		t.Fatalf("TimeUnits = %v, want within [10, 21] for a 10-node wave", res.TimeUnits)
	}
}

func TestAsyncTimeUnitNormalization(t *testing.T) {
	// With all parameters equal to 0.5 the absolute time halves but the
	// normalized run-time must match the unit-parameter run.
	g := graph.Path(8)
	unit, err := RunAsync(waveProtocol(), g, AsyncConfig{Seed: 3, Init: waveInit(8, 0)})
	if err != nil {
		t.Fatal(err)
	}
	half, err := RunAsync(waveProtocol(), g, AsyncConfig{
		Seed: 3, Adversary: constantAdversary{0.5}, Init: waveInit(8, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if half.Time >= unit.Time {
		t.Fatalf("half-speed time %v not below unit time %v", half.Time, unit.Time)
	}
	if diff := half.TimeUnits - unit.TimeUnits; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("normalized run-times differ: %v vs %v", half.TimeUnits, unit.TimeUnits)
	}
}

type constantAdversary struct{ d float64 }

func (c constantAdversary) StepLength(int, int) float64 { return c.d }
func (c constantAdversary) Delay(int, int, int) float64 { return c.d }

type badAdversary struct{}

func (badAdversary) StepLength(int, int) float64 { return 0 }
func (badAdversary) Delay(int, int, int) float64 { return 1 }

func TestAsyncRejectsNonPositiveParameters(t *testing.T) {
	g := graph.Path(3)
	_, err := RunAsync(waveProtocol(), g, AsyncConfig{Adversary: badAdversary{}, Init: waveInit(3, 0)})
	if err == nil {
		t.Fatal("non-positive step length accepted")
	}
}

func TestAsyncStepBudget(t *testing.T) {
	g := graph.Path(4) // no source: never converges
	_, err := RunAsync(waveProtocol(), g, AsyncConfig{Seed: 1, MaxSteps: 100})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

// chatterProtocol has one talkative node that emits on every step through
// a chain of states before finishing, and listeners that finish on the
// first observed CHAT. Under the Overwriter policy most transmissions are
// overwritten in the port before the slow listener observes them.
func chatterProtocol() *nfsm.Protocol {
	const chain = 8
	states := make([]string, 0, chain+2)
	for i := 0; i < chain; i++ {
		states = append(states, "talk")
	}
	states = append(states, "listen", "done")
	listen := nfsm.State(chain)
	done := nfsm.State(chain + 1)
	delta := make([][][]nfsm.Move, chain+2)
	for i := 0; i < chain; i++ {
		next := nfsm.State(i + 1)
		if i == chain-1 {
			next = done
		}
		mv := []nfsm.Move{{Next: next, Emit: 0}}
		delta[i] = [][]nfsm.Move{mv, mv}
	}
	delta[listen] = [][]nfsm.Move{
		{{Next: listen, Emit: nfsm.NoLetter}},
		{{Next: done, Emit: nfsm.NoLetter}},
	}
	delta[done] = [][]nfsm.Move{
		{{Next: done, Emit: nfsm.NoLetter}},
		{{Next: done, Emit: nfsm.NoLetter}},
	}
	queries := make([]nfsm.Letter, chain+2)
	output := make([]bool, chain+2)
	output[done] = true
	return &nfsm.Protocol{
		Name:        "chatter",
		StateNames:  states,
		LetterNames: []string{"chat", "quiet"},
		Input:       []nfsm.State{0, listen},
		Output:      output,
		Initial:     1,
		B:           1,
		Query:       queries,
		Delta:       delta,
	}
}

func TestAsyncOverwriterLosesMessages(t *testing.T) {
	p := chatterProtocol()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.Path(2)
	listen := nfsm.State(8)
	res, err := RunAsync(p, g, AsyncConfig{
		Seed:      2,
		Adversary: Overwriter{Seed: 11},
		Init:      []nfsm.State{0, listen},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Fatal("Overwriter adversary lost no messages; port overwrite semantics untested")
	}
}

func TestAsyncFIFOPerEdge(t *testing.T) {
	// The chatter emits CHAT eight times; FIFO plus overwrite means the
	// listener's port must end holding the *last* transmission no matter
	// the adversary. We verify the listener always terminates (it would
	// hang only if ports could present no letter at all).
	p := chatterProtocol()
	g := graph.Path(2)
	listen := nfsm.State(8)
	for name, adv := range NamedAdversaries(5) {
		res, err := RunAsync(p, g, AsyncConfig{
			Seed: 4, Adversary: adv, Init: []nfsm.State{0, listen},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.States[1] != nfsm.State(9) {
			t.Fatalf("%s: listener ended in state %d", name, res.States[1])
		}
	}
}

func TestAsyncDeterministic(t *testing.T) {
	g := graph.Clique(6)
	run := func() *AsyncResult {
		res, err := RunAsync(coinProtocol(), g, AsyncConfig{
			Seed: 12, Adversary: UniformRandom{Seed: 13},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Steps != b.Steps {
		t.Fatal("async run is not deterministic")
	}
	for v := range a.States {
		if a.States[v] != b.States[v] {
			t.Fatal("async states diverged across identical runs")
		}
	}
}

func TestNamedAdversariesComplete(t *testing.T) {
	advs := NamedAdversaries(1)
	for _, name := range []string{"sync", "uniform", "skew", "overwriter", "drift"} {
		if advs[name] == nil {
			t.Errorf("missing adversary %q", name)
		}
	}
}

func TestAdversaryParameterRanges(t *testing.T) {
	for name, adv := range NamedAdversaries(3) {
		for node := 0; node < 10; node++ {
			for step := 1; step <= 50; step++ {
				l := adv.StepLength(node, step)
				if l <= 0 || l > 1 {
					t.Fatalf("%s: StepLength(%d,%d) = %v outside (0,1]", name, node, step, l)
				}
				d := adv.Delay(node, step, (node+1)%10)
				if d <= 0 || d > 1 {
					t.Fatalf("%s: Delay(%d,%d) = %v outside (0,1]", name, node, step, d)
				}
			}
		}
	}
}
