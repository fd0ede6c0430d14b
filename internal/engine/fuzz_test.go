package engine_test

// The standing fuzz wall: go-native fuzz targets that extend the
// differential suites of diff_test.go and dynamic_test.go from fixed
// case matrices to arbitrary machines, graphs, scenarios and seeds.
// Each target decodes a small single-query protocol, a random graph,
// a random dynamic-network scenario (edge churn, crashes and
// restarts, staggered wake-up, every reset policy) and a random
// unreliable-channel configuration (quantized loss/duplication/
// reordering/corruption rates plus Byzantine node sets) from the fuzz
// input — correct by construction, so every input exercises the
// engines — and demands that the compiled executors (RunSync at
// several worker counts, RunAsync) stay byte-identical to the
// reference engines (RunSyncRef / RunAsyncRef), including recovery
// metrics, channel counters, perturbation logs and budget-exhaustion
// errors.
//
// Run continuously with
//
//	go test -fuzz FuzzDifferentialSync ./internal/engine
//	go test -fuzz FuzzDifferentialAsync ./internal/engine
//
// Under plain `go test` the seed corpus below runs as regular cases.

import (
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// fuzzReader doles out bytes from the fuzz input, wrapping around when
// it is exhausted (and yielding zeros when it is empty) so every
// decode succeeds on every input.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.pos%len(r.data)]
	r.pos++
	return b
}

// intn returns a value in [1, n] driven by the input.
func (r *fuzzReader) intn(n int) int {
	return int(r.byte())%n + 1
}

// fuzzProtocol decodes a random but well-formed single-query
// nfsm.Protocol: every δ row is non-empty, every move's target state
// and emitted letter are in range, and at least one state is an output
// sink (so some runs converge; many still exhaust MaxRounds, which the
// engines must report identically).
func fuzzProtocol(r *fuzzReader) *nfsm.Protocol {
	nq := r.intn(5) + 1 // 2..6 states
	nl := r.intn(4)     // 1..4 letters
	b := r.intn(3)      // 1..3
	names := make([]string, nq)
	letters := make([]string, nl)
	for q := range names {
		names[q] = "q" + string(rune('0'+q))
	}
	for l := range letters {
		letters[l] = "l" + string(rune('0'+l))
	}
	output := make([]bool, nq)
	output[nq-1] = true // one guaranteed sink
	for q := 0; q < nq-1; q++ {
		output[q] = r.byte()%4 == 0
	}
	query := make([]nfsm.Letter, nq)
	for q := range query {
		query[q] = nfsm.Letter(int(r.byte()) % nl)
	}
	delta := make([][][]nfsm.Move, nq)
	for q := 0; q < nq; q++ {
		delta[q] = make([][]nfsm.Move, b+1)
		for c := 0; c <= b; c++ {
			if output[q] {
				// Output states keep their output status (requirement
				// (M4)-ish sink behaviour keeps convergence detectable).
				delta[q][c] = []nfsm.Move{{Next: nfsm.State(q), Emit: nfsm.NoLetter}}
				continue
			}
			moves := make([]nfsm.Move, r.intn(3))
			for i := range moves {
				next := nfsm.State(int(r.byte()) % nq)
				emit := nfsm.Letter(int(r.byte())%(nl+1)) - 1 // NoLetter..nl-1
				moves[i] = nfsm.Move{Next: next, Emit: emit}
			}
			delta[q][c] = moves
		}
	}
	return &nfsm.Protocol{
		Name:        "fuzz",
		StateNames:  names,
		LetterNames: letters,
		Input:       []nfsm.State{0},
		Output:      output,
		Initial:     nfsm.Letter(int(r.byte()) % nl),
		B:           b,
		Query:       query,
		Delta:       delta,
	}
}

// fuzzGraph decodes a random graph: G(n, p) over a derived stream, with
// a path fallback so tiny inputs still yield edges.
func fuzzGraph(r *fuzzReader, gseed uint64) *graph.Graph {
	n := r.intn(48) + 1 // 2..49
	switch r.byte() % 4 {
	case 0:
		return graph.Path(n)
	case 1:
		return graph.Star(n)
	case 2:
		return graph.GnpConnected(n, float64(r.intn(8))/float64(n), xrand.New(gseed))
	default:
		return graph.Gnp(n, float64(r.intn(8))/float64(n), xrand.New(gseed)) // may be disconnected
	}
}

// fuzzScenario decodes a random but valid dynamic-network scenario:
// liveness preconditions hold (only awake nodes crash, only crashed
// ones restart, only asleep ones wake) and edge flips track the
// evolving edge set, so every decoded scenario passes validation and
// the run exercises the dynamic engines rather than the error path.
// Roughly half of all inputs decode an empty scenario (no batches, no
// asleep nodes), keeping the static path under fuzz too.
func fuzzScenario(r *fuzzReader, g *graph.Graph) *scenario.Scenario {
	n := g.N()
	// 1..4 maps onto the concrete policies (ResetAuto is rejected by
	// the engines and resolved upstream, so it is not fuzzed here).
	sc := &scenario.Scenario{Name: "fuzz", Reset: scenario.ResetPolicy(r.intn(4))}
	const (
		awake byte = iota
		asleep
		crashed
	)
	status := make([]byte, n)
	if r.byte()%2 == 0 {
		for v := 0; v < n; v++ {
			if r.byte()%8 == 0 {
				sc.Asleep = append(sc.Asleep, v)
				status[v] = asleep
			}
		}
	}
	// pick scans for a node with the wanted status, starting at a
	// fuzz-chosen offset so every node is reachable.
	pick := func(want byte) int {
		off := int(r.byte()) % n
		for i := 0; i < n; i++ {
			if v := (off + i) % n; status[v] == want {
				return v
			}
		}
		return -1
	}
	sim := g.Clone()
	at := 0
	for i := int(r.byte()) % 4; i > 0; i-- {
		at += r.intn(6) - 1 // 0..5 rounds after the previous batch
		var muts []graph.Mutation
		for j := r.intn(3); j > 0; j-- {
			switch r.byte() % 4 {
			case 0, 1: // flip a node pair
				if n < 2 {
					continue
				}
				u, v := int(r.byte())%n, int(r.byte())%n
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				m := graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v}
				if sim.HasEdge(u, v) {
					m.Kind = graph.MutRemoveEdge
				}
				if err := m.Apply(sim); err != nil {
					panic("fuzzScenario: " + err.Error())
				}
				muts = append(muts, m)
			case 2: // crash an awake node
				if v := pick(awake); v >= 0 {
					status[v] = crashed
					muts = append(muts, graph.Mutation{Kind: graph.MutCrashNode, U: v})
				}
			case 3: // revive: restart a crashed node or wake an asleep one
				if r.byte()%2 == 0 {
					if v := pick(crashed); v >= 0 {
						status[v] = awake
						muts = append(muts, graph.Mutation{Kind: graph.MutRestartNode, U: v})
					}
				} else if v := pick(asleep); v >= 0 {
					status[v] = awake
					muts = append(muts, graph.Mutation{Kind: graph.MutWakeNode, U: v})
				}
			}
		}
		if len(muts) > 0 {
			sc.Batches = append(sc.Batches, scenario.Batch{At: float64(at), Muts: muts})
		}
	}
	return sc
}

// fuzzChannel decodes a random but valid unreliable-channel
// configuration: a quantized channel.Def (rates off a small grid, so
// the interesting regimes — reliable, moderately lossy, total loss —
// all appear) plus a Byzantine node set over the machine's alphabet.
// Roughly half of all inputs decode no channel at all, keeping the
// reliable fast path under fuzz too.
func fuzzChannel(r *fuzzReader, g *graph.Graph, nl int, seed uint64) (channel.Model, []channel.ByzNode) {
	if r.byte()%2 == 0 {
		return nil, nil
	}
	def := channel.Def{
		Drop:    []float64{0, 0.25, 0.5, 1}[r.byte()%4],
		Dup:     []float64{0, 0.5}[r.byte()%2],
		Reorder: []float64{0, 0.5, 2}[r.byte()%3],
		Corrupt: []float64{0, 0.25}[r.byte()%2],
	}
	if def.Dup > 0 {
		def.DupMax = 2 + int(r.byte())%3 // 2..4
	}
	if err := def.Validate(); err != nil {
		panic("fuzzChannel built an invalid def: " + err.Error())
	}
	var byz []channel.ByzNode
	if r.byte()%2 == 0 {
		for v := 0; v < g.N(); v++ {
			if r.byte()%16 != 0 {
				continue
			}
			switch r.byte() % 3 {
			case 0:
				byz = append(byz, channel.Silent(v))
			case 1:
				byz = append(byz, channel.StuckAt(v, nfsm.Letter(int(r.byte())%nl)))
			default:
				byz = append(byz, channel.RandomBabbler(v, seed+uint64(v)))
			}
		}
	}
	return def.Model(seed), byz
}

func fuzzSeeds(f *testing.F) {
	f.Add(uint64(1), uint64(2), []byte{})
	f.Add(uint64(3), uint64(4), []byte{7, 1, 2, 200, 13, 5, 0, 99, 3})
	f.Add(uint64(42), uint64(9), []byte{255, 254, 253, 1, 0, 128, 64, 32, 16, 8, 4, 2})
	f.Add(uint64(11), uint64(12), []byte("stone age distributed computing"))
	// Overwriter-style re-queue-heavy schedules: byte streams biased
	// toward 4 mod 5 (the async target's adversary selector) with
	// protocols whose silent self-loops and multi-state chains park and
	// replay millions of skipped steps against the budget.
	f.Add(uint64(7), uint64(70), []byte{4, 9, 14, 19, 24, 4, 9, 14, 19, 24, 4, 9, 14})
	f.Add(uint64(8), uint64(80), []byte{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Add(uint64(9), uint64(90), []byte{104, 4, 54, 204, 4, 154, 4, 14, 4, 64, 4, 114, 4})
	f.Add(uint64(10), uint64(100), []byte{49, 99, 149, 199, 249, 44, 94, 144, 194, 244, 39, 89, 139})
	// Channel-heavy inputs: odd first-draw parity at the fuzzChannel
	// decision point plus varied rate bytes, so the seed corpus already
	// exercises loss, duplication, reordering, corruption and Byzantine
	// sets against both engines.
	f.Add(uint64(13), uint64(130), []byte{1, 3, 5, 7, 9, 11, 13, 15, 0, 16, 32, 48, 64, 80, 96})
	f.Add(uint64(14), uint64(140), []byte{2, 1, 3, 1, 2, 1, 0, 0, 16, 0, 16, 0, 16, 0, 16, 0})
	f.Add(uint64(15), uint64(150), []byte{255, 1, 127, 63, 31, 15, 7, 3, 1, 0, 0, 0, 16, 16, 16})
}

// FuzzDifferentialSync fuzzes RunSync (compiled, workers ∈ {1, 3})
// against RunSyncRef.
func FuzzDifferentialSync(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed, gseed uint64, data []byte) {
		r := &fuzzReader{data: data}
		m := fuzzProtocol(r)
		if err := m.Validate(); err != nil {
			t.Fatalf("fuzzProtocol built an invalid machine: %v", err)
		}
		g := fuzzGraph(r, gseed)
		sc := fuzzScenario(r, g)
		model, byz := fuzzChannel(r, g, m.NumLetters(), seed+17)
		sc.Byzantine = byz
		const maxRounds = 64

		ref, refErr := engine.RunSyncRef(m, g, engine.SyncConfig{Seed: seed, MaxRounds: maxRounds, Scenario: sc, Channel: model})

		// Static reliable runs also take two more arms against a
		// reference: the bit-plane backend on packed-eligible machines
		// (it refuses scenarios and channels by design), and the
		// protocol lifted onto the dynamic fallback, the flat kernel's
		// branch that settles nodes (its extra letter is safe only where
		// no Byzantine node or channel can send it).
		static := sc.Empty() && model == nil && len(sc.Byzantine) == 0
		sameStatic := func(arm string, ref *engine.SyncResult, refErr error, run func(workers int) (*engine.SyncResult, error)) {
			for _, workers := range []int{1, 3} {
				got, gotErr := run(workers)
				if refErr != nil || gotErr != nil {
					if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
						t.Fatalf("%s workers=%d error mismatch:\nreference: %v\n%s: %v", arm, workers, refErr, arm, gotErr)
					}
					continue
				}
				if got.Rounds != ref.Rounds || got.Transmissions != ref.Transmissions {
					t.Fatalf("%s workers=%d: (rounds, tx) = (%d, %d), reference (%d, %d)",
						arm, workers, got.Rounds, got.Transmissions, ref.Rounds, ref.Transmissions)
				}
				for v := range ref.States {
					if got.States[v] != ref.States[v] {
						t.Fatalf("%s workers=%d: state of node %d = %d, reference %d",
							arm, workers, v, got.States[v], ref.States[v])
					}
				}
			}
		}
		if code := engine.CompileMachine(m); static && code.PackedEligible() {
			sameStatic("packed", ref, refErr, func(workers int) (*engine.SyncResult, error) {
				return code.Bind(g).RunSync(engine.SyncConfig{Seed: seed, MaxRounds: maxRounds, Workers: workers, Backend: engine.BackendPacked})
			})
		}
		if static {
			dm := engine.DynamicFallback(m)
			dref, drefErr := engine.RunSyncRef(dm, g, engine.SyncConfig{Seed: seed, MaxRounds: maxRounds})
			sameStatic("dynamic", dref, drefErr, func(workers int) (*engine.SyncResult, error) {
				return engine.Compile(dm, g).RunSync(engine.SyncConfig{Seed: seed, MaxRounds: maxRounds, Workers: workers})
			})
		}

		for _, workers := range []int{1, 3} {
			got, gotErr := engine.Compile(m, g).RunSync(engine.SyncConfig{Seed: seed, MaxRounds: maxRounds, Workers: workers, Scenario: sc, Channel: model})
			if refErr != nil || gotErr != nil {
				if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
					t.Fatalf("workers=%d error mismatch:\nreference: %v\ncompiled:  %v", workers, refErr, gotErr)
				}
				continue
			}
			if got.Rounds != ref.Rounds || got.Transmissions != ref.Transmissions || got.RecoveryRounds != ref.RecoveryRounds {
				t.Fatalf("workers=%d: (rounds, tx, recovery) = (%d, %d, %d), reference (%d, %d, %d)",
					workers, got.Rounds, got.Transmissions, got.RecoveryRounds,
					ref.Rounds, ref.Transmissions, ref.RecoveryRounds)
			}
			if got.Dropped != ref.Dropped || got.Duplicated != ref.Duplicated ||
				got.Delayed != ref.Delayed ||
				got.Reordered != ref.Reordered || got.Corrupted != ref.Corrupted ||
				got.Severed != ref.Severed {
				t.Fatalf("workers=%d: channel counters (%d,%d,%d,%d,%d,%d), reference (%d,%d,%d,%d,%d,%d)",
					workers, got.Dropped, got.Duplicated, got.Delayed, got.Reordered, got.Corrupted, got.Severed,
					ref.Dropped, ref.Duplicated, ref.Delayed, ref.Reordered, ref.Corrupted, ref.Severed)
			}
			if len(got.PerturbedAt) != len(ref.PerturbedAt) {
				t.Fatalf("workers=%d: %d perturbations, reference %d",
					workers, len(got.PerturbedAt), len(ref.PerturbedAt))
			}
			for i := range got.PerturbedAt {
				if got.PerturbedAt[i] != ref.PerturbedAt[i] {
					t.Fatalf("workers=%d: perturbation %d at round %d, reference %d",
						workers, i, got.PerturbedAt[i], ref.PerturbedAt[i])
				}
			}
			for v := range ref.States {
				if got.States[v] != ref.States[v] {
					t.Fatalf("workers=%d: state of node %d = %d, reference %d",
						workers, v, got.States[v], ref.States[v])
				}
			}
			if (got.FinalGraph == nil) != (ref.FinalGraph == nil) {
				t.Fatalf("workers=%d: FinalGraph presence diverges", workers)
			}
			if got.FinalGraph != nil {
				if err := got.FinalGraph.Validate(); err != nil {
					t.Fatalf("workers=%d: final graph invalid: %v", workers, err)
				}
				if got.FinalGraph.N() != ref.FinalGraph.N() || got.FinalGraph.M() != ref.FinalGraph.M() {
					t.Fatalf("workers=%d: final graph shape diverges", workers)
				}
			}
		}
	})
}

// FuzzDifferentialAsync fuzzes RunAsync against RunAsyncRef across the
// adversary policies.
func FuzzDifferentialAsync(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed, gseed uint64, data []byte) {
		r := &fuzzReader{data: data}
		m := fuzzProtocol(r)
		if err := m.Validate(); err != nil {
			t.Fatalf("fuzzProtocol built an invalid machine: %v", err)
		}
		g := fuzzGraph(r, gseed)
		sc := fuzzScenario(r, g)
		// One input in four runs the fuzzed protocol through the
		// αβ-hybrid synchronizer instead of raw, and one in four through
		// the voted αβv tier with fuzzed vote/eviction/backoff knobs:
		// the tolerant machines' stall-timer hop chains, re-pulse
		// transmissions, vote rings and eviction decisions must stay
		// bit-identical between ladder and reference under every channel
		// and scenario, exactly like any other machine. Topological
		// scenarios under the voted tier are rejected — the differential
		// wall then checks both executors refuse with the same error.
		var mach nfsm.Machine = m
		var vcfg *engine.VotedConfig
		switch r.byte() % 4 {
		case 0:
			c, cerr := synchro.CompileTolerant(m)
			if cerr != nil {
				t.Fatalf("CompileTolerant rejected a valid fuzz protocol: %v", cerr)
			}
			mach = c
		case 1:
			c, cerr := synchro.CompileVoted(m)
			if cerr != nil {
				t.Fatalf("CompileVoted rejected a valid fuzz protocol: %v", cerr)
			}
			mach = c
			vcfg = &engine.VotedConfig{
				K:             int(r.byte()%3) + 1,
				EvictAfter:    int(r.byte() % 4),
				BackoffCap:    int(r.byte() % 9),
				RePulseSource: c.RePulseSource,
			}
		}
		model, byz := fuzzChannel(r, g, mach.NumLetters(), seed+17)
		sc.Byzantine = byz
		// overwriter joins the pool deliberately: its two-orders-of-
		// magnitude speed skew creates exactly the re-queue storms the
		// ladder queue's parking fast path absorbs, so the differential
		// wall exercises chain virtualization, checkpoint windows and
		// replay under a tight step budget.
		advName := []string{"sync", "uniform", "skew", "drift", "overwriter"}[r.byte()%5]
		const maxSteps = 1 << 12

		mkAdv := func() engine.Adversary { return engine.NamedAdversaries(seed + 5)[advName] }
		// The ladder runs first, so on a synchronizer machine its chain
		// walker meets rows no earlier run built.
		got, gotErr := engine.RunAsync(mach, g, engine.AsyncConfig{Seed: seed, Adversary: mkAdv(), MaxSteps: maxSteps, Scenario: sc, Channel: model, Voted: vcfg})
		ref, refErr := engine.RunAsyncRef(mach, g, engine.AsyncConfig{Seed: seed, Adversary: mkAdv(), MaxSteps: maxSteps, Scenario: sc, Channel: model, Voted: vcfg})
		if refErr != nil || gotErr != nil {
			if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
				t.Fatalf("error mismatch:\nreference: %v\ncompiled:  %v", refErr, gotErr)
			}
			return
		}
		if got.Time != ref.Time || got.TimeUnits != ref.TimeUnits ||
			got.RecoveryTime != ref.RecoveryTime || got.RecoveryTimeUnits != ref.RecoveryTimeUnits {
			t.Fatalf("(Time, TimeUnits, Recovery, RecoveryUnits) = (%v, %v, %v, %v), reference (%v, %v, %v, %v)",
				got.Time, got.TimeUnits, got.RecoveryTime, got.RecoveryTimeUnits,
				ref.Time, ref.TimeUnits, ref.RecoveryTime, ref.RecoveryTimeUnits)
		}
		if len(got.PerturbedAt) != len(ref.PerturbedAt) {
			t.Fatalf("%d perturbations, reference %d", len(got.PerturbedAt), len(ref.PerturbedAt))
		}
		for i := range got.PerturbedAt {
			if got.PerturbedAt[i] != ref.PerturbedAt[i] {
				t.Fatalf("perturbation %d at %v, reference %v", i, got.PerturbedAt[i], ref.PerturbedAt[i])
			}
		}
		if got.Steps != ref.Steps || got.Transmissions != ref.Transmissions || got.Lost != ref.Lost {
			t.Fatalf("(Steps, Tx, Lost) = (%d, %d, %d), reference (%d, %d, %d)",
				got.Steps, got.Transmissions, got.Lost, ref.Steps, ref.Transmissions, ref.Lost)
		}
		if got.Dropped != ref.Dropped || got.Duplicated != ref.Duplicated ||
			got.Delayed != ref.Delayed ||
			got.Reordered != ref.Reordered || got.Corrupted != ref.Corrupted ||
			got.Severed != ref.Severed {
			t.Fatalf("channel counters (%d,%d,%d,%d,%d,%d), reference (%d,%d,%d,%d,%d,%d)",
				got.Dropped, got.Duplicated, got.Delayed, got.Reordered, got.Corrupted, got.Severed,
				ref.Dropped, ref.Duplicated, ref.Delayed, ref.Reordered, ref.Corrupted, ref.Severed)
		}
		if got.Outvoted != ref.Outvoted || got.VotedRejections != ref.VotedRejections ||
			got.RePulses != ref.RePulses || got.RePulseSends != ref.RePulseSends {
			t.Fatalf("voted counters (%d,%d,%d,%d), reference (%d,%d,%d,%d)",
				got.Outvoted, got.VotedRejections, got.RePulses, got.RePulseSends,
				ref.Outvoted, ref.VotedRejections, ref.RePulses, ref.RePulseSends)
		}
		if len(got.EvictedEdges) != len(ref.EvictedEdges) {
			t.Fatalf("%d evicted edges, reference %d", len(got.EvictedEdges), len(ref.EvictedEdges))
		}
		for i := range got.EvictedEdges {
			if got.EvictedEdges[i] != ref.EvictedEdges[i] {
				t.Fatalf("evicted edge %d = %v, reference %v", i, got.EvictedEdges[i], ref.EvictedEdges[i])
			}
		}
		for v := range ref.States {
			if got.States[v] != ref.States[v] {
				t.Fatalf("state of node %d = %d, reference %d", v, got.States[v], ref.States[v])
			}
		}
	})
}
