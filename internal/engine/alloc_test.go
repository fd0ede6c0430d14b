package engine

// Allocation-regression guards: the compiled synchronous executor and
// the ladder-queue asynchronous core promise (near-)zero steady-state
// allocation when reusing a scratch arena. These tests pin that with
// testing.AllocsPerRun so a regression — a buffer that stopped being
// reused, an event that started escaping, a δ row rebuilt per step —
// fails `make check` instead of silently eroding the perf work. The
// bounds are small integers, not zeros: a run legitimately allocates
// its result struct, the returned state vector, and (async, dynamic
// machines) the occasional lazily interned δ row when a fresh seed
// steers execution into an unvisited corner of the compiled state
// space.

import (
	"errors"
	"runtime"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// allocProtocol is a small multi-letter round protocol that tabulates
// to progFlatMulti (the compiled sync fast path).
func allocProtocol() *nfsm.RoundProtocol {
	return miniRound()
}

func TestAllocsSyncCompiled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(256, 4.0/256, xrand.New(17))
	prog := Compile(allocProtocol(), g)
	scr := NewScratch()
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := prog.RunSyncReusing(SyncConfig{Seed: seed, Workers: 1}, scr); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena
	allocs := testing.AllocsPerRun(20, run)
	// Steady state: the result struct, the returned States vector, and
	// slack for the testing harness itself.
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Fatalf("compiled sync run allocates %.1f objects/op, want ≤ %d", allocs, maxAllocs)
	}
}

// allocsPerRun reports the heap bytes and objects one call of run
// allocates, averaged over reps calls. Unlike testing.AllocsPerRun it
// leaves GOMAXPROCS alone, so a sharded run's worker goroutines are
// measured as they run, and it reports bytes too: a per-run buffer that
// stopped being reused shows up in bytes long before it does in
// object counts.
func allocsPerRun(reps int, run func()) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(reps),
		float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// TestAllocsSyncSharded pins the sharded round's reuse: the shard
// pool's ranges and every per-worker buffer — emitter lists, dynamic
// scratch, route buckets, the packed kernel's clamped-count words —
// live in the Scratch, so a two-worker run on either backend allocates
// what a one-worker run does (the result, the returned States vector)
// plus the run's goroutines and their command channels.
func TestAllocsSyncSharded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 4096
	prog := Compile(allocProtocol(), graph.GnpConnected(n, 4.0/n, xrand.New(17)))
	for _, backend := range []string{BackendFlat, BackendPacked} {
		scr := NewScratch()
		seed := uint64(0)
		run := func() {
			seed++
			if _, err := prog.RunSyncReusing(SyncConfig{Seed: seed, Workers: 2, Backend: backend}, scr); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			run() // grow the arena to its high-water mark
		}
		bytes, objects := allocsPerRun(20, run)
		// The States vector (8 B/node) plus 16 KB of slack for the result,
		// the goroutines and their channels; per-worker buffers rebuilt
		// per run cost about a megabyte at this size.
		const maxBytes = 8*n + 16<<10
		if bytes > maxBytes {
			t.Errorf("%s: two-worker sync run allocates %.0f bytes (%.1f objects)/op, want ≤ %d bytes", backend, bytes, objects, maxBytes)
		}
	}
}

// TestScratchBindInvalidatesIdleWorkers pins the machine-keyed memo
// invalidation of the per-worker dynamic scratch: a run on fewer
// workers leaves the other workers' scratch idle beyond the slice's
// length, and a later run on more workers re-enables it, so moving the
// Scratch to another machine must clear those memos too.
func TestScratchBindInvalidatesIdleWorkers(t *testing.T) {
	scr := NewScratch()
	scr.dss = make([]dynScratch, 3)
	for i := range scr.dss {
		scr.dss[i].out = []int8{1}
	}
	scr.dss = scr.dss[:1]
	scr.bind(CompileMachine(allocProtocol()))
	for i, ds := range scr.dss[:3] {
		if len(ds.out) != 0 {
			t.Fatalf("worker %d keeps the previous machine's output memo after bind", i)
		}
	}
}

// TestAllocsSyncChannel pins the steady state of a sync run with a
// reordering, dropping channel and a crash scenario: the channel
// hook's fate buffer, pending deliveries and per-edge horizon map live
// in the Scratch, and a scenario without topological batches reads the
// bound graph instead of cloning it, so the per-run cost is bounded by
// the scenario's size, never by message volume.
func TestAllocsSyncChannel(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 256
	g := graph.GnpConnected(n, 4.0/n, xrand.New(17))
	prog := Compile(allocProtocol(), g)
	def := scenario.Def{Kind: "crash", Frac: 0.1, At: scenario.Round(3), Every: 4, Reset: "none"}
	sc, err := def.Generate(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	model := channel.Stack{channel.Drop{Rate: 0.1, Seed: 1}, channel.Reorder{Window: 1, Seed: 2}}
	scr := NewScratch()
	seed := uint64(0)
	run := func() {
		seed++
		cfg := SyncConfig{Seed: seed, MaxRounds: 1 << 12, Scenario: sc, Channel: model}
		if _, err := prog.RunSyncReusing(cfg, scr); err != nil && !errors.Is(err, ErrNoConvergence) {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	bytes, objects := allocsPerRun(20, run)
	// Result, States (8 B/node), the liveness table, the perturbation
	// log, and one small slice per restarted node (scenario.Liveness
	// reports restarts as a fresh slice).
	const maxObjects, maxBytes = 64, 8*n + 6<<10
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("channel+crash sync run allocates %.1f objects, %.0f bytes/op, want ≤ %d objects, %d bytes", objects, bytes, maxObjects, maxBytes)
	}
}

func TestAllocsAsyncLadder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(18))
	compiled, err := synchro.CompileRound(allocProtocol())
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(compiled, g)
	scr := NewScratch()
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := prog.RunAsyncReusing(AsyncConfig{Seed: seed, Adversary: UniformRandom{Seed: seed}}, scr); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both the scratch arena and the shared machine's interned
	// state space across several seeds.
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	// Steady state: result + States + a handful of lazily interned δ
	// rows for execution corners fresh seeds keep discovering.
	const maxAllocs = 64
	if allocs > maxAllocs {
		t.Fatalf("async ladder run allocates %.1f objects/op, want ≤ %d", allocs, maxAllocs)
	}
}

// TestAllocsAsyncScenario pins a dynamic α run's steady state: a
// region crash and its restart batch, under a TieFree adversary, so
// the pause chains park and every batch materializes and re-schedules
// them. The origin ranks, the per-batch rank bases and the started
// list live in the Scratch; what a run allocates is bounded by the
// scenario (the graph clone, the liveness table, one slice per restart
// from scenario.Liveness, the perturbation log), never by its steps.
func TestAllocsAsyncScenario(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 64
	g := graph.GnpConnected(n, 4.0/n, xrand.New(18))
	compiled, err := synchro.CompileRound(allocProtocol())
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(compiled, g)
	def := scenario.Def{Kind: "crash", Frac: 0.25, At: scenario.Round(2), Every: 3, Reset: "none"}
	sc, err := def.Generate(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	scr := NewScratch()
	seed := uint64(0)
	run := func() {
		seed++
		cfg := AsyncConfig{Seed: seed, Adversary: UniformRandom{Seed: seed}, Scenario: sc}
		if _, err := prog.RunAsyncReusing(cfg, scr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	// The count the executor measured before scenario runs parked:
	// parking must not add a per-run allocation.
	const maxAllocs = 97
	if allocs > maxAllocs {
		t.Fatalf("async scenario run allocates %.1f objects/op, want ≤ %d", allocs, maxAllocs)
	}
}

// TestAllocsAsyncVoted pins the voted tier's steady state: the decoder
// allocates its per-edge state (rings, stall counters, backoff
// windows) once per run up front, and after that the vote, the strike
// bookkeeping and the K-copy bursts run allocation-free per receipt —
// a regression here (a ring rebuilt per receipt, a burst buffer
// escaping) scales with message volume, not run count, which is
// exactly what this guard converts into a fixed per-run bound.
func TestAllocsAsyncVoted(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(18))
	compiled, err := synchro.CompileRoundVoted(allocProtocol())
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(compiled, g)
	scr := NewScratch()
	vcfg := &VotedConfig{RePulseSource: compiled.RePulseSource}
	seed := uint64(0)
	run := func() {
		seed++
		cfg := AsyncConfig{Seed: seed, Adversary: UniformRandom{Seed: seed}, Voted: vcfg}
		if _, err := prog.RunAsyncReusing(cfg, scr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	// The ladder bound plus the decoder's per-run slice set and the
	// eviction record.
	const maxAllocs = 80
	if allocs > maxAllocs {
		t.Fatalf("async voted run allocates %.1f objects/op, want ≤ %d", allocs, maxAllocs)
	}
}

// TestAllocsAsyncChannelStack pins the hostile path: a voted run under
// a four-layer channel stack. Stack.Apply expands each transmission in
// place in the executor's reused fate buffer, so the per-run bound is
// the voted one; scratch arrays that escaped per transmission (through
// the layers' interface calls) would scale with message volume.
func TestAllocsAsyncChannelStack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(18))
	compiled, err := synchro.CompileRoundVoted(allocProtocol())
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(compiled, g)
	scr := NewScratch()
	vcfg := &VotedConfig{RePulseSource: compiled.RePulseSource}
	model := channel.Stack{
		channel.Drop{Rate: 0.05, Seed: 1},
		channel.Duplicate{Rate: 0.1, MaxCopies: 2, Seed: 2},
		channel.Reorder{Window: 0.5, Seed: 3},
		channel.Corrupt{Rate: 0.02, Seed: 4},
	}
	seed := uint64(0)
	run := func() {
		seed++
		cfg := AsyncConfig{Seed: seed, Adversary: UniformRandom{Seed: seed}, Voted: vcfg, Channel: model, MaxSteps: 1 << 18}
		if _, err := prog.RunAsyncReusing(cfg, scr); err != nil && !errors.Is(err, ErrNoConvergence) {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	// The voted bound: nothing per transmission.
	const maxAllocs = 80
	if allocs > maxAllocs {
		t.Fatalf("async voted run on a channel stack allocates %.1f objects/op, want ≤ %d", allocs, maxAllocs)
	}
}

// TestAllocsLadderOps pins the queue itself: pushes and pops on a
// warmed ladder must not allocate at all, and neither may the pooled
// delivery FIFOs.
func TestAllocsLadderOps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var l ladder
	var d delivPool
	// Pre-draw the offsets so every cycle replays the same sequence and
	// the closure body itself allocates nothing.
	src := xrand.New(19)
	offs := make([]float64, 512)
	for i := range offs {
		offs[i] = float64(src.Uint64()%1024) / 64
	}
	cycle := func() {
		l.reset()
		d.reset(16)
		now := 0.0
		for i := 0; i < 512; i++ {
			l.push(qevent{time: now + offs[i], seq: uint64(i)})
			if i%3 == 0 {
				if e, ok := l.pop(); ok {
					now = e.time
				}
			}
			k := int32(i % 16)
			if d.enqueue(k, now+1, uint64(i), 1) {
				_ = k
			} else if i%5 == 0 {
				d.delivered(k)
			}
		}
		for {
			if _, ok := l.pop(); !ok {
				break
			}
		}
	}
	cycle() // grow all backing storage to the high-water mark
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("warmed ladder/pool cycle allocates %.1f objects/op, want 0", allocs)
	}
}
