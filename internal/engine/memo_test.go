package engine_test

// Tests of the machine-keyed dynamic memo (the per-state record table a
// Scratch keeps for lazily interning machines): moving a scratch across
// machines must never leak one machine's records into another's run,
// and the table must stay compact.

import (
	"errors"
	"reflect"
	"testing"

	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/ssmis"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// TestAsyncScratchAcrossMachines runs α-mis, αβv-mis, α-ssmis and α-mis
// again on one Scratch, with synchronous runs of α-mis interleaved. Each
// result must equal the same run on a fresh scratch: a record of the
// previous machine surviving Scratch.bind would hand a run another
// machine's δ rows, query letters or output bits, and a record the
// synchronous engine left in the table it shares with the asynchronous
// one must read the same to both.
func TestAsyncScratchAcrossMachines(t *testing.T) {
	compile := func(c func(*nfsm.RoundProtocol) (*synchro.Compiled, error), p *nfsm.RoundProtocol) *synchro.Compiled {
		m, err := c(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	alphaMIS := compile(synchro.CompileRound, mis.Protocol())
	votedMIS := compile(synchro.CompileRoundVoted, mis.Protocol())
	alphaSSMIS := compile(synchro.CompileRound, ssmis.Protocol())
	g := graph.GnpConnected(32, 4.0/32, xrand.New(3))
	alphaProg := engine.Compile(alphaMIS, g)
	runs := []struct {
		name  string
		prog  *engine.Program
		voted *engine.VotedConfig
		sync  bool
	}{
		{"alpha-mis-sync", alphaProg, nil, true},
		{"alpha-mis", alphaProg, nil, false},
		{"alpha-mis-sync-again", alphaProg, nil, true},
		{"voted-mis", engine.Compile(votedMIS, g), &engine.VotedConfig{RePulseSource: votedMIS.RePulseSource}, false},
		{"alpha-ssmis", engine.Compile(alphaSSMIS, g), nil, false},
		{"alpha-mis-again", alphaProg, nil, false},
		{"alpha-mis-sync-last", alphaProg, nil, true},
	}
	scr := engine.NewScratch()
	for i, r := range runs {
		var got, want any
		var gotErr, wantErr error
		if r.sync {
			cfg := engine.SyncConfig{Seed: uint64(11 + i)}
			got, gotErr = r.prog.RunSyncReusing(cfg, scr)
			want, wantErr = r.prog.RunSync(cfg)
		} else {
			cfg := engine.AsyncConfig{
				Seed: uint64(11 + i), Adversary: engine.UniformRandom{Seed: uint64(5 + i)},
				Voted: r.voted, MaxSteps: 1 << 22,
			}
			got, gotErr = r.prog.RunAsyncReusing(cfg, scr)
			want, wantErr = r.prog.RunAsync(cfg)
		}
		if !errors.Is(gotErr, engine.ErrNoConvergence) && gotErr != nil {
			t.Fatalf("%s: %v", r.name, gotErr)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: reused scratch error %v, fresh scratch error %v", r.name, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused-scratch result differs from a fresh scratch's:\n%+v\n%+v", r.name, got, want)
		}
	}
}

// dynMemoBudget bounds the dynamic memo per interned state at b=1: a
// 24-byte record block (a header word and two row words) plus the
// table's growth slack and the side list of multi-move rows. A memo
// kept beside the table, or a wider block, breaks it.
const dynMemoBudget = 32

// TestDynMemoFootprint pins the dynamic memo's size: after an αβv-mis
// run at n=64, the bytes it holds per interned state stay within
// dynMemoBudget.
func TestDynMemoFootprint(t *testing.T) {
	m, err := synchro.CompileRoundVoted(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	if m.Bound() != 1 {
		t.Fatalf("mis bound %d, the budget assumes b=1", m.Bound())
	}
	g := graph.GnpConnected(64, 4.0/64, xrand.New(1))
	scr := engine.NewScratch()
	cfg := engine.AsyncConfig{Seed: 1, Adversary: engine.UniformRandom{Seed: 1},
		Voted: &engine.VotedConfig{RePulseSource: m.RePulseSource}}
	if _, err := engine.Compile(m, g).RunAsyncReusing(cfg, scr); err != nil {
		t.Fatal(err)
	}
	states := m.NumStates()
	got := engine.DynMemoBytes(scr)
	per := float64(got) / float64(states)
	t.Logf("%d states, %d bytes (%.1f B/state)", states, got, per)
	if per > dynMemoBudget {
		t.Errorf("dynamic memo holds %d bytes for %d states (%.1f B/state), budget %d B/state", got, states, per, dynMemoBudget)
	}
}

// builtCounter wraps a compiled machine and counts its BuiltMoves calls
// per (state, clamped count of the state's query letter).
type builtCounter struct {
	*synchro.Compiled
	calls  map[[2]int]int
	misses int
}

func (m *builtCounter) BuiltMoves(q nfsm.State, counts []nfsm.Count) ([]nfsm.Move, bool) {
	row, built := m.Compiled.BuiltMoves(q, counts)
	m.calls[[2]int{int(q), int(counts[m.QueryLetter(q)])}]++
	if !built {
		m.misses++
	}
	return row, built
}

// TestWalkMissesMemoized pins that the chain walker asks a lazily
// interning machine about each δ row at most once per Scratch: a built
// row's word and the mark of a row the machine has not built yet both
// stay in the record table, so a later walk that reaches the same
// unbuilt row makes no new call. The wrapped αβv-mis run under the
// stacked channel must still equal the same run of the bare machine.
func TestWalkMissesMemoized(t *testing.T) {
	compile := func() *synchro.Compiled {
		m, err := synchro.CompileRoundVoted(mis.Protocol())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bare, counted := compile(), &builtCounter{Compiled: compile(), calls: map[[2]int]int{}}
	g := graph.GnpConnected(64, 4.0/64, xrand.New(5))
	run := func(m nfsm.Machine, rp func(nfsm.State) bool) *engine.AsyncResult {
		cfg := engine.AsyncConfig{
			Seed: 1, Adversary: engine.UniformRandom{Seed: 2}, MaxSteps: 1 << 22,
			Channel: stackedChannel(3), Voted: &engine.VotedConfig{RePulseSource: rp},
		}
		res, err := engine.Compile(m, g).RunAsyncReusing(cfg, engine.NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(bare, bare.RePulseSource)
	got := run(counted, counted.RePulseSource)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counted machine's run differs from the bare machine's:\n%+v\n%+v", got, want)
	}
	if counted.misses == 0 {
		t.Fatal("no walk reached an unbuilt row; the run exercises nothing")
	}
	repeats := 0
	for _, n := range counted.calls {
		repeats += n - 1
	}
	t.Logf("%d rows asked, %d unbuilt, %d repeated asks", len(counted.calls), counted.misses, repeats)
	if repeats > 0 {
		t.Errorf("%d BuiltMoves calls repeat an earlier (state, count) of the same scratch", repeats)
	}
}
