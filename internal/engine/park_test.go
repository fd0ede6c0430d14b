package engine_test

// Parking under channel and voted runs: the αβ and αβv tiers' stall
// timers walk long silent chains while a node waits for its
// neighbors, and the executor parks them exactly as it parks α pause
// chains. These tests pin that parking engages on the tiers' hot
// paths (so the fast path cannot be switched off unnoticed), that an
// observer — which materializes every step — changes no result, and
// that the receipts landing inside a parked chain, committing or not,
// leave the run bit-identical to the reference engine.

import (
	"fmt"
	"reflect"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// stackedChannel is the hostile stack: duplication, loss, reordering
// and corruption at once.
func stackedChannel(seed uint64) channel.Model {
	return channel.Def{Drop: 0.1, Dup: 0.2, Reorder: 1, Corrupt: 0.02}.Model(seed)
}

// TestParkingEngagesOnChannelAndVotedRuns pins that αβ mis under 10%
// drop and αβv mis under the stacked channel materialize fewer than
// half of their steps, and that the same runs with an observer (every
// step materialized) return equal results. Each run gets its own
// compilation, so the interned state counts compare too: the chain
// walker must not intern states ahead of the run.
func TestParkingEngagesOnChannelAndVotedRuns(t *testing.T) {
	tolerant := func() *synchro.Compiled {
		c, err := synchro.CompileRoundTolerant(mis.Protocol())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	voted := func() *synchro.Compiled {
		c, err := synchro.CompileRoundVoted(mis.Protocol())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	g := graph.GnpConnected(64, 4.0/64, xrand.New(5))
	cases := []struct {
		name    string
		compile func() *synchro.Compiled
		cfg     func(c *synchro.Compiled) engine.AsyncConfig
	}{
		{"tolerant/drop-10", tolerant, func(*synchro.Compiled) engine.AsyncConfig {
			return engine.AsyncConfig{Channel: channel.Drop{Rate: 0.1, Seed: 3}}
		}},
		{"voted/stack", voted, func(c *synchro.Compiled) engine.AsyncConfig {
			return engine.AsyncConfig{
				Channel: stackedChannel(3),
				Voted:   &engine.VotedConfig{RePulseSource: c.RePulseSource},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(observer func(float64, int, int, nfsm.State)) (*engine.AsyncResult, int64, int) {
				m := tc.compile()
				cfg := tc.cfg(m)
				cfg.Seed = 1
				cfg.Adversary = engine.UniformRandom{Seed: 2}
				cfg.MaxSteps = 1 << 22
				cfg.Observer = observer
				scr := engine.NewScratch()
				res, err := engine.Compile(m, g).RunAsyncReusing(cfg, scr)
				if err != nil {
					t.Fatal(err)
				}
				return res, engine.SteppedEvents(scr), m.NumStates()
			}
			parked, stepped, parkedStates := run(nil)
			if 2*stepped >= parked.Steps {
				t.Fatalf("materialized %d of %d steps, want fewer than half", stepped, parked.Steps)
			}
			observed := int64(0)
			full, stepped, fullStates := run(func(float64, int, int, nfsm.State) { observed++ })
			if observed != full.Steps || stepped != full.Steps {
				t.Fatalf("observer saw %d steps, %d materialized, want all %d", observed, stepped, full.Steps)
			}
			sameAsyncResult(t, "observed", full, parked)
			if parkedStates != fullStates {
				t.Errorf("parked run interned %d states, materialized run %d", parkedStates, fullStates)
			}
		})
	}
}

// TestDifferentialParkedReceipts compares runs whose receipts land on
// receivers parked mid-chain with the reference engine, every result
// field. In these runs most steps are skipped (each case checks it),
// so most receipts arrive while their receiver sits inside a parked
// silent chain: receipts that commit nothing (corrupt copies outvoted,
// confirming duplicates, windows without a winner) must leave the
// chain in place, and a commit must replay it up to the receipt
// before Lost reads the receiver's last step, then re-decide it.
func TestDifferentialParkedReceipts(t *testing.T) {
	voted, err := synchro.CompileRoundVoted(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	tolerant, err := synchro.CompileRoundTolerant(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(32, 4.0/32, xrand.New(9))
	vcfg := func(k int) *engine.VotedConfig {
		return &engine.VotedConfig{K: k, RePulseSource: voted.RePulseSource}
	}
	cases := []struct {
		name string
		m    nfsm.Machine
		ch   channel.Model
		v    *engine.VotedConfig
		// want reports whether the run reached what the case is about.
		want func(r *engine.AsyncResult) bool
	}{
		// Every copy duplicated: the extra copies confirm the winner.
		{"voted/confirming-duplicates", voted, channel.Duplicate{Rate: 1, MaxCopies: 3, Seed: 4}, vcfg(2),
			func(r *engine.AsyncResult) bool { return r.Duplicated > 0 }},
		// Corrupt copies outvoted, and windows left without a winner.
		{"voted/outvoted-corruption", voted, channel.Corrupt{Rate: 0.3, Seed: 5}, vcfg(3),
			func(r *engine.AsyncResult) bool { return r.Outvoted > 0 && r.VotedRejections > 0 }},
		// K=1: every receipt commits, so every landing re-decides.
		{"voted/k1-commits", voted, channel.Drop{Rate: 0.1, Seed: 6}, vcfg(1),
			func(r *engine.AsyncResult) bool { return r.Dropped > 0 }},
		{"voted/stack", voted, stackedChannel(7), vcfg(2),
			func(r *engine.AsyncResult) bool { return r.Outvoted > 0 && r.Duplicated > 0 }},
		{"tolerant/stack", tolerant, stackedChannel(8), nil,
			func(r *engine.AsyncResult) bool { return r.Reordered > 0 && r.Lost > 0 }},
	}
	for _, tc := range cases {
		for ai, advName := range []string{"uniform", "skew", "overwriter"} {
			seed := uint64(1 + ai)
			t.Run(fmt.Sprintf("%s/%s", tc.name, advName), func(t *testing.T) {
				t.Parallel()
				cfg := func() engine.AsyncConfig {
					return engine.AsyncConfig{
						Seed:      seed,
						Adversary: engine.NamedAdversaries(seed + 10)[advName],
						MaxSteps:  1 << 20,
						Channel:   tc.ch,
						Voted:     tc.v,
					}
				}
				ref, refErr := engine.RunAsyncRef(tc.m, g, cfg())
				scr := engine.NewScratch()
				got, gotErr := engine.Compile(tc.m, g).RunAsyncReusing(cfg(), scr)
				if refErr != nil || gotErr != nil {
					if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
						t.Fatalf("error mismatch:\nreference: %v\nladder:    %v", refErr, gotErr)
					}
					return
				}
				sameAsyncResult(t, "ladder", got, ref)
				if 2*engine.SteppedEvents(scr) >= got.Steps {
					t.Errorf("materialized %d of %d steps: the run barely parks", engine.SteppedEvents(scr), got.Steps)
				}
				if !tc.want(got) {
					t.Errorf("run did not exercise the case: %+v", *got)
				}
			})
		}
	}
}

// sameAsyncResult fails unless got equals want in every field (final
// graphs by edge set).
func sameAsyncResult(t *testing.T, name string, got, want *engine.AsyncResult) {
	t.Helper()
	if !sameGraph(got.FinalGraph, want.FinalGraph) {
		t.Errorf("%s: final graphs diverge", name)
	}
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < gv.NumField(); i++ {
		if gv.Type().Field(i).Name == "FinalGraph" {
			continue
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s %s = %v, reference %v", name, gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}

// derivedHopsBudget bounds the chain-walk derivations per step of a
// parked run. The walk logs every hop it derives, replay reads the log
// and derives nothing, and a delivery resumes the walk at the first
// state that observes a count it moved: these runs derive 1.00 (α) and
// 1.28 (αβv, whose deliveries cut long stall chains) per step. Deriving
// replayed hops again and re-walking the whole chain on every delivery
// derives 1.54 and 2.25.
const derivedHopsBudget = 1.4

// TestParkedStepsDerivedOnce bounds the derivations per step on an α-mis
// run on gnp(64, 4/64) under UniformRandom and an αβv-mis run under the
// stacked channel.
func TestParkedStepsDerivedOnce(t *testing.T) {
	alpha, err := synchro.CompileRound(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	voted, err := synchro.CompileRoundVoted(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(64, 4.0/64, xrand.New(5))
	cases := []struct {
		name string
		m    nfsm.Machine
		cfg  engine.AsyncConfig
	}{
		{"alpha", alpha, engine.AsyncConfig{}},
		{"voted/stack", voted, engine.AsyncConfig{
			Channel: stackedChannel(3),
			Voted:   &engine.VotedConfig{RePulseSource: voted.RePulseSource},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 1
			cfg.Adversary = engine.UniformRandom{Seed: 2}
			cfg.MaxSteps = 1 << 22
			scr := engine.NewScratch()
			res, err := engine.Compile(tc.m, g).RunAsyncReusing(cfg, scr)
			if err != nil {
				t.Fatal(err)
			}
			derived := engine.DerivedHops(scr)
			perStep := float64(derived) / float64(res.Steps)
			t.Logf("%d derivations for %d steps (%d materialized): %.3f per step", derived, res.Steps, engine.SteppedEvents(scr), perStep)
			if perStep > derivedHopsBudget {
				t.Errorf("%d derivations for %d steps = %.3f per step, budget %.2f", derived, res.Steps, perStep, derivedHopsBudget)
			}
		})
	}
}

// asyncFootprintBudget is the regression ceiling for the asynchronous
// working state, in bytes per node, after an α-mis run on a sparse
// graph. The hop log (a ring of 256 successor states and step lengths
// per node) takes 3 KB/node and the step-length window 256 B/node; the
// event queue's buckets, the per-node parking fields and the per-edge
// port times add about 1.1 KB/node (4.3 KB/node in all at n=1024). A
// hop log entry widened to 16 bytes, or a second per-node ring, breaks
// it.
const asyncFootprintBudget = 5120

// TestAsyncFootprint pins the bytes per node the asynchronous working
// state retains after an α-mis run at n=1024.
func TestAsyncFootprint(t *testing.T) {
	m, err := synchro.CompileRound(mis.Protocol())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	g := graph.GnpConnected(n, 4.0/n, xrand.New(1))
	scr := engine.NewScratch()
	cfg := engine.AsyncConfig{Seed: 1, Adversary: engine.UniformRandom{Seed: 1}}
	if _, err := engine.Compile(m, g).RunAsyncReusing(cfg, scr); err != nil {
		t.Fatal(err)
	}
	got := engine.AsyncBytes(scr)
	per := float64(got) / n
	t.Logf("%d bytes (%.0f B/node)", got, per)
	if per > asyncFootprintBudget {
		t.Errorf("asynchronous working state = %d bytes (%.0f B/node), budget %d B/node", got, per, asyncFootprintBudget)
	}
}
