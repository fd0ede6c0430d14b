package engine

import (
	"fmt"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// SyncConfig parameterizes a locally synchronous run.
type SyncConfig struct {
	// Seed keys every random choice of the run.
	Seed uint64
	// MaxRounds aborts the run with ErrNoConvergence when exceeded.
	// Zero selects a generous default of 1<<20 rounds.
	MaxRounds int
	// Init optionally assigns per-node initial states (length n). Nil
	// starts every node in the machine's default input state. This is
	// how per-node input (Section 2, "Input and Output") is delivered,
	// e.g. the tape contents of the Lemma 6.2 rLBA simulation.
	Init []nfsm.State
	// Observer, when non-nil, is invoked after every round with the
	// round index and the current state vector (not a copy; observers
	// must not retain or modify it). Used by the analysis
	// instrumentation of Sections 4 and 5.
	Observer func(round int, states []nfsm.State)
	// Workers shards each round's compute and deliver phases over one
	// pool of goroutines, for either backend. Zero selects GOMAXPROCS,
	// scaled down so every worker keeps at least minShard nodes; an
	// explicit positive value is used as given. The result is
	// bit-identical for every worker count: every node's move is drawn
	// from the node-indexed coin, independent of evaluation order.
	// Machines whose transition is not known to be pure (the
	// lazily-interning synchro compilers) run on one worker, and so do
	// scenario and channel runs: Workers is ignored there.
	Workers int
	// Scenario, when non-nil and non-empty, makes the run dynamic: the
	// round loop applies each mutation batch after round int(Batch.At)
	// completes, carries surviving node and port state across topology
	// re-binds, resets perturbed nodes per the scenario's reset policy
	// (which must be concrete — the protocol layer resolves ResetAuto),
	// and reports recovery metrics. It needs a graph-bound program
	// (Bind). A nil or empty scenario is the static run.
	Scenario *scenario.Scenario
	// Channel, when non-nil, expands every per-neighbor copy of a
	// transmission through an unreliable-link model into zero or more
	// delivered fates (dropped, duplicated, corrupted, or — for a
	// reordering model — delayed by whole rounds; see package channel).
	// A channel alone keeps the run static, on either binding.
	Channel channel.Model
	// Backend selects the round loop's kernel. Empty means automatic:
	// the bit-plane kernel (packed.go) when the machine is
	// packed-eligible, the run has neither Scenario nor Channel and the
	// graph is large enough to profit; the flat kernel otherwise.
	// BackendFlat forces the flat kernel; BackendPacked forces the
	// packed one and errors when the machine or run shape does not
	// support it. The kernels are bit-identical on the runs they share.
	Backend string
}

// SyncResult reports a completed synchronous run.
type SyncResult struct {
	// Rounds is the number of rounds until the first output
	// configuration (for a dynamic run: the first output configuration
	// of the awake nodes after the last mutation batch).
	Rounds int
	// Transmissions counts non-ε letter transmissions.
	Transmissions int64
	// States is the final state of every node.
	States []nfsm.State

	// PerturbedAt lists, for a dynamic run, the round each mutation
	// batch was applied after (batch i applied between rounds
	// PerturbedAt[i] and PerturbedAt[i]+1). Nil for static runs.
	PerturbedAt []int
	// RecoveryRounds is the recovery-time metric of a dynamic run: the
	// rounds from the last perturbation to the final valid output
	// configuration (0 when nothing was perturbed).
	RecoveryRounds int
	// FinalGraph is the post-mutation topology of a dynamic run — the
	// graph any output validator must be checked against (the bound
	// graph itself when no batch changed the topology; treat it as
	// read-only). Nil for static runs.
	FinalGraph *graph.Graph

	// Channel-model bookkeeping (all zero when no model is configured).
	// Dropped, Duplicated and Corrupted count the model's per-copy
	// decisions; Delayed counts copies assigned a non-zero extra delay
	// (attempted reorders); Reordered counts deliveries scheduled for an
	// earlier round than an already-scheduled one on the same directed
	// edge (the attempts that materialized); Severed counts delayed
	// deliveries whose edge was removed before their due round.
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Reordered  int64
	Corrupted  int64
	Severed    int64
}

// RunSync executes machine m on graph g in a locally synchronous
// environment: in every round each node observes the clamped counts over
// its ports, applies δ, and all transmissions become visible in the
// neighbors' ports at the start of the next round. This realizes
// synchronization properties (S1) and (S2) exactly.
//
// RunSync executes through the compiled fast path: it lowers m against g
// with Compile and runs the compiled program. Callers that execute the same
// machine on the same graph repeatedly should Compile once and invoke
// Program.RunSync directly to amortize the lowering. The original
// interpreting engine survives as RunSyncRef; the two are bit-identical
// (TestDifferentialSyncEngines).
func RunSync(m nfsm.Machine, g *graph.Graph, cfg SyncConfig) (*SyncResult, error) {
	return Compile(m, g).RunSync(cfg)
}

func machineName(m nfsm.Machine) string {
	switch p := m.(type) {
	case *nfsm.Protocol:
		return p.Name
	case *nfsm.RoundProtocol:
		return p.Name
	default:
		return fmt.Sprintf("%T", m)
	}
}
