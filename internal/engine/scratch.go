package engine

import (
	"stoneage/internal/channel"
	"stoneage/internal/nfsm"
)

// Scratch is a reusable per-execution arena: the per-node,
// per-directed-edge and per-worker working state of a run (ports, count
// aggregates, the event queue, shard buffers), which
// Program.RunSyncReusing / Program.RunAsyncReusing reuse so that
// steady-state execution performs no queue or counter allocations. It
// also keeps machine-keyed memos (the per-state record table of
// dynamic-fallback machines, one per worker; worker 0's also serves the
// async loop and the sync output tally), invalidated when the scratch
// moves to a different machine. A Scratch is not safe for concurrent
// use: give each worker goroutine its own, as the campaign runner does.
type Scratch struct {
	rc runCounts

	// as holds the asynchronous executors' working state — the ladder
	// queue, parking arrays — allocated on first async use so purely
	// synchronous callers pay for none of it (the inline bucket table
	// alone is over a kilobyte).
	as *asyncScratch

	// pk holds the bit-plane backend's plane storage, allocated on
	// first packed use for the same reason.
	pk *packedScratch

	// The synchronous round: the shard pool and the flat kernel's
	// emission buffer, per-worker buffers and channel hook.
	emits    []nfsm.Letter
	pool     shardPool
	emitters [][]int32
	dss      []dynScratch
	buckets  [][][]portWrite
	ch       syncChannel

	lastCode *MachineCode
}

// asyncScratch is the asynchronous executors' reusable working state.
type asyncScratch struct {
	lq ladder

	portWriteAt  []float64
	lastDelivery []float64
	stepIndex    []int
	lastStepAt   []float64
	// epochs is the per-node step-event epoch: a crash, or a delivery
	// or batch inside a parked chain, bumps it, invalidating the queued
	// step.
	epochs []uint32

	// Parking state: parked nodes' pending virtual step and whether a
	// chain-end event is in the queue.
	parked      []bool
	virtTime    []float64
	virtIndex   []int
	virtLen     []float64
	pendingReal []bool
	stepBuf     [256]float64

	// Step tie-key origin ranks (see stepKey): each node's current
	// chain origin, and the first rank of each scenario batch's starts.
	rank      []int32
	batchRank []int32
	// started collects the nodes a scenario batch (re)starts; seen
	// marks them while it is deduplicated (all false between batches).
	started []int
	seen    []bool

	// Per-node step-length batch cache (StepBatcher adversaries): node
	// v's lengths for steps stepFrom[v]..stepFrom[v]+stepLenBatch-1.
	stepLens []float64
	stepFrom []int

	// chBuf is the channel-model fate expansion buffer (channel runs
	// only; the zero-model fast path never touches it).
	chBuf []channel.Fate

	// walkCap is the per-node adaptive chain-walk window: opened fully
	// once a checkpoint is reached undisturbed, reset to the minimum
	// when a delivery invalidates the node's precomputed chain —
	// re-walks stay cheap on delivery-heavy nodes while undisturbed
	// chains virtualize in large windows.
	walkCap []int32
}

// async returns the lazily allocated asynchronous working state.
func (s *Scratch) async() *asyncScratch {
	if s.as == nil {
		s.as = &asyncScratch{}
	}
	return s.as
}

// packed returns the lazily allocated bit-plane working state.
func (s *Scratch) packed() *packedScratch {
	if s.pk == nil {
		s.pk = &packedScratch{}
	}
	return s.pk
}

// NewScratch returns an empty scratch arena. All storage is grown on
// first use and retained afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// bind points the scratch at a machine for a run, invalidating
// machine-keyed memos if it changes, and readies worker 0's record
// table.
func (s *Scratch) bind(c *MachineCode) {
	s.dss = perWorker(s.dss, max(1, len(s.dss)))
	if s.lastCode != c {
		s.lastCode = c
		// Idle workers' memos too: a later run may re-enable them unbound.
		all := s.dss[:cap(s.dss)]
		for i := range all {
			all[i].invalidate()
		}
	}
	s.dss[0].init(c)
}

// grow returns a length-n slice reusing buf's storage, every element
// set to fill.
func grow[T any](buf []T, n int, fill T) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}
