package engine

import (
	"math/bits"

	"stoneage/internal/nfsm"
)

// This file is the bit-plane kernel of the synchronous round loop. The
// flat kernel spends a word per node state and per directed-edge port,
// which at n = 10⁶ is bandwidth-bound long before it is compute-bound.
// The paper's protocols are constant-space nFSMs (MIS has 3 states,
// counters clamp at b ≤ 3), so the packed kernel stores the mutable run
// state as structure-of-arrays bit-planes, 64 nodes per word: state
// planes, last-emission planes (every out-port of v holds v's last
// non-ε emission, so the 2m-entry port array collapses to a per-node
// letter), exact-count planes per letter (ripple-carry increments,
// clamped word-parallel by threshold masks), and a stability plane that
// skips nodes whose next evaluation is provably a lone silent self-loop
// (DESIGN.md, "Bit-plane execution"). nfsm.PickMove is a stateless hash
// of (seed, node, round) and a skipped node's step is a no-op, so the
// kernel is bit-identical to the flat one at every worker count
// (TestDifferentialPackedSync, the packed arm of FuzzDifferentialSync).

// Backend names accepted by SyncConfig.Backend.
const (
	// BackendFlat forces the word-per-node flat kernel.
	BackendFlat = "flat"
	// BackendPacked forces the bit-plane kernel; it errors on machines
	// that are not packed-eligible and on scenario or channel runs.
	BackendPacked = "packed"
)

// packedAutoThreshold is the node count at which an empty
// SyncConfig.Backend auto-selects the packed backend for an eligible
// machine. Below it the flat kernel's per-node simplicity wins;
// above it the plane layout's footprint (a few bytes per node) does.
const packedAutoThreshold = 1 << 16

// maxPackedB is the largest one-two-many bound the word-parallel
// threshold clamp covers (count ∈ {0, 1, 2, ≥3} in two bit-planes).
const maxPackedB = 3

// packedCode is the packed lowering of a MachineCode: plane widths and
// the settled-row bitset the stability scheduler tests against. Built
// lazily once per MachineCode, so the protocol registry's compiled-
// machine cache shares one packedCode process-wide.
type packedCode struct {
	ok bool
	wQ int // state plane count, ⌈log₂ nq⌉
	wE int // last-emission plane count, ⌈log₂ nl⌉
	// settled is a bitset over δ-table entries: entry e is set when its
	// row is a lone silent self-loop, i.e. evaluating it changes
	// nothing. A node whose upcoming (state, clamped counts) maps to a
	// settled entry is skipped until a delivery disturbs its counts.
	settled []uint64
}

// packedCode returns the lazily built packed lowering.
func (c *MachineCode) packedCode() *packedCode {
	c.packOnce.Do(func() { c.pack = buildPackedCode(c) })
	return c.pack
}

// PackedEligible reports whether the machine can run on the bit-plane
// backend: a flat-tabulated parallel machine with b ≤ 3 and state and
// letter spaces that fit the plane encodings. All of the paper's
// flat-compiled protocols qualify; dynamic-fallback machines (the
// synchro compilers, the coloring protocol's untabulatable domain) do
// not and stay on the flat kernel.
func (c *MachineCode) PackedEligible() bool { return c.packedCode().ok }

func buildPackedCode(c *MachineCode) *packedCode {
	pc := &packedCode{}
	if c.kind != progFlat || !c.parallel {
		return pc
	}
	if c.b < 1 || c.b > maxPackedB || c.nq < 1 || c.nq > 1<<15 || c.nl < 1 || c.nl > 1<<15 {
		return pc
	}
	pc.wQ = planeWidth(c.nq)
	pc.wE = planeWidth(c.nl)
	pc.settled = make([]uint64, (len(c.delta)+63)/64)
	for e, row := range c.delta {
		q := nfsm.State(e / c.pdim)
		if len(row) > 0 && settles(q, row[0], len(row)) {
			pc.settled[e>>6] |= 1 << (uint(e) & 63)
		}
	}
	pc.ok = true
	return pc
}

// planeWidth returns the number of bit-planes needed for values in
// [0, k).
func planeWidth(k int) int {
	if k <= 1 {
		return 1
	}
	return bits.Len(uint(k - 1))
}

// packedEmit records one changed emission: a last-emission letter moved
// old → nw, so one count of every neighbor moves with it. In an emitter
// list v is the emitter; in a route bucket it is the neighbor whose
// counts change.
type packedEmit struct {
	v       int32
	old, nw int16
}

// packedScratch is the reusable bit-plane run state. All planes live in
// one backing slice so the footprint is a single allocation and easy to
// account (footprintBytes, guarded by TestPackedFootprint).
type packedScratch struct {
	nw int // words per plane, ⌈n/64⌉
	nl int
	wQ int
	wE int
	wC int // count planes per letter, ⌈log₂(Δ+1)⌉ for the bound CSR

	planeBuf []uint64
	stP      [][]uint64 // state planes
	leP      [][]uint64 // last-emission planes
	cnt      [][]uint64 // count planes; letter l plane j at l*wC+j
	stable   []uint64
	tail     uint64 // valid-lane mask of the last word

	// Per-worker buffers: changed-emission lists, per-letter clamped-count
	// words, and route buckets (see routeBuckets).
	emits    [][]packedEmit
	cw0, cw1 [][]uint64
	buckets  [][][]packedEmit
}

// footprintBytes reports the bytes the packed run state retains — the
// bytes-per-node regression guard reads it.
func (ps *packedScratch) footprintBytes() int {
	words := cap(ps.planeBuf)
	for w := range ps.emits {
		words += cap(ps.cw0[w]) + cap(ps.cw1[w]) + cap(ps.emits[w])
		for _, b := range ps.buckets[w] {
			words += cap(b)
		}
	}
	return 8 * words
}

// reset (re)initializes the planes for a run of p on its bound CSR with
// the given initial states, reusing the backing storage.
func (ps *packedScratch) reset(p *Program, pc *packedCode, states []nfsm.State) {
	csr := p.csr
	n := csr.N()
	nw := (n + 63) / 64
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := int(csr.NbrOff[v+1] - csr.NbrOff[v]); d > maxDeg {
			maxDeg = d
		}
	}
	wC := bits.Len(uint(maxDeg))
	if wC < 1 {
		wC = 1
	}
	ps.nw, ps.nl, ps.wQ, ps.wE, ps.wC = nw, p.nl, pc.wQ, pc.wE, wC

	planes := pc.wQ + pc.wE + p.nl*wC + 1
	need := planes * nw
	if cap(ps.planeBuf) < need {
		ps.planeBuf = make([]uint64, need)
	}
	buf := ps.planeBuf[:need]
	for i := range buf {
		buf[i] = 0
	}
	slice := func(k int) [][]uint64 {
		out := make([][]uint64, k)
		for i := range out {
			out[i] = buf[:nw:nw]
			buf = buf[nw:]
		}
		return out
	}
	ps.stP = slice(pc.wQ)
	ps.leP = slice(pc.wE)
	ps.cnt = slice(p.nl * wC)
	ps.stable = buf[:nw:nw]

	ps.tail = ^uint64(0)
	if r := n & 63; r != 0 {
		ps.tail = 1<<uint(r) - 1
	}
	if nw == 0 {
		ps.tail = 0
	}

	for v, q := range states {
		w, bit := v>>6, uint64(1)<<(uint(v)&63)
		for j := 0; j < pc.wQ; j++ {
			if int(q)>>j&1 == 1 {
				ps.stP[j][w] |= bit
			}
		}
	}
	// Every port starts holding the initial letter: last-emission planes
	// broadcast it, and each node's count block is deg(v) at that letter.
	init := int(p.initial)
	for j := 0; j < pc.wE; j++ {
		if init>>j&1 == 1 {
			pl := ps.leP[j]
			for w := range pl {
				pl[w] = ^uint64(0)
			}
		}
	}
	for v := 0; v < n; v++ {
		deg := int(csr.NbrOff[v+1] - csr.NbrOff[v])
		if deg == 0 {
			continue
		}
		w, bit := v>>6, uint64(1)<<(uint(v)&63)
		for j := 0; j < wC; j++ {
			if deg>>j&1 == 1 {
				ps.cnt[init*wC+j][w] |= bit
			}
		}
	}
}

// countInc adds one to node u's count of letter l (single-lane
// ripple-carry across the letter's planes).
func (ps *packedScratch) countInc(l int, u int32) {
	w, carry := int(u>>6), uint64(1)<<(uint(u)&63)
	base := l * ps.wC
	for j := 0; j < ps.wC && carry != 0; j++ {
		pl := ps.cnt[base+j]
		old := pl[w]
		pl[w] = old ^ carry
		carry &= old
	}
}

// countDec subtracts one from node u's count of letter l.
func (ps *packedScratch) countDec(l int, u int32) {
	w, borrow := int(u>>6), uint64(1)<<(uint(u)&63)
	base := l * ps.wC
	for j := 0; j < ps.wC && borrow != 0; j++ {
		pl := ps.cnt[base+j]
		old := pl[w]
		pl[w] = old ^ borrow
		borrow &^= old
	}
}

// decodeStates gathers the state planes back into a state vector.
func (ps *packedScratch) decodeStates(states []nfsm.State) {
	for v := range states {
		w, i := v>>6, uint(v)&63
		q := 0
		for j := 0; j < ps.wQ; j++ {
			q |= int(ps.stP[j][w]>>i&1) << j
		}
		states[v] = nfsm.State(q)
	}
}

// packedKernel is the bit-plane kernel of the round loop. Its units are
// plane words, so two workers never read-modify-write the same word,
// and count updates are routed to the shard owning the destination
// word: the flat kernel's ownership discipline lifted to 64-node words.
type packedKernel struct {
	p       *Program
	pc      *packedCode
	ps      *packedScratch
	seed    uint64
	shardOf []int32 // plane word → owning shard (sharded runs only)
}

func (e *packedKernel) shard(_ *Scratch, pool *shardPool) {
	ps, w := e.ps, len(pool.lo)
	e.shardOf = pool.shardOf
	ps.emits = perWorker(ps.emits, w)
	ps.cw0, ps.cw1 = perWorker(ps.cw0, w), perWorker(ps.cw1, w)
	for i := 0; i < w; i++ {
		ps.cw0[i], ps.cw1[i] = grow(ps.cw0[i], ps.nl, 0), grow(ps.cw1[i], ps.nl, 0)
	}
	ps.buckets = routeBuckets(ps.buckets, w)
}

func (e *packedKernel) decode(states []nfsm.State) { e.ps.decodeStates(states) }

// compute evaluates every live node of the word range [loW, hiW). Per
// live word it derives every letter's clamped count for all 64 lanes by
// threshold masks over the count planes (ge1 = any plane set; ge2 = any
// plane ≥ 1 set; ge3 = any plane ≥ 2 set, or planes 1 and 0 both set),
// then walks the live lanes: the same δ rows and PickMove coin as the
// flat kernel, the state change applied to the planes, a changed
// emission recorded. A node whose upcoming observation (counts are
// frozen during compute) hits the settled bitset sets its stability
// bit and is skipped until a delivery disturbs its counts.
func (e *packedKernel) compute(loW, hiW, round, worker int) shardResult {
	p, pc, ps := e.p, e.pc, e.ps
	seed := e.seed
	mask := p.outMask
	emitters := ps.emits[worker][:0]
	defer func() { ps.emits[worker] = emitters }()
	c0, c1 := ps.cw0[worker], ps.cw1[worker]
	var tx int64
	var outDelta int
	live := false
	nl, b := ps.nl, p.b
	wC, wQ, wE := ps.wC, ps.wQ, ps.wE

	for w := loW; w < hiW; w++ {
		act := ^ps.stable[w]
		if w == ps.nw-1 {
			act &= ps.tail
		}
		if act == 0 {
			continue
		}
		live = true
		// Word-parallel clamped counts for every letter.
		for l := 0; l < nl; l++ {
			base := l * wC
			ge1 := ps.cnt[base][w]
			var ge2 uint64
			for j := 1; j < wC; j++ {
				pl := ps.cnt[base+j][w]
				ge1 |= pl
				ge2 |= pl
			}
			switch b {
			case 1:
				c0[l] = ge1
			case 2:
				c0[l] = ge1 ^ ge2
				c1[l] = ge2
			default: // b == 3
				var hi uint64
				for j := 2; j < wC; j++ {
					hi |= ps.cnt[base+j][w]
				}
				ge3 := hi
				if wC >= 2 {
					ge3 |= ps.cnt[base+1][w] & ps.cnt[base][w]
				}
				c0[l] = (ge1 ^ ge2) | ge3
				c1[l] = ge2
			}
		}
		for a := act; a != 0; a &= a - 1 {
			i := uint(bits.TrailingZeros64(a))
			v := w<<6 | int(i)
			bit := uint64(1) << i
			q := 0
			for j := 0; j < wQ; j++ {
				q |= int(ps.stP[j][w]>>i&1) << j
			}
			idx := uint64(0)
			for l := 0; l < nl; l++ {
				cc := c0[l] >> i & 1
				if b >= 2 {
					cc |= (c1[l] >> i & 1) << 1
				}
				idx += cc * p.pow[l]
			}
			eIdx := q*p.pdim + int(idx)
			row := p.delta[eIdx]
			if len(row) == 0 {
				return shardResult{tx: tx, outDelta: outDelta, err: deltaEmptyErr(v, nfsm.State(q), round)}
			}
			mv := nfsm.PickMove(seed, v, round, row)
			nq2 := int(mv.Next)
			if nq2 != q {
				outDelta += int(mask[nq2>>6]>>(uint(nq2)&63)&1) - int(mask[q>>6]>>(uint(q)&63)&1)
				for j := 0; j < wQ; j++ {
					if nq2>>j&1 == 1 {
						ps.stP[j][w] |= bit
					} else {
						ps.stP[j][w] &^= bit
					}
				}
			}
			if mv.Emit != nfsm.NoLetter {
				tx++
				le := 0
				for j := 0; j < wE; j++ {
					le |= int(ps.leP[j][w]>>i&1) << j
				}
				if int(mv.Emit) != le {
					for j := 0; j < wE; j++ {
						if int(mv.Emit)>>j&1 == 1 {
							ps.leP[j][w] |= bit
						} else {
							ps.leP[j][w] &^= bit
						}
					}
					emitters = append(emitters, packedEmit{v: int32(v), old: int16(le), nw: int16(mv.Emit)})
				}
			}
			e2 := eIdx + (nq2-q)*p.pdim
			if pc.settled[e2>>6]>>(uint(e2)&63)&1 == 1 {
				ps.stable[w] |= bit
			}
		}
	}
	if len(e.shardOf) > 0 {
		e.route(worker, emitters)
	}
	return shardResult{tx: tx, outDelta: outDelta, frozen: !live}
}

// route buckets the worker's changed emissions by destination shard.
func (e *packedKernel) route(worker int, emitters []packedEmit) {
	csr := e.p.csr
	off, nbr := csr.NbrOff, csr.NbrDat
	bk := e.ps.buckets[worker]
	for s := range bk {
		bk[s] = bk[s][:0]
	}
	for _, em := range emitters {
		for k := off[em.v]; k < off[em.v+1]; k++ {
			u := nbr[k]
			s := e.shardOf[u>>6]
			bk[s] = append(bk[s], packedEmit{v: u, old: em.old, nw: em.nw})
		}
	}
}

// deliver is the sequential deliver phase: every changed emission moves
// one unit of every neighbor's count from the old letter to the new one
// and wakes the neighbor. The ±1 plane updates are exact, so any
// application order yields the same planes — which is what makes the
// sharded variant bit-identical.
func (e *packedKernel) deliver(int) {
	csr := e.p.csr
	off, nbr := csr.NbrOff, csr.NbrDat
	ps := e.ps
	for _, lst := range ps.emits {
		for _, em := range lst {
			for k := off[em.v]; k < off[em.v+1]; k++ {
				u := nbr[k]
				ps.countDec(int(em.old), u)
				ps.countInc(int(em.nw), u)
				ps.stable[u>>6] &^= 1 << (uint(u) & 63)
			}
		}
	}
}

// deliverShard applies exactly the count updates routed to the shard;
// they commute, so the planes are identical at every worker count.
func (e *packedKernel) deliverShard(shard int) {
	ps := e.ps
	for w := range ps.buckets {
		for _, d := range ps.buckets[w][shard] {
			ps.countDec(int(d.old), d.v)
			ps.countInc(int(d.nw), d.v)
			ps.stable[d.v>>6] &^= 1 << (uint(d.v) & 63)
		}
	}
}
