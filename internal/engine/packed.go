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
// letter), exact counts per letter (one contiguous block per letter and
// word, updated by a fixed-depth ripple and clamped word-parallel by
// threshold masks), a stability plane that skips nodes whose next
// evaluation is provably a lone silent self-loop, and a sink plane of
// nodes that can never change again, whose counts are no longer kept
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
	// sink is a bitset over states: q is set when every δ entry of q is
	// settled, so a node in q never moves, emits or reads its counts
	// again (MIS: WIN and LOSE).
	sink []uint64
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
	pc.sink = make([]uint64, (c.nq+63)/64)
	for q := 0; q < c.nq; q++ {
		pc.sink[q>>6] |= 1 << (uint(q) & 63)
	}
	for e, row := range c.delta {
		q := e / c.pdim
		if len(row) > 0 && settles(nfsm.State(q), row[0], len(row)) {
			pc.settled[e>>6] |= 1 << (uint(e) & 63)
		} else {
			pc.sink[q>>6] &^= 1 << (uint(q) & 63)
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
	cnt      []uint64   // count blocks: bit j of letter l, word w at (l*nw+w)*wC+j
	stable   []uint64
	sink     []uint64 // nodes in a sink state; their counts go stale
	tail     uint64   // valid-lane mask of the last word

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

	planes := pc.wQ + pc.wE + p.nl*wC + 2
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
	nc := p.nl * wC * nw
	ps.cnt, buf = buf[:nc:nc], buf[nc:]
	ps.stable, ps.sink = buf[:nw:nw], buf[nw:2*nw:2*nw]

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
		blk := ps.countBlock(init, v>>6)
		for j := range blk {
			blk[j] |= uint64(deg>>j&1) << (uint(v) & 63)
		}
	}
}

// countBlock returns the wC count words of letter l for plane word w,
// bit j of the count first.
func (ps *packedScratch) countBlock(l, w int) []uint64 {
	i := (l*ps.nw + w) * ps.wC
	return ps.cnt[i : i+ps.wC : i+ps.wC]
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
// threshold masks over the letter's count block (ge1 = any bit set;
// ge2 = any bit ≥ 1 set; ge3 = any bit ≥ 2 set, or bits 1 and 0 both
// set), loads the word's state and emission planes into locals, and
// walks the live lanes: the same δ rows and PickMove coin as the flat
// kernel, the new state and emission masked into the locals, a changed
// emission recorded. A node whose upcoming observation (counts are
// frozen during compute) hits the settled bitset gets its stability bit
// and is skipped until a delivery disturbs its counts; a node entering
// a sink state gets its sink bit. The locals are written back once per
// word.
func (e *packedKernel) compute(loW, hiW, round, worker int) shardResult {
	p, pc, ps := e.p, e.pc, e.ps
	seed := e.seed
	mask := p.outMask
	emitters := ps.emits[worker][:0]
	defer func() { ps.emits[worker] = emitters }()
	nl, b := ps.nl, p.b
	c0, c1, pow := ps.cw0[worker][:nl], ps.cw1[worker][:nl], p.pow[:nl]
	var tx int64
	var outDelta int
	live := false
	var stBuf, emBuf [16]uint64 // the word's state and emission plane words (wQ, wE ≤ 15)
	st, em := stBuf[:ps.wQ], emBuf[:ps.wE]

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
			blk := ps.countBlock(l, w)
			var ge2, ge3 uint64
			if len(blk) >= 2 {
				for _, x := range blk[2:] {
					ge3 |= x
				}
				ge2 = blk[1] | ge3
				ge3 |= blk[1] & blk[0]
			}
			ge1 := blk[0] | ge2
			switch b {
			case 1:
				c0[l], c1[l] = ge1, 0
			case 2:
				c0[l], c1[l] = ge1^ge2, ge2
			default: // b == 3
				c0[l], c1[l] = (ge1^ge2)|ge3, ge2
			}
		}
		for j := range st {
			st[j] = ps.stP[j][w]
		}
		for j := range em {
			em[j] = ps.leP[j][w]
		}
		var stab, sink uint64
		for a := act; a != 0; a &= a - 1 {
			i := uint(bits.TrailingZeros64(a))
			v := w<<6 | int(i)
			bit := uint64(1) << i
			q := 0
			for j, x := range st {
				q |= int(x>>i&1) << j
			}
			idx := uint64(0)
			for l, x := range c0 {
				idx += (x>>i&1 | (c1[l]>>i&1)<<1) * pow[l]
			}
			eIdx := q*p.pdim + int(idx)
			row := p.delta[eIdx]
			if len(row) == 0 {
				return shardResult{tx: tx, outDelta: outDelta, err: deltaEmptyErr(v, nfsm.State(q), round)}
			}
			mv := nfsm.PickMove(seed, v, round, row)
			nq2 := int(mv.Next)
			outDelta += int(mask[nq2>>6]>>(uint(nq2)&63)&1) - int(mask[q>>6]>>(uint(q)&63)&1)
			for j, x := range st {
				st[j] = x&^bit | uint64(nq2>>j&1)<<i
			}
			if mv.Emit != nfsm.NoLetter {
				tx++
				le := 0
				for j, x := range em {
					le |= int(x>>i&1) << j
				}
				if ne := int(mv.Emit); ne != le {
					for j, x := range em {
						em[j] = x&^bit | uint64(ne>>j&1)<<i
					}
					emitters = append(emitters, packedEmit{v: int32(v), old: int16(le), nw: int16(ne)})
				}
			}
			e2 := eIdx + (nq2-q)*p.pdim
			stab |= (pc.settled[e2>>6] >> (uint(e2) & 63) & 1) << i
			sink |= (pc.sink[nq2>>6] >> (uint(nq2) & 63) & 1) << i
		}
		for j, x := range st {
			ps.stP[j][w] = x
		}
		for j, x := range em {
			ps.leP[j][w] = x
		}
		ps.stable[w] |= stab
		ps.sink[w] |= sink
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
// and wakes the neighbor. The ±1 updates are exact, so any application
// order yields the same planes — which is what makes the sharded
// variant bit-identical. A neighbor in a sink state never reads its
// counts again, so it gets neither the update nor the wake.
func (e *packedKernel) deliver(int) {
	csr := e.p.csr
	off, nbr := csr.NbrOff, csr.NbrDat
	ps := e.ps
	for _, lst := range ps.emits {
		for _, em := range lst {
			for k := off[em.v]; k < off[em.v+1]; k++ {
				ps.move(em.old, em.nw, nbr[k])
			}
		}
	}
}

// deliverShard applies exactly the count updates routed to the shard;
// they commute, so the planes are identical at every worker count. The
// sink test sits here, after the compute barrier, and not in route:
// route runs during compute, while other shards write their sink words.
func (e *packedKernel) deliverShard(shard int) {
	ps := e.ps
	for w := range ps.buckets {
		for _, d := range ps.buckets[w][shard] {
			ps.move(d.old, d.nw, d.v)
		}
	}
}

// move shifts one unit of node u's count from letter old to letter nw
// and wakes u, unless u sits in a sink. The borrow and the carry ripple
// through the two whole blocks: stopping once they die would be a
// data-dependent branch.
func (ps *packedScratch) move(old, nw int16, u int32) {
	w, bit := int(u>>6), uint64(1)<<(uint(u)&63)
	if ps.sink[w]&bit != 0 {
		return
	}
	dec, inc := ps.countBlock(int(old), w), ps.countBlock(int(nw), w)
	borrow, carry := bit, bit
	for j, x := range dec {
		y := inc[j]
		dec[j], inc[j] = x^borrow, y^carry
		borrow &^= x
		carry &= y
	}
	ps.stable[w] &^= bit
}
