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
// evaluation is provably a lone silent self-loop, a sink plane of
// nodes that can never change again, whose counts are no longer kept,
// and a change plane plus old-emission planes that carry the round's
// changed emissions from compute to deliver (DESIGN.md, "Bit-plane
// execution"). nfsm.PickMove is a stateless hash of (seed, node, round)
// and a skipped node's step is a no-op, so the kernel is bit-identical
// to the flat one at every worker count (TestDifferentialPackedSync,
// the packed arm of FuzzDifferentialSync).

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

// packedEmit is one routed count update: one unit of node v's count
// moves from letter old to letter nw, because a neighbor's emission
// changed.
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
	// chg marks the nodes whose emission changed this round, and oldP
	// holds their previous letter (valid only where chg is set): the
	// round's changed emissions, in node order. compute sets them;
	// deliver, or route on a sharded run, consumes and clears chg.
	chg  []uint64
	oldP [][]uint64
	// sinkSnap is sink as of the last deliver barrier. A sink never
	// leaves its state, so route may skip its targets; it cannot read
	// sink itself while other shards compute.
	sinkSnap []uint64
	tail     uint64 // valid-lane mask of the last word

	buckets [][][]packedEmit // per-worker route buckets (see routeBuckets)
}

// footprintBytes reports the bytes the packed run state retains — the
// bytes-per-node regression guard reads it.
func (ps *packedScratch) footprintBytes() int {
	words := cap(ps.planeBuf)
	for _, bk := range ps.buckets {
		for _, b := range bk {
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

	planes := pc.wQ + 2*pc.wE + p.nl*wC + 4
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
	ps.oldP = slice(pc.wE)
	nc := p.nl * wC * nw
	ps.cnt, buf = buf[:nc:nc], buf[nc:]
	flags := slice(4)
	ps.stable, ps.sink, ps.chg, ps.sinkSnap = flags[0], flags[1], flags[2], flags[3]

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
	lo, hi  []int   // shard s owns plane words [lo[s], hi[s])
}

func (e *packedKernel) shard(_ *Scratch, pool *shardPool) {
	e.shardOf, e.lo, e.hi = pool.shardOf, pool.lo, pool.hi
	e.ps.buckets = routeBuckets(e.ps.buckets, len(pool.lo))
}

func (e *packedKernel) decode(states []nfsm.State) { e.ps.decodeStates(states) }

// compute evaluates every live node of the word range [loW, hiW). Per
// live word it derives every letter's clamped count for all 64 lanes by
// threshold masks over the letter's count block (ge1 = any bit set;
// ge2 = any bit ≥ 1 set; ge3 = any bit ≥ 2 set, or bits 1 and 0 both
// set) and gathers them into each live lane's δ-index offset, loads the
// word's state and emission planes into locals, and walks the live
// lanes: the same δ rows and PickMove coin as the flat kernel, the new
// state and emission masked into the locals, a changed emission's lane
// set in the word's change mask. A node whose upcoming observation
// (counts are frozen during compute) hits the settled bitset gets its
// stability bit and is skipped until a delivery disturbs its counts; a
// node entering a sink state gets its sink bit. The locals are written
// back once per word, the emission words only when a lane changed,
// after saving the old ones to the old-emission planes.
func (e *packedKernel) compute(loW, hiW, round, worker int) shardResult {
	p, pc, ps := e.p, e.pc, e.ps
	seed := e.seed
	mask := p.outMask
	b, pow := p.b, p.pow[:ps.nl]
	var tx int64
	var outDelta int
	live := false
	var stBuf, emBuf [16]uint64 // the word's state and emission plane words (wQ, wE ≤ 15)
	st, em := stBuf[:ps.wQ], emBuf[:ps.wE]
	var ix [64]uint64 // per live lane: its clamped counts' δ-index offset

	for w := loW; w < hiW; w++ {
		act := ^ps.stable[w]
		if w == ps.nw-1 {
			act &= ps.tail
		}
		if act == 0 {
			continue
		}
		live = true
		// Word-parallel clamped counts for every letter, gathered into
		// each live lane's δ-index offset by a walk over the set digit
		// bits: a lane costs one add per nonzero digit, not one
		// shift-and-multiply per letter.
		for a := act; a != 0; a &= a - 1 {
			ix[bits.TrailingZeros64(a)] = 0
		}
		for l, pw := range pow {
			blk := ps.countBlock(l, w)
			var ge2, ge3 uint64
			if len(blk) >= 2 {
				for _, x := range blk[2:] {
					ge3 |= x
				}
				ge2 = blk[1] | ge3
				ge3 |= blk[1] & blk[0]
			}
			// The clamped count's two binary digits, c0 + 2·c1.
			ge1 := blk[0] | ge2
			var c0, c1 uint64
			switch b {
			case 1:
				c0 = ge1
			case 2:
				c0, c1 = ge1^ge2, ge2
			default: // b == 3
				c0, c1 = (ge1^ge2)|ge3, ge2
			}
			for x := c0 & act; x != 0; x &= x - 1 {
				ix[bits.TrailingZeros64(x)] += pw
			}
			for x := c1 & act; x != 0; x &= x - 1 {
				ix[bits.TrailingZeros64(x)] += 2 * pw
			}
		}
		for j := range st {
			st[j] = ps.stP[j][w]
		}
		for j := range em {
			em[j] = ps.leP[j][w]
		}
		var stab, sink, chg uint64
		for a := act; a != 0; a &= a - 1 {
			i := uint(bits.TrailingZeros64(a))
			v := w<<6 | int(i)
			bit := uint64(1) << i
			q := 0
			for j, x := range st {
				q |= int(x>>i&1) << j
			}
			eIdx := q*p.pdim + int(ix[i&63])
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
					chg |= bit
				}
			}
			e2 := eIdx + (nq2-q)*p.pdim
			stab |= (pc.settled[e2>>6] >> (uint(e2) & 63) & 1) << i
			sink |= (pc.sink[nq2>>6] >> (uint(nq2) & 63) & 1) << i
		}
		for j, x := range st {
			ps.stP[j][w] = x
		}
		// A lane changes its emission at most once per round, so the
		// word's emission planes as loaded hold every changed lane's old
		// letter.
		if chg != 0 {
			ps.chg[w] = chg
			for j, x := range em {
				ps.oldP[j][w] = ps.leP[j][w]
				ps.leP[j][w] = x
			}
		}
		ps.stable[w] |= stab
		ps.sink[w] |= sink
	}
	if len(e.shardOf) > 0 {
		e.route(worker, loW, hiW)
	}
	return shardResult{tx: tx, outDelta: outDelta, frozen: !live}
}

// chgWord is one plane word's changed emissions: the change mask and
// the old and new emission plane words, loaded once per word.
type chgWord struct {
	mask   uint64
	ob, nb [16]uint64
}

// takeChanges loads plane word w's changed emissions into cw and clears
// the word's change bits; it reports whether any lane changed.
func (ps *packedScratch) takeChanges(w int, cw *chgWord) bool {
	cw.mask = ps.chg[w]
	if cw.mask == 0 {
		return false
	}
	ps.chg[w] = 0
	for j := 0; j < ps.wE; j++ {
		cw.ob[j], cw.nb[j] = ps.oldP[j][w], ps.leP[j][w]
	}
	return true
}

// letters returns lane i's old and new emission.
func (cw *chgWord) letters(i uint, wE int) (old, nw int16) {
	for j := 0; j < wE; j++ {
		old |= int16(cw.ob[j]>>i&1) << j
		nw |= int16(cw.nb[j]>>i&1) << j
	}
	return old, nw
}

// route buckets the count updates of the changed emissions in the
// worker's word range [loW, hiW), in node order, by destination shard.
// A target that was a sink at the last deliver barrier would drop its
// update, so it gets no bucket entry; a sink entered since is caught by
// move.
func (e *packedKernel) route(worker, loW, hiW int) {
	csr := e.p.csr
	off, nbr := csr.NbrOff, csr.NbrDat
	ps := e.ps
	snap := ps.sinkSnap
	bk := ps.buckets[worker]
	for s := range bk {
		bk[s] = bk[s][:0]
	}
	var cw chgWord
	for w := loW; w < hiW; w++ {
		if !ps.takeChanges(w, &cw) {
			continue
		}
		for c := cw.mask; c != 0; c &= c - 1 {
			i := uint(bits.TrailingZeros64(c))
			old, nw := cw.letters(i, ps.wE)
			v := w<<6 | int(i)
			for k := off[v]; k < off[v+1]; k++ {
				u := nbr[k]
				if snap[u>>6]>>(uint(u)&63)&1 != 0 {
					continue
				}
				s := e.shardOf[u>>6]
				bk[s] = append(bk[s], packedEmit{v: u, old: old, nw: nw})
			}
		}
	}
}

// deliver is the sequential deliver phase: every changed emission, in
// node order, moves one unit of every neighbor's count from the old
// letter to the new one and wakes the neighbor. The ±1 updates are
// exact, so any application order yields the same planes — which is
// what makes the sharded variant bit-identical. A neighbor in a sink
// state never reads its counts again, so it gets neither the update
// nor the wake.
func (e *packedKernel) deliver(int) {
	csr := e.p.csr
	off, nbr := csr.NbrOff, csr.NbrDat
	ps := e.ps
	var cw chgWord
	for w := range ps.chg {
		if !ps.takeChanges(w, &cw) {
			continue
		}
		for c := cw.mask; c != 0; c &= c - 1 {
			i := uint(bits.TrailingZeros64(c))
			old, nw := cw.letters(i, ps.wE)
			v := w<<6 | int(i)
			for k := off[v]; k < off[v+1]; k++ {
				ps.move(old, nw, nbr[k])
			}
		}
	}
}

// deliverShard applies exactly the count updates routed to the shard;
// they commute, so the planes are identical at every worker count. The
// sink test sits here, after the compute barrier: route runs during
// compute, while other shards write their sink words, so it reads only
// the snapshot each shard takes of its own sink words at this barrier.
func (e *packedKernel) deliverShard(shard int) {
	ps := e.ps
	for w := range ps.buckets {
		for _, d := range ps.buckets[w][shard] {
			ps.move(d.old, d.nw, d.v)
		}
	}
	lo, hi := e.lo[shard], e.hi[shard]
	copy(ps.sinkSnap[lo:hi], ps.sink[lo:hi])
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
