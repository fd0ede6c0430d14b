package engine

import (
	"math"
	"sync"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
)

// progKind selects the δ-lookup strategy a compiled Program uses in the
// round loop.
type progKind uint8

const (
	// progDynamic calls m.Moves per node step: the generic fallback for
	// machines whose δ cannot be tabulated ahead of time (protocols with
	// a large count domain, and the lazily self-interning machines built
	// by package synchro).
	progDynamic progKind = iota
	// progFlat serves literal and round protocols from the flat table
	// delta[q*(b+1)^|Σ| + idx], where idx encodes the full clamped count
	// vector in base b+1. The executors maintain idx incrementally. A
	// single-letter-query protocol is the special case whose rows depend
	// on one coordinate of the vector.
	progFlat
)

// maxTabulate bounds |Q|·(b+1)^|Σ| for tabulation. Beyond
// it Compile falls back to progDynamic (requirement (M4) makes the bound
// generous: the paper's protocols fit except the coloring protocol's
// 269·4¹² domain, which stays dynamic).
const maxTabulate = 1 << 17

// MachineCode is the graph-independent half of a compiled program: δ
// packed into flat move tables, the output set as a bitset, query
// letters as a dense array. A MachineCode is immutable after
// CompileMachine; Bind attaches it to a graph's CSR snapshot cheaply, so
// callers that execute one machine on many graphs (or many runs on one
// graph) tabulate δ exactly once.
//
// Lowering is an observational-equivalence refactor, not a semantic one:
// every table entry is exactly the slice (or a pure recomputation) that
// m.Moves would return for the same observation, and both executors draw
// randomness from the same nfsm.PickMove coin, so a compiled program's
// runs are bit-identical to the reference engine's (the differential
// tests pin this down).
type MachineCode struct {
	m nfsm.Machine

	kind     progKind
	nq       int // |Q| at compile time (dynamic machines may grow it)
	nl       int // |Σ|
	b        int // one-two-many bound
	initial  nfsm.Letter
	outMask  []uint64      // Q_O membership bitset: progFlat, and RoundProtocols left dynamic
	delta    [][]nfsm.Move // progFlat: δ rows (see progKind)
	pow      []uint64      // runCounts.idx weights: progFlat (b+1)^l, dynPack 1<<(bits·l)
	pdim     int           // progFlat: (b+1)^|Σ|
	single   nfsm.SingleQuery
	parallel bool // compute phase may be sharded across workers

	// dynPack marks a multi-letter dynamic-fallback machine whose
	// (state, clamped-count-vector) observations pack into a uint64, so
	// the executors can memoize δ rows in a flat-keyed map instead of
	// calling Transition per node step (the coloring protocol's
	// 269·4¹² domain is far too large to tabulate but visits only a
	// few thousand distinct observations per run). Restricted to
	// RoundProtocols: their state set is fixed and their Transition is
	// pure by contract. The key is q<<dynShift | idx[v]: the counts
	// field is the node's incrementally maintained index.
	dynPack  bool
	dynShift uint

	// pack is the lazily built bit-plane lowering (see packed.go). The
	// sync.Once makes the lazy build safe under the registry's shared
	// compiled-machine cache; the MachineCode stays logically immutable.
	packOnce sync.Once
	pack     *packedCode
}

// Program is a MachineCode bound to a specific graph: the flat δ tables
// plus the CSR adjacency and reverse-port layout the executors walk. A
// Program is immutable after Compile/Bind and safe for concurrent
// RunSync/RunAsync calls.
type Program struct {
	*MachineCode
	g   *graph.Graph
	csr *graph.CSR
}

// CompileMachine lowers machine m into flat tables. It never fails:
// machines it cannot tabulate run through the generic fallback, which
// still benefits from the CSR layout and incremental count maintenance.
func CompileMachine(m nfsm.Machine) *MachineCode {
	c := &MachineCode{
		m:       m,
		kind:    progDynamic,
		nq:      m.NumStates(),
		nl:      m.NumLetters(),
		b:       m.Bound(),
		initial: m.InitialLetter(),
	}
	if sq, ok := m.(nfsm.SingleQuery); ok {
		c.single = sq
	}
	switch m.(type) {
	case *nfsm.Protocol:
		c.tabulate()
		// A malformed protocol stays dynamic, where the single-query
		// path writes the per-worker record table unsharded — shard only
		// when the lowering actually succeeded.
		c.parallel = c.kind != progDynamic
	case *nfsm.RoundProtocol:
		c.tabulate()
		// A RoundProtocol's Transition is a pure function by contract,
		// so even the dynamic fallback may be sharded across workers.
		c.parallel = true
		if c.kind == progDynamic {
			// The state set is fixed, so Q_O stays a compile-time bitset.
			c.outMask = outputBitset(c.nq, m.IsOutput)
			if c.single == nil {
				c.packable()
			}
		}
	}
	return c
}

// packable decides whether the dynamic fallback's observations fit a
// packed uint64 memo key: the state in the high bits, then one
// fixed-width field per letter holding the clamped count, letter 0
// lowest.
func (c *MachineCode) packable() {
	bits := uint(1)
	for 1<<bits <= c.b {
		bits++
	}
	qbits := uint(1)
	for 1<<qbits < c.nq {
		qbits++
	}
	if uint(c.nl)*bits+qbits <= 64 {
		c.dynPack = true
		c.dynShift = uint(c.nl) * bits
		c.pow = make([]uint64, c.nl)
		for l := range c.pow {
			c.pow[l] = 1 << (bits * uint(l))
		}
	}
}

// Bind attaches the machine code to a graph, building the CSR snapshot.
// The cost is O(n + m), with no retabulation of δ.
func (c *MachineCode) Bind(g *graph.Graph) *Program {
	return c.bind(g, g.CSR())
}

// BindCSR attaches the machine code directly to a CSR snapshot with no
// adjacency-list Graph behind it — the binding for streamed graphs
// (graph.BuildCSR) whose materialized form would not fit in memory.
// The resulting program runs every static run, channel runs included;
// scenario runs need the mutable Graph and report an error.
func (c *MachineCode) BindCSR(csr *graph.CSR) *Program {
	return c.bind(nil, csr)
}

// bind builds the snapshot's reverse-port table now, as set-up, unless
// a default sync run takes the bit-plane backend, which never reads it;
// a run that does need it there (forced flat, async) builds it on first
// use.
func (c *MachineCode) bind(g *graph.Graph, csr *graph.CSR) *Program {
	p := &Program{MachineCode: c, g: g, csr: csr}
	if packed, _ := p.packedBackend("", false); !packed {
		csr.RevPort()
	}
	return p
}

// Compile lowers machine m against graph g: CompileMachine followed by
// Bind.
func Compile(m nfsm.Machine, g *graph.Graph) *Program {
	return CompileMachine(m).Bind(g)
}

// Machine returns the machine the program was compiled from.
func (c *MachineCode) Machine() nfsm.Machine { return c.m }

// Graph returns the graph the program was compiled against, or nil for
// a CSR-only binding (BindCSR).
func (p *Program) Graph() *graph.Graph { return p.g }

// tabulate lowers a literal or round protocol over its full count
// domain |Q|·(b+1)^|Σ|, exactly the enumeration RoundProtocol.Audit
// performs: each entry is the slice m.Moves returns for that
// observation. Domains beyond maxTabulate stay dynamic.
func (c *MachineCode) tabulate() {
	m, nq, nl, w := c.m, c.nq, c.nl, c.b+1
	pdim := 1
	for l := 0; l < nl; l++ {
		pdim *= w
		if nq*pdim > maxTabulate {
			return
		}
	}
	defer func() {
		// A transition that panics on an unreachable count vector cannot
		// be tabulated, and neither can a malformed protocol; the dynamic
		// path only ever shows it reachable observations, and errors
		// surface at run time.
		if recover() != nil {
			c.kind = progDynamic
			c.delta = nil
			c.pow = nil
		}
	}()
	pow := make([]uint64, nl)
	for l := range pow {
		pow[l] = uint64(intPow(w, l))
	}
	rows := make([][]nfsm.Move, nq*pdim)
	counts := make([]nfsm.Count, nl)
	for idx := 0; idx < pdim; idx++ {
		rest := idx
		for l := 0; l < nl; l++ {
			counts[l] = nfsm.Count(rest % w)
			rest /= w
		}
		for q := 0; q < nq; q++ {
			rows[q*pdim+idx] = m.Moves(nfsm.State(q), counts)
		}
	}
	c.delta = rows
	c.pow = pow
	c.pdim = pdim
	c.outMask = outputBitset(nq, m.IsOutput)
	c.kind = progFlat
}

func intPow(base, exp int) int {
	r := 1
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}

func outputBitset(nq int, isOutput func(nfsm.State) bool) []uint64 {
	mask := make([]uint64, (nq+63)/64)
	for q := 0; q < nq; q++ {
		if isOutput(nfsm.State(q)) {
			mask[q>>6] |= 1 << (uint(q) & 63)
		}
	}
	return mask
}

// runCounts is the per-run mutable execution state shared by the
// synchronous and asynchronous executors: the flat port array aligned
// with the CSR edge order, the per-node raw (unclamped) letter counts,
// and — on progFlat and dynPack machines — the per-node index of the
// clamped count vector, all maintained incrementally as ports change.
type runCounts struct {
	p *Program
	// portDat[k] is the letter held by the port at CSR edge slot k: for
	// k in [NbrOff[v], NbrOff[v+1]) it is the last letter delivered to v
	// from NbrDat[k].
	portDat []nfsm.Letter
	// raw[v*|Σ|+l] counts the ports of v currently holding letter l.
	raw []int32
	// idx[v] = Σ_l f_b(raw[v][l])·pow[l] (progFlat and dynPack only):
	// the δ-table offset on progFlat, the counts field of the memo key
	// on dynPack.
	idx []uint64
	// idxBuf backs idx across resets (idx itself is nil for the other
	// machines, so the capacity is kept separately).
	idxBuf []uint64
}

// reset (re)initializes the run state against a CSR snapshot, reusing
// any backing storage a previous run left behind — the heart of the
// Scratch zero-allocation reuse path. The dynamic execution path starts
// from the bound snapshot but rebinds to fresh snapshots as the
// scenario mutates the topology.
func (rc *runCounts) reset(p *Program, csr *graph.CSR) {
	rc.p = p
	n := csr.N()
	rc.portDat = grow(rc.portDat, len(csr.NbrDat), p.initial)
	rc.raw = grow(rc.raw, n*p.nl, 0)
	rc.idx = nil
	if p.pow != nil {
		rc.idxBuf = grow(rc.idxBuf, n, 0)
		rc.idx = rc.idxBuf
	}
	for v := 0; v < n; v++ {
		rc.resetNode(v, csr)
	}
}

// rebind re-aligns the run state with a new CSR snapshot after a
// topology mutation, carrying the letter of every surviving directed
// edge across the slot renumbering (remap comes from graph.RemapPorts)
// and rebuilding the count aggregates from the remapped ports. New
// edges start at the initial letter, exactly like a port at round 0.
func (rc *runCounts) rebind(csr *graph.CSR, remap []int32) {
	p := rc.p
	old := rc.portDat
	rc.portDat = make([]nfsm.Letter, len(csr.NbrDat))
	for k := range rc.portDat {
		if o := remap[k]; o >= 0 {
			rc.portDat[k] = old[o]
		} else {
			rc.portDat[k] = p.initial
		}
	}
	for i := range rc.raw {
		rc.raw[i] = 0
	}
	n := csr.N()
	for v := 0; v < n; v++ {
		base := v * p.nl
		for k := csr.NbrOff[v]; k < csr.NbrOff[v+1]; k++ {
			rc.raw[base+int(rc.portDat[k])]++
		}
		if rc.idx != nil {
			rc.idx[v] = rc.encodeIdx(base)
		}
	}
}

// resetNode clears node v's local memory: every port back to the
// initial letter with the count aggregates rebuilt. This is the engine
// half of a node reboot (restart, wake, or a scenario reset policy);
// the caller resets the state vector.
func (rc *runCounts) resetNode(v int, csr *graph.CSR) {
	p := rc.p
	base := v * p.nl
	for l := 0; l < p.nl; l++ {
		rc.raw[base+l] = 0
	}
	deg := int32(csr.Degree(v))
	for k := csr.NbrOff[v]; k < csr.NbrOff[v+1]; k++ {
		rc.portDat[k] = p.initial
	}
	rc.raw[base+int(p.initial)] = deg
	if rc.idx != nil {
		rc.idx[v] = rc.encodeIdx(base)
	}
}

// encodeIdx recomputes the clamped-count index of one node's raw count
// block (progFlat and dynPack only).
func (rc *runCounts) encodeIdx(base int) uint64 {
	p := rc.p
	var idx uint64
	for l := 0; l < p.nl; l++ {
		idx += uint64(min(rc.raw[base+l], int32(p.b))) * p.pow[l]
	}
	return idx
}

// setPort overwrites the port at CSR edge slot k of node v with letter l
// and maintains the incremental counts. It must only be called with a
// valid letter (deliveries are never ε).
func (rc *runCounts) setPort(v int, k int32, l nfsm.Letter) {
	old := rc.portDat[k]
	if old == l {
		return
	}
	rc.portDat[k] = l
	base := v * rc.p.nl
	io, in := base+int(old), base+int(l)
	rc.raw[io]--
	rc.raw[in]++
	if rc.idx != nil {
		b := int32(rc.p.b)
		// f_b moves only while the raw count is within the clamp window.
		if rc.raw[io] < b {
			rc.idx[v] -= rc.p.pow[old]
		}
		if rc.raw[in] <= b {
			rc.idx[v] += rc.p.pow[l]
		}
	}
}

// evictPort permanently clears the port at CSR edge slot k of node v:
// the −1 sentinel letter counts toward nothing, so the evicted edge
// reads as ε in every count the node observes from then on. The voted
// engines call it when a dead edge is evicted; they never deliver to
// an evicted slot again, so setPort (which cannot see the sentinel)
// stays off this path.
func (rc *runCounts) evictPort(v int, k int32) {
	old := rc.portDat[k]
	if old < 0 {
		return
	}
	rc.portDat[k] = -1
	base := v * rc.p.nl
	io := base + int(old)
	rc.raw[io]--
	if rc.idx != nil && rc.raw[io] < int32(rc.p.b) {
		rc.idx[v] -= rc.p.pow[old]
	}
}

// dynScratch is the per-worker dynamic-fallback scratch: the count
// vector handed to Machine.Moves, plus the memos that keep the steady
// state out of the machine's own code (the synchro compilers guard their
// lazily interned state sets with a mutex that would otherwise be taken
// several times per node step). The memos are machine-keyed, not
// run-keyed: Machine.Moves is a pure function of (state, counts) by
// interface contract and interned state identities are stable, so they
// survive across runs of the same MachineCode (Scratch.bind invalidates
// on machine change). Each worker owns its own dynScratch — the memos
// are written without synchronization.
type dynScratch struct {
	cbuf []nfsm.Count
	// recs is the per-state record table: state q's block is the stride
	// words at q·stride, a header (see hdrSet) and, on single-query
	// machines, one packed row word (see rowSide; 0 until resolved) per
	// clamped count of the query letter — 24 bytes at b=1. A step reads
	// the header and one row word of one block, where per-field slices
	// would cost a cache miss each. side holds the rows a word cannot
	// pack (several moves, or fields too wide).
	recs   []uint64
	stride int
	side   [][]nfsm.Move
	// rpGen numbers the run: a header's re-pulse bit is valid while its
	// tag equals it (the classifier is run configuration, not δ).
	rpGen uint64
	// mrows memoizes multi-letter dynamic δ rows by packed observation
	// key (dynPack machines only). An open-addressing table beats a Go
	// map here: the lookup is two array reads on the hot path and the
	// storage is reusable. Transition is pure for a RoundProtocol, so
	// the memo is exact from the first resolution; without it a long run
	// makes a Transition call, an allocation storm, per node step.
	mrows rowTab
}

// A record header holds the query letter in its low 32 bits, then the
// re-pulse tag, the re-pulse bit, the Q_O bit and hdrSet (filled). A row
// word holds Next in its low 32 bits, Emit+1 in the next 16, the
// chain-walk kind (see the row constants), isOutput(Next)−isOutput(q)+1
// in two bits, and rowSide, which marks a row kept at side[low 32 bits]
// instead (kind rowBranches). Both are non-zero once filled. A walk that
// reaches a row the machine has not built leaves rowUnbuilt (kind
// rowBranches) in its word, so later walks stop there without asking the
// machine again; pick resolves the row and overwrites the word.
const (
	hdrGen       = 1<<61 - 1<<32
	hdrRP        = 1 << 61
	hdrOut       = 1 << 62
	hdrSet       = 1 << 63
	rowKindShift = 48
	rowDoutShift = 50
	rowSide      = 1 << 52
	rowUnbuilt   = 1 << 53
)

// rowTab is a linear-probing hash table from packed observation keys to
// δ rows. No deletions; presence is a non-nil row.
type rowTab struct {
	keys []uint64
	vals [][]nfsm.Move
	n    int
}

func (t *rowTab) lookup(key uint64) ([]nfsm.Move, bool) {
	if len(t.keys) == 0 {
		return nil, false
	}
	mask := uint64(len(t.keys) - 1)
	h := key * 0x9e3779b97f4a7c15
	i := (h ^ h>>29) & mask
	for {
		if t.vals[i] == nil {
			return nil, false
		}
		if t.keys[i] == key {
			return t.vals[i], true
		}
		i = (i + 1) & mask
	}
}

func (t *rowTab) insert(key uint64, row []nfsm.Move) {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	h := key * 0x9e3779b97f4a7c15
	i := (h ^ h>>29) & mask
	for t.vals[i] != nil {
		if t.keys[i] == key {
			t.vals[i] = row
			return
		}
		i = (i + 1) & mask
	}
	t.keys[i] = key
	t.vals[i] = row
	t.n++
}

func (t *rowTab) grow() {
	size := 256
	if len(t.keys) > 0 {
		size = 2 * len(t.keys)
	}
	oldK, oldV := t.keys, t.vals
	t.keys = make([]uint64, size)
	t.vals = make([][]nfsm.Move, size)
	t.n = 0
	for i, v := range oldV {
		if v != nil {
			t.insert(oldK[i], v)
		}
	}
}

func (t *rowTab) clear() {
	for i := range t.vals {
		t.vals[i] = nil
	}
	t.n = 0
}

func (ds *dynScratch) init(c *MachineCode) {
	if cap(ds.cbuf) < c.nl {
		ds.cbuf = make([]nfsm.Count, c.nl)
	}
	ds.cbuf = ds.cbuf[:c.nl]
	stride := 1
	if c.kind == progDynamic && c.single != nil {
		stride = c.b + 2
	}
	if stride != ds.stride {
		ds.stride = stride
		ds.recs = ds.recs[:0]
	}
	// A new run: re-pulse bits of earlier runs go stale.
	if ds.rpGen++; ds.rpGen > hdrGen>>32 {
		ds.rpGen = 1
		ds.recs = ds.recs[:0]
	}
}

// invalidate drops the machine-keyed memos (the scratch moved to a
// different machine).
func (ds *dynScratch) invalidate() {
	ds.recs = ds.recs[:0]
	clear(ds.side)
	ds.side = ds.side[:0]
	ds.mrows.clear()
}

// Row classifications for the asynchronous chain walker. Zero is
// reserved for "not yet resolved" so an empty record word is inert.
const (
	rowBranches   int8 = iota + 1 // several moves, a transmission, or an output flip
	rowSilentHop                  // lone silent same-output-class move to another state
	rowSilentSelf                 // lone silent self-loop
)

// rowKind classifies a single-move row of state q whose move changes
// the output count by dout (see the row constants).
func rowKind(mv nfsm.Move, q nfsm.State, dout int) int8 {
	switch {
	case mv.Emit != nfsm.NoLetter || dout != 0:
		return rowBranches
	case mv.Next == q:
		return rowSilentSelf
	}
	return rowSilentHop
}

// rec returns the index in ds.recs of state q's header word, filling
// the header on first use.
func (ds *dynScratch) rec(c *MachineCode, q nfsm.State) int {
	i := int(q) * ds.stride
	if i < len(ds.recs) && ds.recs[i] != 0 {
		return i
	}
	if need := i + ds.stride; need > len(ds.recs) {
		ds.recs = append(ds.recs, make([]uint64, need-len(ds.recs))...)
	}
	h := uint64(hdrSet)
	if c.m.IsOutput(q) {
		h |= hdrOut
	}
	if c.single != nil {
		h |= uint64(uint32(c.single.QueryLetter(q)))
	}
	ds.recs[i] = h
	return i
}

// dynRow returns the record word of δ's row for node v in state q on a
// dynamic single-query machine, or 0 when fillRow has yet to resolve
// it: the header names the query letter, the node's clamped count of it
// picks the word. It is call-free so that it inlines into the step and
// the chain walker.
func (rc *runCounts) dynRow(v int, q nfsm.State, ds *dynScratch) uint64 {
	if i := int(q) * ds.stride; i < len(ds.recs) && ds.recs[i] != 0 {
		return ds.recs[i+1+int(min(rc.raw[v*rc.p.nl+int(uint32(ds.recs[i]))], int32(rc.p.b)))]
	}
	return 0
}

// builtRows is the optional capability of a lazily interning machine
// to hand out a δ row only if an earlier Moves call built it, so that
// reading it interns no state.
type builtRows interface {
	BuiltMoves(q nfsm.State, counts []nfsm.Count) ([]nfsm.Move, bool)
}

// fillRow resolves the row word of node v in state q from Machine.Moves.
// Unless resolve is set, a builtRows machine's row that is not built
// yet stays unresolved: fillRow records and returns the rowUnbuilt word.
func (rc *runCounts) fillRow(v int, q nfsm.State, ds *dynScratch, resolve bool) uint64 {
	p := rc.p
	i := ds.rec(p.MachineCode, q)
	ql := uint32(ds.recs[i])
	c := min(rc.raw[v*p.nl+int(ql)], int32(p.b))
	ds.cbuf[ql] = nfsm.Count(c)
	var row []nfsm.Move
	if br, ok := p.m.(builtRows); ok && !resolve {
		var built bool
		if row, built = br.BuiltMoves(q, ds.cbuf); !built {
			ds.recs[i+1+int(c)] = rowUnbuilt | uint64(rowBranches)<<rowKindShift
			return ds.recs[i+1+int(c)]
		}
	} else {
		row = p.m.Moves(q, ds.cbuf)
	}
	var w uint64
	mv := nfsm.Move{Next: -1} // packs only a lone move
	if len(row) == 1 {
		mv = row[0]
	}
	if mv.Next >= 0 && uint64(mv.Next) <= math.MaxUint32 && mv.Emit >= nfsm.NoLetter && mv.Emit < 1<<16-1 {
		// rec may grow the table, so re-read q's header after it.
		dout := 0
		if mv.Next != q {
			dout = b2i(ds.recs[ds.rec(p.MachineCode, mv.Next)]&hdrOut != 0) - b2i(ds.recs[i]&hdrOut != 0)
		}
		w = uint64(uint32(mv.Next)) | uint64(mv.Emit+1)<<32 |
			uint64(rowKind(mv, q, dout))<<rowKindShift | uint64(dout+1)<<rowDoutShift
	} else {
		w = uint64(len(ds.side)) | uint64(rowBranches)<<rowKindShift | rowSide
		ds.side = append(ds.side, row)
	}
	ds.recs[i+1+int(c)] = w
	return w
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// silentNext resolves δ for node v in state q and classifies the row
// for the chain walker; the successor is meaningful for the silent
// kinds only. On dynamic single-query machines (the synchronizer
// compilations the asynchronous engine executes) both come from one
// record word. A row a builtRows machine has not built yet reads as
// branching: building it interns its successors, so the walker, which
// looks ahead of where the node may ever get, leaves it to the step that
// reaches it.
func (rc *runCounts) silentNext(v int, q nfsm.State, ds *dynScratch) (nfsm.State, int8) {
	if p := rc.p; p.kind == progDynamic && p.single != nil {
		w := rc.dynRow(v, q, ds)
		if w == 0 {
			w = rc.fillRow(v, q, ds, false)
		}
		return nfsm.State(uint32(w)), int8(w >> rowKindShift & 3)
	}
	// Only a lone move is classified, so pick's coin goes unused.
	if mv, dout, size := rc.pick(v, q, ds, 0, 0); size == 1 {
		return mv.Next, rowKind(mv, q, dout)
	}
	return 0, rowBranches
}

// pick resolves δ for node v in state q and draws the move with the
// shared coin (seed, v, t). It returns the move, the change it makes to
// the output count (isOutput(Next) − isOutput(q)), and the size of the
// row it came from (0: δ is empty there).
func (rc *runCounts) pick(v int, q nfsm.State, ds *dynScratch, seed uint64, t int) (nfsm.Move, int, int) {
	p := rc.p
	var row []nfsm.Move
	if p.kind == progDynamic && p.single != nil {
		w := rc.dynRow(v, q, ds)
		if w == 0 || w&rowUnbuilt != 0 {
			w = rc.fillRow(v, q, ds, true)
		}
		if w&rowSide == 0 {
			mv := nfsm.Move{Next: nfsm.State(uint32(w)), Emit: nfsm.Letter(w>>32&(1<<16-1)) - 1}
			return mv, int(w>>rowDoutShift&3) - 1, 1
		}
		row = ds.side[uint32(w)]
	} else {
		row = rc.movesFor(v, q, ds)
	}
	if len(row) == 0 {
		return nfsm.Move{}, 0, 0
	}
	mv := nfsm.PickMove(seed, v, t, row)
	dout := 0
	if mv.Next != q {
		dout = b2i(p.isOutputDS(mv.Next, ds)) - b2i(p.isOutputDS(q, ds))
	}
	return mv, dout, len(row)
}

// isOutputDS answers Q_O membership: from the compile-time bitset when
// the state set is fixed, else from the caller's record table, so the
// hot loops do not take the machine's lock per step.
func (c *MachineCode) isOutputDS(q nfsm.State, ds *dynScratch) bool {
	if c.outMask != nil {
		return c.outMask[q>>6]>>(uint(q)&63)&1 == 1
	}
	return ds.recs[ds.rec(c, q)]&hdrOut != 0
}

// rePulse answers f(q) (a voted run's re-pulse classifier), memoized in
// q's record header for the current run on dynamic machines.
func (c *MachineCode) rePulse(q nfsm.State, ds *dynScratch, f func(nfsm.State) bool) bool {
	if c.kind != progDynamic {
		return f(q)
	}
	i := ds.rec(c, q)
	h := ds.recs[i]
	if h&hdrGen>>32 != ds.rpGen {
		h = h&^(hdrGen|hdrRP) | ds.rpGen<<32
		if f(q) {
			h |= hdrRP
		}
		ds.recs[i] = h
	}
	return h&hdrRP != 0
}

// movesFor resolves δ for node v in state q on every machine but the
// dynamic single-query ones, which dynRow serves. ds is the caller's
// dynamic scratch (per-worker when sharded); the flat paths never touch
// it.
func (rc *runCounts) movesFor(v int, q nfsm.State, ds *dynScratch) []nfsm.Move {
	p := rc.p
	if p.kind == progFlat {
		return p.delta[int(q)*p.pdim+int(rc.idx[v])]
	}
	var key uint64
	if p.dynPack {
		key = uint64(q)<<p.dynShift | rc.idx[v]
		if row, ok := ds.mrows.lookup(key); ok {
			return row
		}
	}
	base := v * p.nl
	for l := 0; l < p.nl; l++ {
		ds.cbuf[l] = nfsm.ClampCount(int(rc.raw[base+l]), p.b)
	}
	row := p.m.Moves(q, ds.cbuf)
	if p.dynPack {
		ds.mrows.insert(key, row)
	}
	return row
}
