package engine

import (
	"sync"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
)

// progKind selects the δ-lookup strategy a compiled Program uses in the
// round loop.
type progKind uint8

const (
	// progDynamic calls m.Moves per node step: the generic fallback for
	// machines whose δ cannot be tabulated ahead of time (multi-letter
	// round protocols with a large count domain, and the lazily
	// self-interning machines built by package synchro).
	progDynamic progKind = iota
	// progFlatSingle serves single-letter-query machines from the flat
	// table delta[q*(b+1)+c], where c is the clamped count of the query
	// letter λ(q).
	progFlatSingle
	// progFlatMulti serves multi-letter round protocols from the flat
	// table delta[q*(b+1)^|Σ| + idx], where idx encodes the full clamped
	// count vector in base b+1. The executors maintain idx incrementally.
	progFlatMulti
)

// maxTabulate bounds |Q|·(b+1)^|Σ| for multi-letter tabulation. Beyond
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
	outMask  []uint64      // flat kinds: Q_O membership bitset
	query    []nfsm.Letter // progFlatSingle: λ as a dense array
	delta    [][]nfsm.Move // flat δ rows (see progKind for the indexing)
	pow      []int32       // progFlatMulti: pow[l] = (b+1)^l
	pdim     int           // progFlatMulti: (b+1)^|Σ|
	single   nfsm.SingleQuery
	parallel bool // compute phase may be sharded across workers

	// dynPack marks a multi-letter dynamic-fallback machine whose
	// (state, clamped-count-vector) observations pack into a uint64, so
	// the executors can memoize δ rows in a flat-keyed map instead of
	// calling Transition per node step (the coloring protocol's
	// 269·4¹² domain is far too large to tabulate but visits only a
	// few thousand distinct observations per run). Restricted to
	// RoundProtocols: their state set is fixed and their Transition is
	// pure by contract.
	dynPack     bool
	dynPackBits uint

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
	switch mm := m.(type) {
	case *nfsm.Protocol:
		c.lowerProtocol(mm)
		// A malformed protocol stays dynamic, where the single-query
		// path uses the lock-free queryOf memo — shard only when the
		// lowering actually succeeded.
		c.parallel = c.kind != progDynamic
	case *nfsm.RoundProtocol:
		c.lowerRound(mm)
		// A RoundProtocol's Transition is a pure function by contract,
		// so even the dynamic fallback may be sharded across workers.
		c.parallel = true
		if c.kind == progDynamic && c.single == nil {
			c.packable()
		}
	}
	return c
}

// packable decides whether the dynamic fallback's observations fit a
// packed uint64 memo key: the state in the high bits, then one
// fixed-width field per letter holding the clamped count.
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
		c.dynPackBits = bits
	}
}

// Bind attaches the machine code to a graph, building the CSR snapshot.
// The cost is O(n + m), with no retabulation of δ.
func (c *MachineCode) Bind(g *graph.Graph) *Program {
	return &Program{MachineCode: c, g: g, csr: g.CSR()}
}

// BindCSR attaches the machine code directly to a CSR snapshot with no
// adjacency-list Graph behind it — the binding for streamed graphs
// (graph.BuildCSR) whose materialized form would not fit in memory.
// The resulting program runs every static run, channel runs included;
// scenario runs need the mutable Graph and report an error.
func (c *MachineCode) BindCSR(csr *graph.CSR) *Program {
	return &Program{MachineCode: c, csr: csr}
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

// lowerProtocol packs a literal single-query protocol: its δ is already
// a dense table, so the rows are shared, not copied.
func (c *MachineCode) lowerProtocol(m *nfsm.Protocol) {
	nq, w := c.nq, c.b+1
	if len(m.Delta) != nq || len(m.Query) != nq || len(m.Output) != nq {
		return // malformed: stay dynamic, errors surface at runtime
	}
	for _, l := range m.Query {
		if l < 0 || int(l) >= c.nl {
			return // the flat path would read out of the node's count block
		}
	}
	rows := make([][]nfsm.Move, nq*w)
	for q := 0; q < nq; q++ {
		if len(m.Delta[q]) != w {
			return
		}
		copy(rows[q*w:], m.Delta[q])
	}
	c.delta = rows
	c.query = m.Query
	c.outMask = outputBitset(nq, m.IsOutput)
	c.kind = progFlatSingle
}

// lowerRound tabulates a multi-letter round protocol over its full count
// domain |Q|·(b+1)^|Σ|, exactly the enumeration RoundProtocol.Audit
// performs. Domains beyond maxTabulate stay dynamic.
func (c *MachineCode) lowerRound(m *nfsm.RoundProtocol) {
	if m.Transition == nil {
		return
	}
	nq, nl, w := c.nq, c.nl, c.b+1
	pdim := 1
	for l := 0; l < nl; l++ {
		pdim *= w
		if nq*pdim > maxTabulate {
			return
		}
	}
	defer func() {
		// A transition that panics on an unreachable count vector cannot
		// be tabulated; the dynamic path only ever shows it reachable
		// observations.
		if recover() != nil {
			c.kind = progDynamic
			c.delta = nil
			c.pow = nil
		}
	}()
	pow := make([]int32, nl)
	for l := range pow {
		pow[l] = int32(intPow(w, l))
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
			rows[q*pdim+idx] = m.Transition(nfsm.State(q), counts)
		}
	}
	c.delta = rows
	c.pow = pow
	c.pdim = pdim
	c.outMask = outputBitset(nq, m.IsOutput)
	c.kind = progFlatMulti
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
// and — for progFlatMulti — the per-node base-(b+1) encoding of the
// clamped count vector, all maintained incrementally as ports change.
type runCounts struct {
	p *Program
	// portDat[k] is the letter held by the port at CSR edge slot k: for
	// k in [NbrOff[v], NbrOff[v+1]) it is the last letter delivered to v
	// from NbrDat[k].
	portDat []nfsm.Letter
	// raw[v*|Σ|+l] counts the ports of v currently holding letter l.
	raw []int32
	// idx[v] = Σ_l f_b(raw[v][l])·pow[l] (progFlatMulti only).
	idx []int32
	// dynQuery memoizes λ(q) for dynamic single-query machines whose
	// QueryLetter takes a lock (the synchro compilers); -2 marks unknown.
	dynQuery []nfsm.Letter
	// idxBuf backs idx across resets (idx itself is nil for non-flat
	// kinds, so the capacity is kept separately).
	idxBuf []int32
}

// reset (re)initializes the run state against a CSR snapshot, reusing
// any backing storage a previous run left behind — the heart of the
// Scratch zero-allocation reuse path. The dynamic execution path starts
// from the bound snapshot but rebinds to fresh snapshots as the
// scenario mutates the topology. The dynQuery memo survives resets; it
// is machine- not run-keyed (Scratch.bind clears it when the machine
// changes).
func (rc *runCounts) reset(p *Program, csr *graph.CSR) {
	rc.p = p
	n := csr.N()
	ne := len(csr.NbrDat)
	if cap(rc.portDat) < ne {
		rc.portDat = make([]nfsm.Letter, ne)
	}
	rc.portDat = rc.portDat[:ne]
	if cap(rc.raw) < n*p.nl {
		rc.raw = make([]int32, n*p.nl)
	}
	rc.raw = rc.raw[:n*p.nl]
	for i := range rc.raw {
		rc.raw[i] = 0
	}
	rc.idx = nil
	if p.kind == progFlatMulti {
		if cap(rc.idxBuf) < n {
			rc.idxBuf = make([]int32, n)
		}
		rc.idx = rc.idxBuf[:n]
	}
	for k := range rc.portDat {
		rc.portDat[k] = p.initial
	}
	for v := 0; v < n; v++ {
		deg := int32(csr.Degree(v))
		if deg == 0 {
			if rc.idx != nil {
				rc.idx[v] = 0
			}
			continue
		}
		rc.raw[v*p.nl+int(p.initial)] = deg
		if rc.idx != nil {
			c := deg
			if c > int32(p.b) {
				c = int32(p.b)
			}
			rc.idx[v] = c * p.pow[p.initial]
		}
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

// encodeIdx recomputes the base-(b+1) clamped-count encoding of one
// node's raw count block (progFlatMulti only).
func (rc *runCounts) encodeIdx(base int) int32 {
	p := rc.p
	var idx int32
	for l := 0; l < p.nl; l++ {
		c := rc.raw[base+l]
		if c > int32(p.b) {
			c = int32(p.b)
		}
		idx += c * p.pow[l]
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
// vector handed to Machine.Moves, plus δ-row and Q_O-membership memos
// that keep the steady state out of the machine's own code (the synchro
// compilers guard their lazily interned state sets with a mutex that
// would otherwise be taken several times per node step). The memos are
// machine-keyed, not run-keyed: Machine.Moves is a pure function of
// (state, counts) by interface contract and interned state identities
// are stable, so rows survive across runs of the same MachineCode
// (Scratch.bind invalidates on machine change). Each worker owns its
// own dynScratch — the memos are written without synchronization.
type dynScratch struct {
	cbuf []nfsm.Count
	// srows memoizes single-query dynamic δ rows at q*(b+1)+c; srkind
	// classifies the same rows for the chain walker (see rowKind).
	srows  [][]nfsm.Move
	srkind []int8
	// mrows memoizes multi-letter dynamic δ rows by packed observation
	// key (dynPack machines only). An open-addressing table beats a Go
	// map here: the lookup is two array reads on the hot path and the
	// storage is reusable. mcalls counts multi-letter resolutions: the
	// memo only engages past dynMemoThreshold, so short runs on fresh
	// arenas (a few thousand node-rounds) never pay the table build —
	// it exists for the long ones, where a Transition call per node
	// step is an allocation storm.
	mrows  rowTab
	mcalls int
	// out memoizes IsOutput for dynamic machines: -1 unknown, else 0/1.
	out []int8
}

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
}

// invalidate drops the machine-keyed memos (the scratch moved to a
// different machine).
func (ds *dynScratch) invalidate() {
	ds.srows = ds.srows[:0]
	ds.srkind = ds.srkind[:0]
	ds.mrows.clear()
	ds.mcalls = 0
	ds.out = ds.out[:0]
}

// dynMemoThreshold is the number of multi-letter δ resolutions a scratch
// arena sees before the packed-key memo engages.
const dynMemoThreshold = 8192

// Row classifications for the asynchronous chain walker. Zero is
// reserved for "not yet classified" so the memo's zero value is inert.
const (
	rowUnknown    int8 = iota
	rowBranches        // several moves, a transmission, or an output flip
	rowSilentHop       // lone silent same-output-class move to another state
	rowSilentSelf      // lone silent self-loop
)

// classifyRow classifies a δ row for state q (see the row constants).
func (c *MachineCode) classifyRow(row []nfsm.Move, q nfsm.State, ds *dynScratch) int8 {
	if len(row) != 1 || row[0].Emit != nfsm.NoLetter ||
		c.isOutputDS(row[0].Next, ds) != c.isOutputDS(q, ds) {
		return rowBranches
	}
	if row[0].Next == q {
		return rowSilentSelf
	}
	return rowSilentHop
}

// silentNext resolves δ for node v in state q and classifies the row in
// one step, memoizing the classification for single-query dynamic
// machines (the synchronizer compilations the asynchronous engine
// executes) so a chain-walk hop costs a few array loads.
func (rc *runCounts) silentNext(v int, q nfsm.State, ds *dynScratch) (nfsm.State, int8) {
	p := rc.p
	if p.kind == progDynamic && p.single != nil {
		ql := rc.queryOf(q)
		cc := rc.raw[v*p.nl+int(ql)]
		if cc > int32(p.b) {
			cc = int32(p.b)
		}
		mi := int(q)*(p.b+1) + int(cc)
		if mi < len(ds.srkind) {
			if k := ds.srkind[mi]; k != rowUnknown {
				if k == rowBranches {
					return 0, k
				}
				return ds.srows[mi][0].Next, k
			}
		}
		row := rc.movesFor(v, q, ds) // fills ds.srows[mi]
		k := p.classifyRow(row, q, ds)
		for len(ds.srkind) < len(ds.srows) {
			ds.srkind = append(ds.srkind, 0)
		}
		ds.srkind[mi] = k
		if k == rowBranches {
			return 0, k
		}
		return row[0].Next, k
	}
	row := rc.movesFor(v, q, ds)
	if len(row) == 0 {
		return 0, rowBranches
	}
	k := p.classifyRow(row, q, ds)
	if k == rowBranches {
		return 0, k
	}
	return row[0].Next, k
}

// isOutputDS answers Q_O membership like isOutput, but memoizes dynamic
// machines' answers in the caller's scratch so the hot loops do not
// take the machine's lock per step.
func (c *MachineCode) isOutputDS(q nfsm.State, ds *dynScratch) bool {
	if c.kind != progDynamic {
		return c.outMask[q>>6]>>(uint(q)&63)&1 == 1
	}
	if i := int(q); i < len(ds.out) {
		if o := ds.out[i]; o >= 0 {
			return o == 1
		}
	}
	o := c.m.IsOutput(q)
	for len(ds.out) <= int(q) {
		ds.out = append(ds.out, -1)
	}
	if o {
		ds.out[q] = 1
	} else {
		ds.out[q] = 0
	}
	return o
}

// movesFor resolves δ for node v in state q. ds is the caller's dynamic
// scratch (per-worker when sharded); the flat paths never touch it.
func (rc *runCounts) movesFor(v int, q nfsm.State, ds *dynScratch) []nfsm.Move {
	p := rc.p
	switch p.kind {
	case progFlatSingle:
		c := rc.raw[v*p.nl+int(p.query[q])]
		if c > int32(p.b) {
			c = int32(p.b)
		}
		return p.delta[int(q)*(p.b+1)+int(c)]
	case progFlatMulti:
		return p.delta[int(q)*p.pdim+int(rc.idx[v])]
	}
	base := v * p.nl
	if p.single != nil {
		ql := rc.queryOf(q)
		c := rc.raw[base+int(ql)]
		if c > int32(p.b) {
			c = int32(p.b)
		}
		mi := int(q)*(p.b+1) + int(c)
		if mi < len(ds.srows) {
			if row := ds.srows[mi]; row != nil {
				return row
			}
		}
		ds.cbuf[ql] = nfsm.Count(c)
		row := p.m.Moves(q, ds.cbuf)
		for len(ds.srows) <= mi {
			ds.srows = append(ds.srows, nil)
		}
		ds.srows[mi] = row
		return row
	}
	if p.dynPack {
		ds.mcalls++
		if ds.mcalls > dynMemoThreshold {
			key := uint64(q)
			for l := 0; l < p.nl; l++ {
				c := rc.raw[base+l]
				if c > int32(p.b) {
					c = int32(p.b)
				}
				key = key<<p.dynPackBits | uint64(c)
				ds.cbuf[l] = nfsm.Count(c)
			}
			if row, ok := ds.mrows.lookup(key); ok {
				return row
			}
			row := p.m.Moves(q, ds.cbuf)
			ds.mrows.insert(key, row)
			return row
		}
	}
	for l := 0; l < p.nl; l++ {
		ds.cbuf[l] = nfsm.ClampCount(int(rc.raw[base+l]), p.b)
	}
	return p.m.Moves(q, ds.cbuf)
}

// queryOf memoizes QueryLetter for dynamic single-query machines (their
// state sets grow during execution, so the cache grows on demand). Only
// the sequential executor path reaches it — dynamic single-query
// machines are never sharded — so the memo needs no lock.
func (rc *runCounts) queryOf(q nfsm.State) nfsm.Letter {
	if int(q) < len(rc.dynQuery) {
		if l := rc.dynQuery[q]; l != -2 {
			return l
		}
	}
	l := rc.p.single.QueryLetter(q)
	for len(rc.dynQuery) <= int(q) {
		rc.dynQuery = append(rc.dynQuery, -2)
	}
	rc.dynQuery[q] = l
	return l
}
