// Package synchro implements the black-box compilers of Section 3 of the
// paper:
//
//   - Compile (Theorem 3.1) transforms a protocol designed for a locally
//     synchronous environment into one that runs in the fully asynchronous
//     environment of Section 2, at a constant multiplicative run-time
//     overhead. It implements the paper's synchronizer literally: messages
//     are tagged with a trit (round index mod 3) and carry the previous
//     round's transmission; a *pausing feature* stalls a node while any
//     port still holds a dirty letter (trit j−2); a *simulation feature*
//     computes the clamped count of the queried letter over the two clean
//     generations Γ_{t−1} ∪ Γ_t with the φ₁/φ₂/φ₃ double-read stability
//     check.
//
//   - CompileRound merges Theorem 3.1 with Theorem 3.4 (multiple-letter
//     queries): the simulation feature scans *every* letter of Σ with the
//     per-letter stability check, so a multi-letter RoundProtocol — the
//     layer Sections 4 and 5 are written in — runs directly in the
//     asynchronous environment.
//
//   - Expand (Theorem 3.4 standalone) subdivides each round into |Σ|
//     subrounds to turn a multi-letter protocol into a single-letter one.
//     The expansion relies on round alignment and is therefore valid in
//     the (locally) synchronous engine; for asynchronous execution use
//     CompileRound.
//
//   - CompileTolerant / CompileRoundTolerant produce the αβ-hybrid
//     variant of the same synchronizers for *unreliable* channels. The
//     paper's construction assumes every copy arrives: a dropped or
//     corrupted transmission leaves a stale letter in the receiver's
//     port forever, the pausing features of the two endpoints deadlock
//     on each other, and the clamped count is starved. The hybrid keeps
//     the α machinery bit-for-bit (the plain compilers are untouched)
//     and adds a β-style bounded retransmission: while the pausing
//     feature stalls on a dirty letter, a per-state timer ticks, and
//     every timeout-th consecutive stalled step the node re-transmits
//     its previous message M_v(t−1) verbatim. Ports are overwrite
//     registers, so a re-pulse a receiver already holds is literally
//     invisible (duplicate absorption), while a receiver whose copy was
//     lost is repaired; the trit tag keeps stale generations rejected
//     exactly as before. Loss therefore costs liveness only a bounded
//     delay instead of costing it everything.
//
// The compiled state space is constant-size (independent of the network,
// requirement (M4)) but combinatorially large, so compiled machines
// materialize their states lazily behind the nfsm.Machine interface
// instead of enumerating Q̂ up front.
package synchro

import (
	"fmt"
	"slices"
	"sync"

	"stoneage/internal/nfsm"
)

// Feature identifiers for compiled states.
const (
	featPause = iota // pausing feature P_q × {j}
	featScan1        // simulation feature, first Γ_{t−1} pass (φ₁)
	featScan2        // simulation feature, Γ_t pass (φ₂)
	featScan3        // simulation feature, second Γ_{t−1} pass (φ₃)
)

// cdesc is the decoded form of one compiled state. The tuple (q, j,
// prevEmit, feature, sigma, pos, phi1, phi2, acc, phiv, prev2, timer)
// determines the state completely; the machine stores it only as its
// packed key (see keyLayout), and buildRow decodes it into a stack cdesc.
// The completed counts phiv are no field: they stay in the key's fixed
// slots, and carry copies them from the key being expanded.
type cdesc struct {
	q        nfsm.State // underlying protocol state governing this phase
	j        int        // trit of the simulated round, t mod 3
	prevEmit int        // the node's port-visible letter as of round t−1
	feature  int
	sigma    int // letter currently being counted (scan features)
	pos      int // position within the pausing grid or within a Γ pass
	phi1     int // φ₁ (scan2, scan3)
	phi2     int // φ₂ (scan3)
	acc      int // running clamped sum of the current pass
	prev2    int // tolerant pause states: port-visible letter of round t−2
	timer    int // tolerant pause states: consecutive stalled steps here

	// carry takes the completed counts (for letters < sigma, multi-letter
	// scans only) of the state being expanded, c.cur.
	carry bool
}

// field is a bit field of a packed key: width bits at bit offset off of
// the key's words, straddling two words where the layout puts it so. A
// zero-width field reads 0 and ignores writes.
type field struct{ off, width uint }

func (f field) get(k []uint64) int {
	i, s := f.off/64, f.off%64
	v := k[i] >> s
	if s+f.width > 64 {
		v |= k[i+1] << (64 - s)
	}
	return int(v & (1<<f.width - 1))
}

// put ORs v into the field, which must still be zero.
func (f field) put(k []uint64, v int) {
	x := uint64(v) & (1<<f.width - 1)
	i, s := f.off/64, f.off%64
	k[i] |= x << s
	if s+f.width > 64 {
		k[i+1] |= x >> (64 - s)
	}
}

// keyLayout places every descriptor field at a fixed bit offset of a
// words-word key: the underlying state, trit, previous emission, feature,
// scan letter, position, the three φ accumulators, |Σ|−1 fixed slots of
// completed counts (their number is implied by sigma, so fixed slots stay
// injective), and for the tolerant hybrid prev2+1 and the stall timer.
// Plain machines leave the last two zero-width.
type keyLayout struct {
	q, j, prevEmit, feature, sigma, pos field
	phi1, phi2, acc, prev2, timer       field
	// phiv is completed-count slot 0; slot i sits i·phiv.width bits on.
	phiv  field
	nphiv int
	words int
}

// slot returns completed-count slot i.
func (l *keyLayout) slot(i int) field {
	return field{l.phiv.off + uint(i)*l.phiv.width, l.phiv.width}
}

// Compiled is the asynchronous protocol Π̂ produced by Compile or
// CompileRound. It implements nfsm.Machine (and nfsm.SingleQuery: every
// compiled state queries exactly one letter, as the model of Section 2
// requires). A Compiled instance is safe for concurrent use by multiple
// runs.
type Compiled struct {
	name    string
	src     nfsm.Machine
	single  nfsm.SingleQuery // non-nil for Compile; nil for CompileRound
	scanAll bool
	nl      int // |Σ| of the source protocol
	b       int
	initial nfsm.Letter // σ̂₀ = (ε, σ₀, 0)

	// tolerant selects the αβ hybrid: pausing states carry a stall
	// timer and re-transmit M_v(t−1) every timeout-th stalled step. The
	// extra fields only enter the key layout when set, so plain compiled
	// machines are bit-identical to what Compile and CompileRound always
	// produced.
	tolerant bool
	timeout  int
	// voted marks the αβv tier: the state machine is the tolerant
	// hybrid unchanged, but engines running a voted machine apply
	// k-of-(2k−1) receipt voting, dead-edge eviction and per-edge
	// re-pulse backoff (none of which fit in per-node machine state).
	voted bool

	lay keyLayout
	mu  sync.Mutex
	// keys is the state table: state s is its packed key, the lay.words
	// words at s·lay.words.
	keys []uint64
	// hot holds each state's query letter λ̂ with the Q_O bit at bit 31,
	// so the per-step accessors decode no key.
	hot []uint32
	// ids is the intern table: linear probing over the hash of the key
	// words, each slot a state ID plus one (0 is empty).
	ids []uint32
	// rows holds the row word of δ̂ at state·(b+1)+count, 0 until the row
	// is built: chunk+1, offset and length of the row in the move slab
	// (see rowSlab). Row storage is chunk-allocated, so interning and row
	// construction stop allocating once the visited state space has been
	// materialized (runs with fresh seeds keep exploring new corners of
	// Q̂, and this machinery sits on the asynchronous engine's per-step
	// path); a chunk never moves once handed out.
	rows   []uint64
	chunks [][]nfsm.Move
	// cur and kbuf are key scratch: the key of the state buildRow
	// expands, and the key being interned.
	cur, kbuf []uint64
	inputs    []nfsm.State // compiled input states, parallel to source inputs
}

var (
	_ nfsm.Machine     = (*Compiled)(nil)
	_ nfsm.SingleQuery = (*Compiled)(nil)
)

// Compile applies the Theorem 3.1 synchronizer to a single-letter-query
// protocol designed for a locally synchronous environment.
func Compile(p *nfsm.Protocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	return newCompiled(p.Name+"^", p, p, false, false, false)
}

// CompileRound applies the merged Theorem 3.1 + Theorem 3.4 compiler to a
// multi-letter RoundProtocol: the result runs in the asynchronous
// environment and simulates one round of p per simulation phase.
func CompileRound(p *nfsm.RoundProtocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	return newCompiled(p.Name+"^", p, nil, true, false, false)
}

// CompileTolerant applies the αβ-hybrid synchronizer to a single-letter
// protocol: the α machinery of Compile plus the bounded re-pulse that
// repairs dropped or corrupted copies (see the package comment). The
// re-pulse timeout defaults to PhaseSteps().
func CompileTolerant(p *nfsm.Protocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	return newCompiled(p.Name+"^αβ", p, p, false, true, false)
}

// CompileRoundTolerant is the αβ-hybrid counterpart of CompileRound: a
// multi-letter RoundProtocol compiled for asynchronous execution over
// unreliable channels.
func CompileRoundTolerant(p *nfsm.RoundProtocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	return newCompiled(p.Name+"^αβ", p, nil, true, true, false)
}

// CompileVoted produces the voted tier (name^αβv) of the tolerant
// synchronizer for a single-letter protocol. The compiled state machine
// is the αβ hybrid verbatim — same states, same re-pulse cadence, same
// transition rows — so a voted machine driven through the plain
// delivery path is bit-identical to CompileTolerant's. What the voted
// flag changes is the *contract with the engine*: the executor commits
// a received letter to a port only after it wins a k-of-(2k−1) vote
// over the re-pulse stream (outvoting corrupted copies), evicts edges
// that stay silent across consecutive re-pulse firings (unsticking
// Byzantine-silent neighbors), and applies per-edge multiplicative
// backoff to the re-pulse transmissions the machine requests (see
// RePulseSource). The machine is the oracle; the engine is the decoder.
func CompileVoted(p *nfsm.Protocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	return newCompiled(p.Name+"^αβv", p, p, false, true, true)
}

// CompileRoundVoted is the voted-tier counterpart of CompileRound: a
// multi-letter RoundProtocol compiled for asynchronous execution over
// hostile channels (corruption and Byzantine silence, not just loss).
func CompileRoundVoted(p *nfsm.RoundProtocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	return newCompiled(p.Name+"^αβv", p, nil, true, true, true)
}

func newCompiled(name string, src nfsm.Machine, single nfsm.SingleQuery, scanAll, tolerant, voted bool) (*Compiled, error) {
	c := &Compiled{
		name:    name,
		src:     src,
		single:  single,
		scanAll: scanAll,
		nl:      src.NumLetters(),
		b:       src.Bound(),
		voted:   voted,
	}
	if c.NumLetters() > 1<<31 {
		return nil, fmt.Errorf("synchro: %s: |Σ| = %d letters compile to more than 2^31", name, c.nl)
	}
	if tolerant {
		c.tolerant = true
		// One full uninterrupted phase of the peer is the natural unit:
		// a healthy neighbor that merely lags catches up within a couple
		// of phases, so re-pulses are rare on reliable links, while a
		// starved edge is re-fed every PhaseSteps stalled steps.
		c.timeout = c.PhaseSteps()
	}
	c.packPlan(src.NumStates())
	c.initial = c.encLetter(-1, int(src.InitialLetter()), 0)
	// Register compiled input states: round 1 (trit 1), previous emission
	// σ₀ (the virtual round 0 transmits σ̂₀ = (ε, σ₀, 0), so the round-0
	// emission is σ₀). For the tolerant hybrid the round-(−1) component
	// is ε, so a round-1 re-pulse re-transmits σ̂₀ itself.
	c.mu.Lock()
	in := inputStates(src)
	for _, q := range in {
		p2 := 0
		if c.tolerant {
			p2 = -1
		}
		c.inputs = append(c.inputs, c.pauseStart(q, 1, int(src.InitialLetter()), p2))
	}
	c.mu.Unlock()
	return c, nil
}

func inputStates(m nfsm.Machine) []nfsm.State {
	switch p := m.(type) {
	case *nfsm.Protocol:
		return p.Input
	case *nfsm.RoundProtocol:
		return p.Input
	default:
		return []nfsm.State{m.InputState()}
	}
}

// encLetter encodes the Σ̂ letter (a, b2, j) where a and b2 range over
// Σ ∪ {ε} (−1 is ε) and j is the trit.
func (c *Compiled) encLetter(a, b2, j int) nfsm.Letter {
	return nfsm.Letter(((a+1)*(c.nl+1)+(b2+1))*3 + j)
}

// pauseGrid is the number of states in one pausing feature: one per dirty
// letter (σ, σ′) pair.
func (c *Compiled) pauseGrid() int { return (c.nl + 1) * (c.nl + 1) }

// widthOf returns the bits needed to hold values 0..max.
func widthOf(max int) uint {
	w := uint(1)
	for 1<<w <= max {
		w++
	}
	return w
}

// packPlan lays the descriptor fields out in bits (see keyLayout), one
// after the other, in ⌈bits/64⌉ words.
func (c *Compiled) packPlan(srcStates int) {
	var off uint
	next := func(width uint) field {
		f := field{off, width}
		off += width
		return f
	}
	lb, bb := widthOf(c.nl-1), widthOf(c.b)
	l := &c.lay
	l.q = next(widthOf(srcStates - 1))
	l.j = next(2)
	l.prevEmit = next(lb)
	l.feature = next(2)
	l.sigma = next(lb)
	l.pos = next(widthOf(c.pauseGrid() - 1))
	l.phi1, l.phi2, l.acc = next(bb), next(bb), next(bb)
	l.phiv = field{off, bb}
	l.nphiv = max(c.nl-1, 0)
	off += uint(l.nphiv) * bb
	if c.tolerant {
		l.prev2 = next(widthOf(c.nl)) // prev2+1 ranges over 0..|Σ|
		l.timer = next(widthOf(c.timeout - 1))
	}
	l.words = int(off+63) / 64
	c.cur = make([]uint64, l.words)
	c.kbuf = make([]uint64, l.words)
	c.ids = make([]uint32, 256)
}

// encode packs d into c.kbuf.
func (c *Compiled) encode(d *cdesc) {
	k, l := c.kbuf, &c.lay
	clear(k)
	l.q.put(k, int(d.q))
	l.j.put(k, d.j)
	l.prevEmit.put(k, d.prevEmit)
	l.feature.put(k, d.feature)
	l.sigma.put(k, d.sigma)
	l.pos.put(k, d.pos)
	l.phi1.put(k, d.phi1)
	l.phi2.put(k, d.phi2)
	l.acc.put(k, d.acc)
	if d.carry {
		for i := range l.nphiv {
			l.slot(i).put(k, l.slot(i).get(c.cur))
		}
	}
	if c.tolerant {
		l.prev2.put(k, d.prev2+1)
		l.timer.put(k, d.timer)
	}
}

// decode unpacks the scalar fields of key k; the completed counts stay
// in its slots.
func (c *Compiled) decode(k []uint64) cdesc {
	l := &c.lay
	d := cdesc{
		q:        nfsm.State(l.q.get(k)),
		j:        l.j.get(k),
		prevEmit: l.prevEmit.get(k),
		feature:  l.feature.get(k),
		sigma:    l.sigma.get(k),
		pos:      l.pos.get(k),
		phi1:     l.phi1.get(k),
		phi2:     l.phi2.get(k),
		acc:      l.acc.get(k),
	}
	if c.tolerant {
		d.prev2 = l.prev2.get(k) - 1
		d.timer = l.timer.get(k)
	}
	return d
}

// key returns state s's packed key. Callers hold c.mu; the slice is
// valid until the next state is interned.
func (c *Compiled) key(s nfsm.State) []uint64 {
	w := c.lay.words
	return c.keys[int(s)*w : int(s)*w+w]
}

func hashKey(k []uint64) uint64 {
	var h uint64
	for _, x := range k {
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}

// intern returns the canonical State for the descriptor, creating it if
// needed. Hits allocate nothing. Callers must hold c.mu.
func (c *Compiled) intern(d cdesc) nfsm.State {
	c.encode(&d)
	return c.internKey(&d)
}

// internKey returns the State whose key is c.kbuf, adding it, with d's
// hot facts and an empty δ̂ row block, if it is new. Callers must hold
// c.mu.
func (c *Compiled) internKey(d *cdesc) nfsm.State {
	mask := uint64(len(c.ids) - 1)
	i := hashKey(c.kbuf) & mask
	for ; c.ids[i] != 0; i = (i + 1) & mask {
		if s := nfsm.State(c.ids[i] - 1); slices.Equal(c.key(s), c.kbuf) {
			return s
		}
	}
	s := nfsm.State(len(c.hot))
	c.ids[i] = uint32(s) + 1
	c.keys = append(c.keys, c.kbuf...)
	h := uint32(c.queryOf(d))
	if c.src.IsOutput(d.q) {
		h |= 1 << 31
	}
	c.hot = append(c.hot, h)
	for i := 0; i <= c.b; i++ {
		c.rows = append(c.rows, 0)
	}
	if 4*len(c.hot) > 3*len(c.ids) {
		c.growIDs()
	}
	return s
}

// growIDs doubles the intern table and re-files every state.
func (c *Compiled) growIDs() {
	c.ids = make([]uint32, 2*len(c.ids))
	mask := uint64(len(c.ids) - 1)
	for s := range c.hot {
		i := hashKey(c.key(nfsm.State(s))) & mask
		for c.ids[i] != 0 {
			i = (i + 1) & mask
		}
		c.ids[i] = uint32(s) + 1
	}
}

// rowSlab returns stable storage for an n-move δ̂ row and its row word:
// the row is a span of the current chunk, and a chunk never moves once
// handed out, so a row word stays valid forever.
func (c *Compiled) rowSlab(n int) (uint64, []nfsm.Move) {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last])+n > cap(c.chunks[last]) {
		c.chunks = append(c.chunks, make([]nfsm.Move, 0, max(4096, n)))
		last++
	}
	ch := c.chunks[last]
	lo := len(ch)
	c.chunks[last] = ch[:lo+n]
	if n >= 1<<24 {
		panic(fmt.Sprintf("synchro: a δ̂ row of %d moves", n))
	}
	// chunk+1 in the high 24 bits, the offset (below 4096 unless the
	// chunk holds this row alone) in the next 16, the length in the low 24.
	return uint64(last+1)<<40 | uint64(lo)<<24 | uint64(n), ch[lo : lo+n]
}

// row returns the δ̂ row a non-zero row word names, its capacity clipped
// to its length.
func (c *Compiled) row(w uint64) []nfsm.Move {
	ch := c.chunks[w>>40-1]
	lo, n := int(w>>24&(1<<16-1)), int(w&(1<<24-1))
	return ch[lo : lo+n : lo+n]
}

// row1 slab-allocates a singleton row.
func (c *Compiled) row1(m nfsm.Move) uint64 {
	w, r := c.rowSlab(1)
	r[0] = m
	return w
}

// queryOf computes λ̂ for a descriptor.
func (c *Compiled) queryOf(d *cdesc) nfsm.Letter {
	switch d.feature {
	case featPause:
		// Dirty letters carry trit j−2 ≡ j+1 (mod 3).
		a := d.pos/(c.nl+1) - 1
		b2 := d.pos%(c.nl+1) - 1
		return c.encLetter(a, b2, (d.j+1)%3)
	case featScan1, featScan3:
		// Γ_{t−1} = {(σ′, σ, j−1) : σ′ ∈ Σ ∪ {ε}}.
		return c.encLetter(d.pos-1, d.sigma, (d.j+2)%3)
	case featScan2:
		// Γ_t = {(σ, σ″, j) : σ″ ∈ Σ ∪ {ε}}.
		return c.encLetter(d.sigma, d.pos-1, d.j)
	default:
		panic("synchro: unknown feature")
	}
}

// pauseStart interns the first pausing state of P_q × {j}. prev2 is the
// port-visible letter of two rounds back (always 0 for plain machines,
// which never read it). Callers must hold c.mu.
func (c *Compiled) pauseStart(q nfsm.State, j, prevEmit, prev2 int) nfsm.State {
	return c.intern(cdesc{q: q, j: j, prevEmit: prevEmit, prev2: prev2, feature: featPause})
}

// scanStart interns the first simulation-feature state for the phase,
// resetting to letter sigma with the completed counts of the state being
// expanded (its key is c.cur). Callers must hold c.mu.
func (c *Compiled) scanStart(d *cdesc, sigma int) nfsm.State {
	return c.intern(cdesc{
		q: d.q, j: d.j, prevEmit: d.prevEmit,
		feature: featScan1, sigma: sigma, carry: true,
	})
}

// firstSigma returns the first letter the simulation feature counts.
func (c *Compiled) firstSigma(q nfsm.State) int {
	if c.scanAll {
		return 0
	}
	return int(c.single.QueryLetter(q))
}

// NumStates implements nfsm.Machine. The value grows as states are
// materialized; it is an upper bound on every State handed out so far.
func (c *Compiled) NumStates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hot)
}

// NumLetters implements nfsm.Machine: |Σ̂| = 3(|Σ|+1)².
func (c *Compiled) NumLetters() int { return 3 * (c.nl + 1) * (c.nl + 1) }

// InitialLetter implements nfsm.Machine: σ̂₀ = (ε, σ₀, 0).
func (c *Compiled) InitialLetter() nfsm.Letter { return c.initial }

// Bound implements nfsm.Machine: the bounding parameter is unchanged.
func (c *Compiled) Bound() int { return c.b }

// InputState implements nfsm.Machine.
func (c *Compiled) InputState() nfsm.State { return c.inputs[0] }

// Inputs returns the compiled input states, parallel to the source
// protocol's input state list. Use it to translate per-node Init vectors.
func (c *Compiled) Inputs() []nfsm.State {
	return append([]nfsm.State(nil), c.inputs...)
}

// InputFor returns the compiled initial state simulating source input
// state q.
func (c *Compiled) InputFor(q nfsm.State) (nfsm.State, error) {
	for i, s := range inputStates(c.src) {
		if s == q {
			return c.inputs[i], nil
		}
	}
	return 0, fmt.Errorf("synchro: %d is not an input state of the source protocol", q)
}

// IsOutput implements nfsm.Machine: a compiled state is an output state
// exactly when the underlying state is.
func (c *Compiled) IsOutput(s nfsm.State) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hot[s]>>31 != 0
}

// Underlying returns the source-protocol state a compiled state simulates.
func (c *Compiled) Underlying(s nfsm.State) nfsm.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nfsm.State(c.lay.q.get(c.key(s)))
}

// IsPhaseStart reports whether s is the first pausing state of a
// simulation phase — a node enters such a state exactly once per
// simulated round, which lets observers count the rounds each node has
// begun (the synchronization-property tests rely on this).
func (c *Compiled) IsPhaseStart(s nfsm.State) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.key(s)
	return c.lay.feature.get(k) == featPause && c.lay.pos.get(k) == 0 && c.lay.timer.get(k) == 0
}

// DecodeStates maps a vector of compiled states back to source states.
func (c *Compiled) DecodeStates(states []nfsm.State) []nfsm.State {
	out := make([]nfsm.State, len(states))
	for i, s := range states {
		out[i] = c.Underlying(s)
	}
	return out
}

// QueryLetter implements nfsm.SingleQuery.
func (c *Compiled) QueryLetter(s nfsm.State) nfsm.Letter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nfsm.Letter(c.hot[s] & (1<<31 - 1))
}

// Moves implements nfsm.Machine: δ̂ applied to compiled state s observing
// the clamped count of its query letter.
func (c *Compiled) Moves(s nfsm.State, counts []nfsm.Count) []nfsm.Move {
	c.mu.Lock()
	defer c.mu.Unlock()
	cnt := int(counts[c.hot[s]&(1<<31-1)])
	ri := int(s)*(c.b+1) + cnt
	if w := c.rows[ri]; w != 0 {
		return c.row(w)
	}
	w := c.buildRow(s, cnt)
	// buildRow may have interned states and grown c.rows, so the
	// assignment must follow the call.
	c.rows[ri] = w
	return c.row(w)
}

// BuiltMoves returns δ̂'s row for (s, counts) when an earlier Moves call
// built it, and false otherwise. It never interns a state, so the
// engine's chain walker can look ahead without growing Q̂ past what
// the run reaches.
func (c *Compiled) BuiltMoves(s nfsm.State, counts []nfsm.Count) ([]nfsm.Move, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.rows[int(s)*(c.b+1)+int(counts[c.hot[s]&(1<<31-1)])]
	if w == 0 {
		return nil, false
	}
	return c.row(w), true
}

// buildRow computes the δ̂ row for (state, count) and returns its row
// word. It decodes the state's key into a stack descriptor and copies
// the key to c.cur, where the completed counts are read: interning a
// successor may grow the key arena. Callers hold c.mu.
func (c *Compiled) buildRow(s nfsm.State, cnt int) uint64 {
	copy(c.cur, c.key(s))
	d := c.decode(c.cur)
	eps := nfsm.NoLetter
	switch d.feature {
	case featPause:
		if cnt > 0 {
			if !c.tolerant {
				// A dirty letter is present: stay put.
				return c.row1(nfsm.Move{Next: s, Emit: eps})
			}
			// αβ hybrid: a dirty letter is present — tick the stall
			// timer instead of self-looping, and on expiry re-transmit
			// M_v(t−1) = (prev2, prevEmit, j−1) verbatim. A receiver
			// still holding that letter sees an overwrite no-op; a
			// receiver whose copy was dropped or corrupted is repaired,
			// which is what un-deadlocks two mutually stalled endpoints.
			// The timer wraps to 1, not 0, so (pos 0, timer 0) remains
			// the unique once-per-round phase-start state.
			if d.timer+1 < c.timeout {
				next := c.intern(cdesc{
					q: d.q, j: d.j, prevEmit: d.prevEmit, prev2: d.prev2,
					feature: featPause, pos: d.pos, timer: d.timer + 1,
				})
				return c.row1(nfsm.Move{Next: next, Emit: eps})
			}
			next := c.intern(cdesc{
				q: d.q, j: d.j, prevEmit: d.prevEmit, prev2: d.prev2,
				feature: featPause, pos: d.pos, timer: 1,
			})
			return c.row1(nfsm.Move{Next: next, Emit: c.encLetter(d.prev2, d.prevEmit, (d.j+2)%3)})
		}
		if d.pos+1 < c.pauseGrid() {
			next := c.intern(cdesc{
				q: d.q, j: d.j, prevEmit: d.prevEmit, prev2: d.prev2,
				feature: featPause, pos: d.pos + 1,
			})
			return c.row1(nfsm.Move{Next: next, Emit: eps})
		}
		// Pausing complete: enter the simulation feature.
		next := c.scanStart(&d, c.firstSigma(d.q))
		return c.row1(nfsm.Move{Next: next, Emit: eps})

	case featScan1, featScan2, featScan3:
		acc := d.acc + cnt
		if acc > c.b {
			acc = c.b // f_b(x+y) = min(f_b(x)+f_b(y), b)
		}
		if d.pos < c.nl { // more letters in this Γ pass
			next := c.intern(cdesc{
				q: d.q, j: d.j, prevEmit: d.prevEmit,
				feature: d.feature, sigma: d.sigma, pos: d.pos + 1,
				phi1: d.phi1, phi2: d.phi2, acc: acc, carry: true,
			})
			return c.row1(nfsm.Move{Next: next, Emit: eps})
		}
		// Γ pass complete; acc is the pass total.
		switch d.feature {
		case featScan1:
			next := c.intern(cdesc{
				q: d.q, j: d.j, prevEmit: d.prevEmit,
				feature: featScan2, sigma: d.sigma,
				phi1: acc, carry: true,
			})
			return c.row1(nfsm.Move{Next: next, Emit: eps})
		case featScan2:
			next := c.intern(cdesc{
				q: d.q, j: d.j, prevEmit: d.prevEmit,
				feature: featScan3, sigma: d.sigma,
				phi1: d.phi1, phi2: acc, carry: true,
			})
			return c.row1(nfsm.Move{Next: next, Emit: eps})
		default: // featScan3
			if acc != d.phi1 {
				// A relevant port changed mid-scan: restart this letter.
				// φ₁ can only decrease, so this happens at most b times.
				return c.row1(nfsm.Move{Next: c.scanStart(&d, d.sigma), Emit: eps})
			}
			phi := d.phi1 + d.phi2
			if phi > c.b {
				phi = c.b
			}
			if c.scanAll && d.sigma+1 < c.nl {
				// Letter sigma is complete: its count takes the next
				// fixed slot, which is still zero in c.cur.
				next := cdesc{
					q: d.q, j: d.j, prevEmit: d.prevEmit,
					feature: featScan1, sigma: d.sigma + 1, carry: true,
				}
				c.encode(&next)
				c.lay.slot(d.sigma).put(c.kbuf, phi)
				return c.row1(nfsm.Move{Next: c.internKey(&next), Emit: eps})
			}
			return c.applyDelta(&d, phi)
		}
	default:
		panic("synchro: unknown feature")
	}
}

// applyDelta finishes the simulation phase: it evaluates the source δ on
// the reconstructed counts, and for every source move emits the compiled
// message M_v(t) and enters the pausing feature of the next round. The
// completed counts are read from c.cur, the expanded state's key.
//
// The components of M_v(t) are the *port-visible* letters of rounds t−1
// and t: the last letter the node actually transmitted up to that round,
// with an ε emission leaving the previous letter in place. This is what
// synchronization property (S2) requires the neighbors to observe — the
// paper's ports are persistent, so counting per-round raw emissions would
// lose every letter a temporarily silent node still presents. For
// protocols that transmit in every round the two notions coincide and
// this is the paper's construction verbatim. Callers hold c.mu.
func (c *Compiled) applyDelta(d *cdesc, lastPhi int) uint64 {
	counts := make([]nfsm.Count, c.nl)
	if c.scanAll {
		for i := range c.lay.nphiv {
			counts[i] = nfsm.Count(c.lay.slot(i).get(c.cur))
		}
		counts[c.nl-1] = nfsm.Count(lastPhi)
	} else {
		counts[d.sigma] = nfsm.Count(lastPhi)
	}
	srcMoves := c.src.Moves(d.q, counts)
	w, out := c.rowSlab(len(srcMoves))
	for i, mv := range srcMoves {
		cur := d.prevEmit // ε emission: the port keeps showing the old letter
		if mv.Emit != nfsm.NoLetter {
			cur = int(mv.Emit)
		}
		p2 := 0
		if c.tolerant {
			p2 = d.prevEmit // the a-component of the message just emitted
		}
		next := c.pauseStart(mv.Next, (d.j+1)%3, cur, p2)
		out[i] = nfsm.Move{
			Next: next,
			Emit: c.encLetter(d.prevEmit, cur, d.j),
		}
	}
	return w
}

// PhaseSteps returns an upper bound on the number of compiled steps in one
// simulation phase when no restart occurs: the pausing grid plus the scan
// passes. The Theorem 3.1 constant-overhead claim is that the async
// run-time is O(PhaseSteps · rounds); the experiment harness measures the
// realized ratio.
func (c *Compiled) PhaseSteps() int {
	letters := 1
	if c.scanAll {
		letters = c.nl
	}
	return c.pauseGrid() + letters*3*(c.nl+1)
}

// Name returns the compiled protocol's name.
func (c *Compiled) Name() string { return c.name }

// Tolerant reports whether this machine is the αβ hybrid (re-pulse on
// stall timeout) rather than the plain α synchronizer.
func (c *Compiled) Tolerant() bool { return c.tolerant }

// Timeout returns the number of consecutive stalled steps after which a
// tolerant machine re-transmits M_v(t−1); it is 0 for plain machines.
func (c *Compiled) Timeout() int { return c.timeout }

// Voted reports whether this machine is the αβv tier: a tolerant
// hybrid whose engine contract adds voted pulse decoding, dead-edge
// eviction and adaptive re-pulse backoff.
func (c *Compiled) Voted() bool { return c.voted }

// RePulseSource reports whether an emission made from state s is a
// re-pulse (a timer-expiry re-transmission of M_v(t−1) from a pausing
// state) as opposed to a fresh round message (emitted from the final
// scan state via δ̂). Engines running a voted machine gate and count
// re-pulse transmissions per edge; round messages are never gated.
func (c *Compiled) RePulseSource(s nfsm.State) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lay.feature.get(c.key(s)) == featPause
}
