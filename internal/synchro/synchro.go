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
	"strconv"
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

// cdesc describes one compiled state. The tuple (q, j, prevEmit, feature,
// sigma, pos, phi1, phi2, acc, phiv) determines the state completely; its
// packed (or, for wide alphabets, string) encoding keys the memoization.
// Descriptors are stored by value in the machine's state table; δ̂ rows
// live in a parallel flat table indexed state·(b+1)+count.
type cdesc struct {
	q        nfsm.State // underlying protocol state governing this phase
	j        int        // trit of the simulated round, t mod 3
	prevEmit int        // the node's port-visible letter as of round t−1
	feature  int
	sigma    int   // letter currently being counted (scan features)
	pos      int   // position within the pausing grid or within a Γ pass
	phi1     int   // φ₁ (scan2, scan3)
	phi2     int   // φ₂ (scan3)
	acc      int   // running clamped sum of the current pass
	phiv     []int // completed counts for letters < sigma (multi-letter)
	prev2    int   // tolerant pause states: port-visible letter of round t−2
	timer    int   // tolerant pause states: consecutive stalled steps here

	query  nfsm.Letter // λ̂ of this state, precomputed
	output bool        // whether the underlying q is an output state
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
	// extra fields only enter descriptors (and intern keys) when set, so
	// plain compiled machines are bit-identical to what Compile and
	// CompileRound always produced.
	tolerant bool
	timeout  int
	// voted marks the αβv tier: the state machine is the tolerant
	// hybrid unchanged, but engines running a voted machine apply
	// k-of-(2k−1) receipt voting, dead-edge eviction and per-edge
	// re-pulse backoff (none of which fit in per-node machine state).
	voted bool

	mu     sync.Mutex
	states []cdesc
	// rows holds the lazily computed δ̂ rows at state·(b+1)+count; the
	// move storage itself comes from moveSlab, so interning and row
	// construction stop allocating once the visited state space has
	// been materialized (runs with fresh seeds keep exploring new
	// corners of Q̂, and this machinery sits on the asynchronous
	// engine's per-step path).
	rows [][]nfsm.Move
	// pindex interns descriptors by packed uint64 key when every field
	// fits (packOK); index is the general string-key fallback.
	pindex map[uint64]nfsm.State
	index  map[string]nfsm.State
	packOK bool
	qb     uint // unused in packing itself; kept for the width audit
	lb     uint // bits per letter field
	pb     uint // bits for the pause-grid / scan position
	bb     uint // bits per clamped-count field
	p2b    uint // bits for prev2+1 (tolerant only)
	tb     uint // bits for the stall timer (tolerant only)
	// moveSlab chunk-allocates δ̂ row storage; rows are sub-slices with
	// capacity clipped to their length, and a chunk is never moved once
	// handed out.
	moveSlab []nfsm.Move
	inputs   []nfsm.State // compiled input states, parallel to source inputs
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
	c := newCompiled(p.Name+"^", p, p, false, false)
	return c, nil
}

// CompileRound applies the merged Theorem 3.1 + Theorem 3.4 compiler to a
// multi-letter RoundProtocol: the result runs in the asynchronous
// environment and simulates one round of p per simulation phase.
func CompileRound(p *nfsm.RoundProtocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	c := newCompiled(p.Name+"^", p, nil, true, false)
	return c, nil
}

// CompileTolerant applies the αβ-hybrid synchronizer to a single-letter
// protocol: the α machinery of Compile plus the bounded re-pulse that
// repairs dropped or corrupted copies (see the package comment). The
// re-pulse timeout defaults to PhaseSteps().
func CompileTolerant(p *nfsm.Protocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	c := newCompiled(p.Name+"^αβ", p, p, false, true)
	return c, nil
}

// CompileRoundTolerant is the αβ-hybrid counterpart of CompileRound: a
// multi-letter RoundProtocol compiled for asynchronous execution over
// unreliable channels.
func CompileRoundTolerant(p *nfsm.RoundProtocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	c := newCompiled(p.Name+"^αβ", p, nil, true, true)
	return c, nil
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
	c := newCompiled(p.Name+"^αβv", p, p, false, true)
	c.voted = true
	return c, nil
}

// CompileRoundVoted is the voted-tier counterpart of CompileRound: a
// multi-letter RoundProtocol compiled for asynchronous execution over
// hostile channels (corruption and Byzantine silence, not just loss).
func CompileRoundVoted(p *nfsm.RoundProtocol) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synchro: %w", err)
	}
	c := newCompiled(p.Name+"^αβv", p, nil, true, true)
	c.voted = true
	return c, nil
}

func newCompiled(name string, src nfsm.Machine, single nfsm.SingleQuery, scanAll, tolerant bool) *Compiled {
	c := &Compiled{
		name:    name,
		src:     src,
		single:  single,
		scanAll: scanAll,
		nl:      src.NumLetters(),
		b:       src.Bound(),
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
	return c
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

// packPlan decides whether descriptors pack injectively into a uint64
// intern key: the underlying state, trit, previous emission, feature,
// scan letter, position, the three φ accumulators, and |Σ|−1 fixed-slot
// completed counts (their number is implied by sigma, so fixed slots
// stay injective). Wide alphabets fall back to string keys.
func (c *Compiled) packPlan(srcStates int) {
	c.lb = widthOf(c.nl - 1)
	c.pb = widthOf(c.pauseGrid() - 1)
	c.bb = widthOf(c.b)
	c.qb = widthOf(srcStates - 1)
	extra := 0
	if c.nl > 1 {
		extra = (c.nl - 1) * int(c.bb)
	}
	total := int(c.qb) + 2 + int(c.lb) + 2 + int(c.lb) + int(c.pb) + 3*int(c.bb) + extra
	if c.tolerant {
		c.p2b = widthOf(c.nl) // prev2+1 ranges over 0..|Σ|
		c.tb = widthOf(c.timeout - 1)
		total += int(c.p2b) + int(c.tb)
	}
	if total <= 64 {
		c.packOK = true
		c.pindex = make(map[uint64]nfsm.State)
	} else {
		c.index = make(map[string]nfsm.State)
	}
}

// packKey encodes a descriptor into its uint64 intern key (packOK only).
func (c *Compiled) packKey(d *cdesc) uint64 {
	k := uint64(d.q)
	k = k<<2 | uint64(d.j)
	k = k<<c.lb | uint64(d.prevEmit)
	k = k<<2 | uint64(d.feature)
	k = k<<c.lb | uint64(d.sigma)
	k = k<<c.pb | uint64(d.pos)
	k = k<<c.bb | uint64(d.phi1)
	k = k<<c.bb | uint64(d.phi2)
	k = k<<c.bb | uint64(d.acc)
	for i := 0; i < c.nl-1; i++ {
		var v int
		if i < len(d.phiv) {
			v = d.phiv[i]
		}
		k = k<<c.bb | uint64(v)
	}
	if c.tolerant {
		k = k<<c.p2b | uint64(d.prev2+1)
		k = k<<c.tb | uint64(d.timer)
	}
	return k
}

// rowSlab returns stable storage for an n-move δ̂ row: a sub-slice of the
// current chunk with capacity clipped to its length (appends within a
// chunk never move it, so handed-out rows stay valid forever).
func (c *Compiled) rowSlab(n int) []nfsm.Move {
	if len(c.moveSlab)+n > cap(c.moveSlab) {
		sz := 4096
		if n > sz {
			sz = n
		}
		c.moveSlab = make([]nfsm.Move, 0, sz)
	}
	lo := len(c.moveSlab)
	c.moveSlab = c.moveSlab[:lo+n]
	return c.moveSlab[lo : lo+n : lo+n]
}

// row1 slab-allocates a singleton row.
func (c *Compiled) row1(m nfsm.Move) []nfsm.Move {
	r := c.rowSlab(1)
	r[0] = m
	return r
}

// key renders the identifying tuple of a descriptor.
func (d *cdesc) makeKey() string {
	buf := make([]byte, 0, 48)
	buf = strconv.AppendInt(buf, int64(d.q), 10)
	for _, x := range []int{d.j, d.prevEmit, d.feature, d.sigma, d.pos, d.phi1, d.phi2, d.acc, d.prev2, d.timer} {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	buf = append(buf, '/')
	for _, x := range d.phiv {
		buf = strconv.AppendInt(buf, int64(x), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// intern returns the canonical State for the descriptor, creating it if
// needed. Hits allocate nothing (descriptors are passed by value and
// keys are packed integers when the alphabet permits). Callers must
// hold c.mu.
func (c *Compiled) intern(d cdesc) nfsm.State {
	if c.packOK {
		k := c.packKey(&d)
		if s, ok := c.pindex[k]; ok {
			return s
		}
		s := c.addState(d)
		c.pindex[k] = s
		return s
	}
	k := d.makeKey()
	if s, ok := c.index[k]; ok {
		return s
	}
	s := c.addState(d)
	c.index[k] = s
	return s
}

// addState appends a new descriptor and its empty δ̂ row block. Callers
// must hold c.mu.
func (c *Compiled) addState(d cdesc) nfsm.State {
	d.output = c.src.IsOutput(d.q)
	d.query = c.queryOf(&d)
	s := nfsm.State(len(c.states))
	c.states = append(c.states, d)
	for i := 0; i <= c.b; i++ {
		c.rows = append(c.rows, nil)
	}
	return s
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
// resetting to letter sigma. Callers must hold c.mu.
func (c *Compiled) scanStart(d *cdesc, sigma int, phiv []int) nfsm.State {
	return c.intern(cdesc{
		q: d.q, j: d.j, prevEmit: d.prevEmit,
		feature: featScan1, sigma: sigma, phiv: phiv,
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
	return len(c.states)
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
	return c.states[s].output
}

// Underlying returns the source-protocol state a compiled state simulates.
func (c *Compiled) Underlying(s nfsm.State) nfsm.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.states[s].q
}

// IsPhaseStart reports whether s is the first pausing state of a
// simulation phase — a node enters such a state exactly once per
// simulated round, which lets observers count the rounds each node has
// begun (the synchronization-property tests rely on this).
func (c *Compiled) IsPhaseStart(s nfsm.State) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := &c.states[s]
	return d.feature == featPause && d.pos == 0 && d.timer == 0
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
	return c.states[s].query
}

// Moves implements nfsm.Machine: δ̂ applied to compiled state s observing
// the clamped count of its query letter.
func (c *Compiled) Moves(s nfsm.State, counts []nfsm.Count) []nfsm.Move {
	c.mu.Lock()
	defer c.mu.Unlock()
	cnt := int(counts[c.states[s].query])
	ri := int(s)*(c.b+1) + cnt
	if row := c.rows[ri]; row != nil {
		return row
	}
	row := c.buildRow(s, cnt)
	// buildRow may have interned states and grown c.rows; indexed
	// assignment into the pre-existing prefix stays valid.
	c.rows[ri] = row
	return row
}

// BuiltMoves returns δ̂'s row for (s, counts) when an earlier Moves call
// built it, and false otherwise. It never interns a state, so the
// engine's chain walker can look ahead without growing Q̂ past what
// the run reaches.
func (c *Compiled) BuiltMoves(s nfsm.State, counts []nfsm.Count) ([]nfsm.Move, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row := c.rows[int(s)*(c.b+1)+int(counts[c.states[s].query])]
	return row, row != nil
}

// buildRow computes the δ̂ row for (state, count). It works on a value
// copy of the descriptor: interning the successor state may grow the
// state table, which would invalidate a pointer into it. Callers hold
// c.mu.
func (c *Compiled) buildRow(s nfsm.State, cnt int) []nfsm.Move {
	d := c.states[s]
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
		next := c.scanStart(&d, c.firstSigma(d.q), d.phiv)
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
				phi1: d.phi1, phi2: d.phi2, acc: acc, phiv: d.phiv,
			})
			return c.row1(nfsm.Move{Next: next, Emit: eps})
		}
		// Γ pass complete; acc is the pass total.
		switch d.feature {
		case featScan1:
			next := c.intern(cdesc{
				q: d.q, j: d.j, prevEmit: d.prevEmit,
				feature: featScan2, sigma: d.sigma,
				phi1: acc, phiv: d.phiv,
			})
			return c.row1(nfsm.Move{Next: next, Emit: eps})
		case featScan2:
			next := c.intern(cdesc{
				q: d.q, j: d.j, prevEmit: d.prevEmit,
				feature: featScan3, sigma: d.sigma,
				phi1: d.phi1, phi2: acc, phiv: d.phiv,
			})
			return c.row1(nfsm.Move{Next: next, Emit: eps})
		default: // featScan3
			if acc != d.phi1 {
				// A relevant port changed mid-scan: restart this letter.
				// φ₁ can only decrease, so this happens at most b times.
				return c.row1(nfsm.Move{Next: c.scanStart(&d, d.sigma, d.phiv), Emit: eps})
			}
			phi := d.phi1 + d.phi2
			if phi > c.b {
				phi = c.b
			}
			if c.scanAll && d.sigma+1 < c.nl {
				phiv := make([]int, len(d.phiv)+1)
				copy(phiv, d.phiv)
				phiv[len(d.phiv)] = phi
				return c.row1(nfsm.Move{Next: c.scanStart(&d, d.sigma+1, phiv), Emit: eps})
			}
			return c.applyDelta(&d, phi)
		}
	default:
		panic("synchro: unknown feature")
	}
}

// applyDelta finishes the simulation phase: it evaluates the source δ on
// the reconstructed counts, and for every source move emits the compiled
// message M_v(t) and enters the pausing feature of the next round.
//
// The components of M_v(t) are the *port-visible* letters of rounds t−1
// and t: the last letter the node actually transmitted up to that round,
// with an ε emission leaving the previous letter in place. This is what
// synchronization property (S2) requires the neighbors to observe — the
// paper's ports are persistent, so counting per-round raw emissions would
// lose every letter a temporarily silent node still presents. For
// protocols that transmit in every round the two notions coincide and
// this is the paper's construction verbatim. Callers hold c.mu.
func (c *Compiled) applyDelta(d *cdesc, lastPhi int) []nfsm.Move {
	counts := make([]nfsm.Count, c.nl)
	if c.scanAll {
		for i, v := range d.phiv {
			counts[i] = nfsm.Count(v)
		}
		counts[c.nl-1] = nfsm.Count(lastPhi)
	} else {
		counts[d.sigma] = nfsm.Count(lastPhi)
	}
	srcMoves := c.src.Moves(d.q, counts)
	out := c.rowSlab(len(srcMoves))
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
	return out
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
	return c.states[s].feature == featPause
}
