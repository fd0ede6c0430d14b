// Package channel models unreliable communication links and Byzantine
// node behaviors as a deterministic execution axis. The paper's
// asynchronous model already tolerates one message pathology natively —
// ports are overwritten, not queued, so a slow reader simply loses
// intermediate letters — but the links themselves are perfectly
// reliable. A channel Model makes the remaining classical pathologies
// explicit: loss, duplication, reordering (bounded extra delay) and
// corruption, composed in any order with Stack.
//
// Like engine.Adversary, a Model is oblivious and content-seeded: every
// decision is a pure function of the transmission's coordinates
// (from, step, to, copy) and the model's seed, never of the protocol's
// coin tosses or the letter values. Two engines running the same model
// over the same transmission sequence therefore make bit-identical
// channel decisions — the property the differential and fuzz walls
// pin between the ladder and reference asynchronous executors.
//
// Byzantine behaviors (Silent, StuckAt, RandomBabbler) are the node-side
// counterpart: a Byzantine node never executes its machine and instead
// emits a behavior-chosen letter at every step. They attach per node via
// scenario.Scenario.Byzantine and ride the same channel models as honest
// traffic.
package channel

import (
	"fmt"
	"strings"

	"stoneage/internal/nfsm"
	"stoneage/internal/xrand"
)

// Decision salts separate the per-policy hash streams (same discipline
// as the adversary policies' 0x5745/0xde1a salts).
const (
	saltDrop    = 0x6c6f_7373 // "loss"
	saltDupHit  = 0x6475_7031 // "dup1": whether to duplicate
	saltDupN    = 0x6475_7032 // "dup2": how many extra copies
	saltReorder = 0x7264_6c79 // "rdly"
	saltCorrupt = 0x666c_6970 // "flip": whether to corrupt
	saltPick    = 0x7069_636b // "pick": replacement letter
	saltBabble  = 0x6261_6262 // "babb": RandomBabbler letters
)

// maxLayerFanout bounds the copies any single policy may emit per
// incoming copy (Duplicate's MaxCopies is validated against it). It
// bounds the growth of Stack's in-place expansion and sets its
// per-layer copy-coordinate stride (maxLayerFanout²), so a hostile Def
// can never turn the expansion into an allocation bomb.
const maxLayerFanout = 8

// Fate is one delivered copy of a transmission after the channel has
// acted on it: the letter that actually arrives and any extra delay on
// top of the adversary's.
type Fate struct {
	// Extra is added to the adversary delay; non-zero values (Reorder)
	// void the per-edge FIFO guarantee.
	Extra float64
	// Letter is the letter delivered (possibly corrupted).
	Letter nfsm.Letter
	// Corrupt marks a copy whose letter was rewritten by a Corrupt
	// policy. Voted engines use it to count corrupted copies that lost
	// the receipt vote (Stats.Outvoted); it never influences delivery.
	Corrupt bool
}

// Stats counts a model's interventions over one run. Engines hold one
// Stats per run and surface the counters in their results.
type Stats struct {
	// Dropped counts copies the channel eliminated.
	Dropped int64
	// Duplicated counts extra copies the channel created.
	Duplicated int64
	// Delayed counts copies a reordering policy assigned a non-zero
	// extra delay — the *attempted* reorder fates. Whether an attempt
	// materializes as an actual overtake depends on the scheduling gap
	// on that edge and is what the engines count separately (the
	// Reordered counter): under the self-pacing α-synchronizer Delayed
	// can be large while Reordered stays 0, which is how a live model
	// is distinguished from a dead one.
	Delayed int64
	// Corrupted counts letters the channel flipped.
	Corrupted int64
	// Outvoted counts corrupted copies a voted synchronizer refused to
	// commit: the receipt arrived, entered the port's vote window, and
	// was not the winning letter. Engines (not the model) increment it,
	// since only the decoder knows which copy won.
	Outvoted int64
}

// Model is one channel policy. Apply maps one incoming copy of a
// transmission to the copies leaving the policy, appended to out:
// dropping it (no append), passing it through, duplicating it, delaying
// it or rewriting its letter. The coordinates identify the transmission
// — from's step-t send toward to, copy index within the expansion so
// far — and nl is the protocol's alphabet size; every random decision
// must be a pure function of (model, coordinates), mirroring the
// obliviousness contract of engine.Adversary.
type Model interface {
	Apply(from, step, to, copy int, f Fate, nl int, out []Fate, st *Stats) []Fate
	// Reorders reports whether Apply may return non-zero Extra delays.
	// Engines use it to decide whether per-edge FIFO clamping remains
	// sound.
	Reorders() bool
	// MaxFanout bounds the copies Apply can emit per incoming copy
	// (<= maxLayerFanout for a single policy).
	MaxFanout() int
	// String names the model for results and error messages.
	String() string
}

// Expand runs one transmission through the model: the full fan-out of
// delivered copies, in delivery-schedule order, appended to buf[:0].
// Both asynchronous engines (ladder and reference) call exactly this
// helper, so their channel decisions cannot diverge.
func Expand(m Model, from, step, to int, letter nfsm.Letter, nl int, buf []Fate, st *Stats) []Fate {
	return ExpandAt(m, from, step, to, 0, letter, nl, buf, st)
}

// ExpandAt is Expand with an explicit top-level copy coordinate. Voted
// engines transmit K burst copies per edge per emission; each copy gets
// its own coordinate so the model's decisions stay independent across
// the burst, while copy 0 reproduces Expand's stream exactly (a K=1
// voted run makes bit-identical channel decisions to an αβ run).
func ExpandAt(m Model, from, step, to, copy int, letter nfsm.Letter, nl int, buf []Fate, st *Stats) []Fate {
	return m.Apply(from, step, to, copy, Fate{Letter: letter}, nl, buf[:0], st)
}

// chance derives the policy's decision uniform in [0, 1) from the
// transmission coordinates.
func chance(seed, salt uint64, from, step, to, copy int) float64 {
	return float64(draw(seed, salt, from, step, to, copy)>>11) / (1 << 53)
}

// draw is the raw 64-bit decision hash behind chance.
func draw(seed, salt uint64, from, step, to, copy int) uint64 {
	return xrand.Mix(seed, salt, uint64(from), uint64(step), uint64(to), uint64(copy))
}

// Drop loses each copy independently with probability Rate.
type Drop struct {
	// Rate is the per-copy loss probability in [0, 1].
	Rate float64
	// Seed keys the policy.
	Seed uint64
}

var _ Model = Drop{}

// Apply implements Model.
func (d Drop) Apply(from, step, to, copy int, f Fate, nl int, out []Fate, st *Stats) []Fate {
	if chance(d.Seed, saltDrop, from, step, to, copy) < d.Rate {
		st.Dropped++
		return out
	}
	return append(out, f)
}

// Reorders implements Model.
func (Drop) Reorders() bool { return false }

// MaxFanout implements Model.
func (Drop) MaxFanout() int { return 1 }

// String implements Model.
func (d Drop) String() string { return fmt.Sprintf("drop(%g)", d.Rate) }

// Duplicate delivers each copy 2..MaxCopies times with probability
// Rate. The duplicates share the incoming fate; under a FIFO channel
// (no Reorder stacked after it) they land back-to-back on an
// overwrite-only port, so duplication alone is invisible to protocol
// behavior — stacking Reorder after it is what resurrects stale
// letters.
type Duplicate struct {
	// Rate is the duplication probability in [0, 1].
	Rate float64
	// MaxCopies bounds the total copies per duplicated transmission
	// (2..maxLayerFanout; 0 selects 2).
	MaxCopies int
	// Seed keys the policy.
	Seed uint64
}

var _ Model = Duplicate{}

func (d Duplicate) maxCopies() int {
	if d.MaxCopies == 0 {
		return 2
	}
	return d.MaxCopies
}

// Apply implements Model.
func (d Duplicate) Apply(from, step, to, copy int, f Fate, nl int, out []Fate, st *Stats) []Fate {
	out = append(out, f)
	if chance(d.Seed, saltDupHit, from, step, to, copy) >= d.Rate {
		return out
	}
	extra := 1
	if mc := d.maxCopies(); mc > 2 {
		extra += int(draw(d.Seed, saltDupN, from, step, to, copy) % uint64(mc-1))
	}
	st.Duplicated += int64(extra)
	for i := 0; i < extra; i++ {
		out = append(out, f)
	}
	return out
}

// Reorders implements Model.
func (Duplicate) Reorders() bool { return false }

// MaxFanout implements Model.
func (d Duplicate) MaxFanout() int { return d.maxCopies() }

// String implements Model.
func (d Duplicate) String() string {
	return fmt.Sprintf("dup(%g,max=%d)", d.Rate, d.maxCopies())
}

// Reorder adds an independent uniform extra delay in [0, Window) to
// every copy, so deliveries on the same edge may overtake each other —
// a bounded-reordering channel. Engines detect it via Reorders and
// disable per-edge FIFO clamping.
type Reorder struct {
	// Window is the extra-delay bound (> 0), in adversary time units.
	Window float64
	// Seed keys the policy.
	Seed uint64
}

var _ Model = Reorder{}

// Apply implements Model.
func (r Reorder) Apply(from, step, to, copy int, f Fate, nl int, out []Fate, st *Stats) []Fate {
	if extra := r.Window * chance(r.Seed, saltReorder, from, step, to, copy); extra > 0 {
		f.Extra += extra
		st.Delayed++
	}
	return append(out, f)
}

// Reorders implements Model.
func (r Reorder) Reorders() bool { return r.Window > 0 }

// MaxFanout implements Model.
func (Reorder) MaxFanout() int { return 1 }

// String implements Model.
func (r Reorder) String() string { return fmt.Sprintf("reorder(%g)", r.Window) }

// Corrupt flips each copy's letter, with probability Rate, to a
// uniformly random *different* valid letter — never ε and never a
// letter outside the protocol's alphabet, so a corrupted delivery is
// indistinguishable from a legal transmission at the receiving port.
// On a one-letter alphabet there is nothing to flip to and Corrupt is
// a no-op.
type Corrupt struct {
	// Rate is the per-copy corruption probability in [0, 1].
	Rate float64
	// Seed keys the policy.
	Seed uint64
}

var _ Model = Corrupt{}

// Apply implements Model.
func (c Corrupt) Apply(from, step, to, copy int, f Fate, nl int, out []Fate, st *Stats) []Fate {
	if nl > 1 && chance(c.Seed, saltCorrupt, from, step, to, copy) < c.Rate {
		shift := 1 + int(draw(c.Seed, saltPick, from, step, to, copy)%uint64(nl-1))
		f.Letter = nfsm.Letter((int(f.Letter) + shift) % nl)
		f.Corrupt = true
		st.Corrupted++
	}
	return append(out, f)
}

// Reorders implements Model.
func (Corrupt) Reorders() bool { return false }

// MaxFanout implements Model.
func (Corrupt) MaxFanout() int { return 1 }

// String implements Model.
func (c Corrupt) String() string { return fmt.Sprintf("corrupt(%g)", c.Rate) }

// Stack composes policies in order: the copies leaving layer i enter
// layer i+1. A transmission duplicated by an early layer is dropped,
// delayed and corrupted per copy by later layers (each copy has its own
// coordinate, so decisions are independent).
type Stack []Model

var _ Model = Stack{}

// Apply implements Model. The expansion runs in place in out, with no
// scratch of its own: each layer appends its fates after the current
// ones, which then shift down over the consumed inputs.
func (s Stack) Apply(from, step, to, cp int, f Fate, nl int, out []Fate, st *Stats) []Fate {
	base := len(out)
	out = append(out, f)
	for _, layer := range s {
		end := len(out)
		for i := base; i < end; i++ {
			// The per-layer copy coordinate: incoming index within this
			// transmission's expansion, offset by the caller's copy so
			// nested stacks stay decorrelated.
			out = layer.Apply(from, step, to, cp*maxLayerFanout*maxLayerFanout+i-base, out[i], nl, out, st)
		}
		out = out[:base+copy(out[base:], out[end:])]
	}
	return out
}

// Reorders implements Model.
func (s Stack) Reorders() bool {
	for _, layer := range s {
		if layer.Reorders() {
			return true
		}
	}
	return false
}

// MaxFanout implements Model.
func (s Stack) MaxFanout() int {
	n := 1
	for _, layer := range s {
		n *= layer.MaxFanout()
	}
	return n
}

// String implements Model.
func (s Stack) String() string {
	if len(s) == 0 {
		return "reliable"
	}
	parts := make([]string, len(s))
	for i, layer := range s {
		parts[i] = layer.String()
	}
	return strings.Join(parts, "+")
}
