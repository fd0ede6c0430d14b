package engine

import "stoneage/internal/xrand"

// Adversary is an oblivious adversarial policy (Section 2): it fixes every
// step length L_{v,t} and every delivery delay D_{v,t,u} as a function of
// the coordinates alone, independent of the protocol's coin tosses.
// Implementations must return strictly positive finite values; they should
// keep values in (0, 1] so that the paper's time-unit normalization (divide
// by the maximum parameter) is directly comparable across policies.
type Adversary interface {
	// StepLength returns L_{v,t}, the length of step t of node v.
	StepLength(node, step int) float64
	// Delay returns D_{v,t,u}, the delivery delay of the message
	// transmitted by node v at step t toward neighbor u.
	Delay(from, step, to int) float64
}

// TieFree is an optional Adversary capability gating the asynchronous
// executor's parking fast path (silent-chain virtualization and spin
// replay). An adversary may declare TieFreeTimes when
//
//   - every delivery delay carries independent random mantissa entropy
//     (values of the form k/2⁵³ with k drawn from the full 53-bit
//     range), so a delivery almost surely never shares its exact
//     float64 time with any step — a channel model's extra delay is 0
//     or fresh entropy too (channel.Model), and duplicate copies
//     sharing a time tie only one another, in the same push order in
//     both engines; and
//   - every node's step length is either fresh-entropy per step (its
//     step times then almost surely never tie anything) or constant
//     for that node, with distinct constants distinguishable in the
//     top 44 bits of their float64 representation.
//
// Under this contract the only event pairs that can share an exact
// time are steps of constant-step-length nodes, and the reference
// engine's push-order tie-break for those is derivable without
// materializing every push: larger current step length first (its push
// happened strictly earlier), then the chain origin on equal lengths
// (equal-length chains recurse to the pushes that began them: the
// initial pushes in node order, or a scenario batch's restarts and
// wakes, the later origin first). The executor encodes exactly that
// into the step events' tie keys (see stepKey), so parking — which
// elides and reorders pushes — still pops the reference engine's
// sequence event for event. Policies whose step lengths vary per step
// over commensurable values (Synchronous, Drift) must not declare it.
// The tie key's rank field is 20 bits wide, so a run parks only while
// its node count plus its scenario's restart and wake mutations stays
// below 2²⁰ (larger runs are fully materialized); the differential and
// fuzz walls would surface any violation as a mismatch against the
// reference engine.
type TieFree interface {
	TieFreeTimes() bool
}

// StepBatcher is an optional Adversary fast path: StepLengths fills
// buf[i] with StepLength(node, from+i) for consecutive step indices.
// Implementations must be bit-identical to per-call StepLength — the
// executor mixes the two freely (batching the parked-node replay loop,
// calling StepLength elsewhere) and the differential tests compare the
// resulting runs against the reference engine's per-call sequence.
// Hoisting the per-node part of the hash derivation out of the loop is
// what makes replaying millions of skipped steps cheap.
type StepBatcher interface {
	StepLengths(node, from int, buf []float64)
}

// Synchronous is the degenerate policy in which every step lasts exactly
// one time unit and every delivery takes exactly one time unit. It is the
// natural baseline for overhead measurements.
type Synchronous struct{}

var _ Adversary = Synchronous{}

// StepLength implements Adversary.
func (Synchronous) StepLength(int, int) float64 { return 1 }

// Delay implements Adversary.
func (Synchronous) Delay(int, int, int) float64 { return 1 }

// unitFloat derives a deterministic value in (0, 1] from coordinates.
func unitFloat(coords ...uint64) float64 {
	return float64(xrand.Mix(coords...)>>11+1) / (1 << 53)
}

// UniformRandom draws every parameter independently and uniformly from
// (lo, hi] ⊆ (0, 1], deterministically from its seed.
type UniformRandom struct {
	// Seed keys the policy.
	Seed uint64
	// MinStep and MaxStep bound step lengths; zero values select (0, 1].
	MinStep, MaxStep float64
	// MinDelay and MaxDelay bound delays; zero values select (0, 1].
	MinDelay, MaxDelay float64
}

var (
	_ Adversary   = UniformRandom{}
	_ TieFree     = UniformRandom{}
	_ StepBatcher = UniformRandom{}
)

// TieFreeTimes implements TieFree: every parameter is a fresh 53-bit
// uniform draw.
func (UniformRandom) TieFreeTimes() bool { return true }

// StepLengths implements StepBatcher, bit-identical to StepLength with
// the (seed, salt, node) prefix of the hash chain hoisted out of the
// loop.
func (a UniformRandom) StepLengths(node, from int, buf []float64) {
	pre := xrand.Mix(a.Seed, 0x5745, uint64(node))
	for i := range buf {
		u := float64(xrand.MixWord(pre, uint64(from+i))>>11+1) / (1 << 53)
		buf[i] = scaled(u, a.MinStep, a.MaxStep)
	}
}

func scaled(u, lo, hi float64) float64 {
	if hi <= 0 {
		hi = 1
	}
	if lo < 0 || lo > hi {
		lo = 0
	}
	return lo + u*(hi-lo)
}

// StepLength implements Adversary.
func (a UniformRandom) StepLength(node, step int) float64 {
	return scaled(unitFloat(a.Seed, 0x5745, uint64(node), uint64(step)), a.MinStep, a.MaxStep)
}

// Delay implements Adversary.
func (a UniformRandom) Delay(from, step, to int) float64 {
	return scaled(unitFloat(a.Seed, 0xde1a, uint64(from), uint64(step), uint64(to)), a.MinDelay, a.MaxDelay)
}

// Skew partitions the nodes into a fast half and a slow half: fast nodes
// take steps of length Ratio (default 1/16) while slow nodes take unit
// steps, with uniformly random delays. It stresses the synchronizer's
// pausing feature: fast nodes must stall for slow neighbors.
type Skew struct {
	// Seed keys the delay randomness.
	Seed uint64
	// Ratio is the fast-node step length in (0, 1]; zero selects 1/16.
	Ratio float64
}

var (
	_ Adversary = Skew{}
	_ TieFree   = Skew{}
)

// TieFreeTimes implements TieFree: step lengths are per-node constants
// (Ratio for the fast half, 1 for the slow half) and delays carry
// fresh 53-bit entropy.
func (Skew) TieFreeTimes() bool { return true }

// StepLength implements Adversary.
func (a Skew) StepLength(node, step int) float64 {
	r := a.Ratio
	if r <= 0 || r > 1 {
		r = 1.0 / 16
	}
	if node%2 == 0 {
		return r
	}
	return 1
}

// Delay implements Adversary.
func (a Skew) Delay(from, step, to int) float64 {
	return unitFloat(a.Seed, 0x534b, uint64(from), uint64(step), uint64(to))
}

// Overwriter makes even-indexed nodes step two orders of magnitude faster
// than odd-indexed nodes while deliveries are nearly instantaneous, so a
// fast sender writes many letters into a slow receiver's port between two
// of the receiver's steps — earlier letters are overwritten unobserved. It
// exercises the "messages can be lost" clause of the model (footnote 4).
type Overwriter struct {
	// Seed keys the jitter that breaks event ties.
	Seed uint64
}

var (
	_ Adversary   = Overwriter{}
	_ TieFree     = Overwriter{}
	_ StepBatcher = Overwriter{}
)

// TieFreeTimes implements TieFree: delays always carry a fresh 53-bit
// jitter term, and step lengths are per-node either fresh-entropy
// (even nodes) or the constant 1 (odd nodes) — the constant-length
// clause of the contract. Odd nodes therefore tie at integer times
// constantly, which is exactly what the step tie keys reproduce.
func (Overwriter) TieFreeTimes() bool { return true }

// StepLengths implements StepBatcher (bit-identical to StepLength).
func (a Overwriter) StepLengths(node, from int, buf []float64) {
	if node%2 != 0 {
		for i := range buf {
			buf[i] = 1
		}
		return
	}
	pre := xrand.Mix(a.Seed, 0x6f77, uint64(node))
	for i := range buf {
		u := float64(xrand.MixWord(pre, uint64(from+i))>>11+1) / (1 << 53)
		buf[i] = 0.01 + 0.005*u
	}
}

// StepLength implements Adversary.
func (a Overwriter) StepLength(node, step int) float64 {
	if node%2 == 0 {
		return 0.01 + 0.005*unitFloat(a.Seed, 0x6f77, uint64(node), uint64(step))
	}
	return 1
}

// Delay implements Adversary.
func (a Overwriter) Delay(from, step, to int) float64 {
	return 0.005 + 0.005*unitFloat(a.Seed, 0x6f64, uint64(from), uint64(step), uint64(to))
}

// Drift gives every node a smoothly varying step length with a
// node-dependent phase, so the relative speeds of neighbors keep changing
// over the execution — no static fast/slow partition a protocol could
// accidentally exploit.
type Drift struct {
	// Seed keys the per-node phases.
	Seed uint64
	// Period is the number of steps per speed cycle; zero selects 64.
	Period int
}

var _ Adversary = Drift{}

// StepLength implements Adversary.
func (a Drift) StepLength(node, step int) float64 {
	period := a.Period
	if period <= 0 {
		period = 64
	}
	phase := int(xrand.Mix(a.Seed, 0xd1f7, uint64(node)) % uint64(period))
	// Triangle wave over [0.1, 1].
	pos := (step + phase) % period
	half := period / 2
	var frac float64
	if pos < half {
		frac = float64(pos) / float64(half)
	} else {
		frac = float64(period-pos) / float64(period-half)
	}
	return 0.1 + 0.9*frac
}

// Delay implements Adversary.
func (a Drift) Delay(from, step, to int) float64 {
	return unitFloat(a.Seed, 0xd1fd, uint64(from), uint64(step), uint64(to))
}

// NamedAdversaries returns the standard policy suite used by the
// experiment harness, keyed by name, all seeded from the given seed.
func NamedAdversaries(seed uint64) map[string]Adversary {
	return map[string]Adversary{
		"sync":       Synchronous{},
		"uniform":    UniformRandom{Seed: seed},
		"skew":       Skew{Seed: seed},
		"overwriter": Overwriter{Seed: seed},
		"drift":      Drift{Seed: seed},
	}
}
