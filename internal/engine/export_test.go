package engine

import (
	"reflect"
	"slices"
	"unsafe"

	"stoneage/internal/nfsm"
)

// DynMemoBytes reports the bytes worker 0's dynamic memo holds — the
// memo the asynchronous loop and the synchronous output tally use: the
// per-state record table and the side list of rows the records cannot
// pack.
func DynMemoBytes(s *Scratch) int {
	return int(unsafe.Sizeof(uint64(0)))*cap(s.dss[0].recs) + int(unsafe.Sizeof(s.dss[0].side))*cap(s.dss[0].side)
}

// StaleIdx returns the first node whose incrementally maintained
// observation index (runCounts.idx) differs from a from-scratch
// encoding of its counts, or -1 when every index is current.
func StaleIdx(s *Scratch) int {
	rc := &s.rc
	for v := range rc.idx {
		if rc.idx[v] != rc.encodeIdx(v*rc.p.nl) {
			return v
		}
	}
	return -1
}

// SteppedEvents reports how many steps the last asynchronous run on s
// materialized: step events the ladder popped and processed. The rest
// of the run's Steps were parked and replayed.
func SteppedEvents(s *Scratch) int64 { return s.async().stepped }

// DerivedHops reports how many chain-walk derivations (silentNext
// calls) the last asynchronous run on s made.
func DerivedHops(s *Scratch) int64 { return s.async().derived }

// AsyncBytes reports the bytes the asynchronous working state of s
// retains: the struct itself plus the backing storage of every slice in
// it, the ladder queue's included.
func AsyncBytes(s *Scratch) int {
	var held func(v reflect.Value) int
	held = func(v reflect.Value) int {
		switch v.Kind() {
		case reflect.Slice:
			return v.Cap() * int(v.Type().Elem().Size())
		case reflect.Array:
			n := 0
			for i := 0; i < v.Len(); i++ {
				n += held(v.Index(i))
			}
			return n
		case reflect.Struct:
			n := 0
			for i := 0; i < v.NumField(); i++ {
				n += held(v.Field(i))
			}
			return n
		}
		return 0
	}
	return int(unsafe.Sizeof(*s.async())) + held(reflect.ValueOf(s.async()).Elem())
}

// KeepsIdx reports whether runs of the machine maintain the per-node
// observation index, and whether it is a dynPack machine's memo key.
func KeepsIdx(c *MachineCode) (keeps, dynPack bool) { return c.pow != nil, c.dynPack }

// DynamicFallback lifts a single-query protocol into the equivalent
// multi-letter RoundProtocol plus one letter no node sends. Its δ
// panics on a count vector that observes that letter, so tabulation
// gives up and the machine lowers to the sharded dynamic fallback with
// a dynPack memo key: the flat kernel's branch that settles nodes. Only
// static reliable runs are safe: a Byzantine node or a corrupting
// channel may send the extra letter.
func DynamicFallback(p *nfsm.Protocol) *nfsm.RoundProtocol {
	unsent := nfsm.Letter(len(p.LetterNames))
	return &nfsm.RoundProtocol{
		Name:        p.Name + "-dynamic",
		StateNames:  p.StateNames,
		LetterNames: append(slices.Clone(p.LetterNames), "unsent"),
		Input:       p.Input,
		Output:      p.Output,
		Initial:     p.Initial,
		B:           p.B,
		Transition: func(q nfsm.State, counts []nfsm.Count) []nfsm.Move {
			if counts[unsent] != 0 {
				panic("engine: DynamicFallback observed its unsent letter")
			}
			return p.Moves(q, counts)
		},
	}
}

// SinkStates lists the states the packed lowering marks as sinks.
func SinkStates(c *MachineCode) []nfsm.State {
	var out []nfsm.State
	pc := c.packedCode()
	for q := 0; pc.ok && q < c.nq; q++ {
		if pc.sink[q>>6]>>(uint(q)&63)&1 == 1 {
			out = append(out, nfsm.State(q))
		}
	}
	return out
}

// AutoPacked reports whether an empty SyncConfig.Backend selects the
// bit-plane kernel for a static run of p.
func AutoPacked(p *Program) bool {
	packed, _ := p.packedBackend("", false)
	return packed
}
