package synchro

import (
	"fmt"
	"slices"

	"stoneage/internal/nfsm"
)

// CheckStates verifies every state c has interned: its decoded fields are
// in range, its completed-count slots past those it holds are zero (so
// the fixed slots stay injective), the decoded descriptor re-encodes to
// the same key and re-interns to the state's own ID without adding a
// state, and the accessors agree with the decoded fields.
func CheckStates(c *Compiled) error {
	for s := range nfsm.State(c.NumStates()) {
		c.mu.Lock()
		n := len(c.hot)
		copy(c.cur, c.key(s))
		d := c.decode(c.cur)
		held := 0 // completed counts the state holds: letters < sigma of a multi-letter scan
		if c.scanAll && d.feature != featPause {
			held = d.sigma
		}
		var err error
		for i := held; i < c.lay.nphiv && err == nil; i++ {
			if v := c.lay.slot(i).get(c.cur); v != 0 {
				err = fmt.Errorf("state %d (%+v): completed-count slot %d holds %d past sigma", s, d, i, v)
			}
		}
		d.carry = true
		c.encode(&d)
		if err == nil && !slices.Equal(c.kbuf, c.cur) {
			err = fmt.Errorf("state %d (%+v): key %x re-encodes to %x", s, d, c.cur, c.kbuf)
		}
		if err == nil {
			if got := c.internKey(&d); got != s || len(c.hot) != n {
				err = fmt.Errorf("state %d (%+v) re-interns to %d (%d states, was %d)", s, d, got, len(c.hot), n)
			}
		}
		query, output := c.queryOf(&d), c.src.IsOutput(d.q)
		c.mu.Unlock()
		if err != nil {
			return err
		}
		if d.q < 0 || int(d.q) >= c.src.NumStates() || d.j > 2 || d.prevEmit >= c.nl || d.feature > featScan3 ||
			d.sigma >= c.nl || d.pos >= c.pauseGrid() || d.phi1 > c.b || d.phi2 > c.b || d.acc > c.b ||
			d.prev2 >= c.nl || (c.tolerant && d.timer >= c.timeout) {
			return fmt.Errorf("state %d decodes to out-of-range fields %+v", s, d)
		}
		pause := d.feature == featPause
		switch {
		case c.Underlying(s) != d.q:
			return fmt.Errorf("state %d: Underlying %d, decoded q %d", s, c.Underlying(s), d.q)
		case c.IsPhaseStart(s) != (pause && d.pos == 0 && d.timer == 0):
			return fmt.Errorf("state %d (%+v): IsPhaseStart %v", s, d, c.IsPhaseStart(s))
		case c.RePulseSource(s) != pause:
			return fmt.Errorf("state %d (%+v): RePulseSource %v", s, d, c.RePulseSource(s))
		case c.QueryLetter(s) != query:
			return fmt.Errorf("state %d (%+v): QueryLetter %d, decoded λ̂ %d", s, d, c.QueryLetter(s), query)
		case c.IsOutput(s) != output:
			return fmt.Errorf("state %d (%+v): IsOutput %v, source %v", s, d, c.IsOutput(s), output)
		}
	}
	return nil
}

// CheckLayout verifies c's key layout against the field ranges: the
// fields are disjoint, they span exactly the bits the ranges need (|Σ|−1
// completed-count slots, and for the tolerant hybrid prev2+1 and the
// timer), in ⌈bits/64⌉ words, and a descriptor with every field and slot
// at its largest value round-trips.
func CheckLayout(c *Compiled) error {
	l := &c.lay
	lb, bb := widthOf(c.nl-1), widthOf(c.b)
	want := widthOf(c.src.NumStates()-1) + 2 + lb + 2 + lb + widthOf(c.pauseGrid()-1) + uint(3+c.nl-1)*bb
	fields := []field{l.q, l.j, l.prevEmit, l.feature, l.sigma, l.pos, l.phi1, l.phi2, l.acc}
	if c.tolerant {
		want += widthOf(c.nl) + widthOf(c.timeout-1)
		fields = append(fields, l.prev2, l.timer)
	}
	for i := range l.nphiv {
		fields = append(fields, l.slot(i))
	}
	used := make([]bool, 64*l.words)
	var span uint
	for _, f := range fields {
		for b := f.off; b < f.off+f.width; b++ {
			if b >= uint(len(used)) || used[b] {
				return fmt.Errorf("field %+v overlaps another or leaves the %d-word key", f, l.words)
			}
			used[b] = true
		}
		span = max(span, f.off+f.width)
	}
	if span != want || l.words != int(want+63)/64 {
		return fmt.Errorf("layout spans %d bits in %d words, the field ranges need %d", span, l.words, want)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	d := cdesc{
		q: nfsm.State(c.src.NumStates() - 1), j: 2, prevEmit: c.nl - 1, feature: featScan3,
		sigma: c.nl - 1, pos: c.pauseGrid() - 1, phi1: c.b, phi2: c.b, acc: c.b, carry: true,
	}
	if c.tolerant {
		d.prev2, d.timer = c.nl-1, c.timeout-1
	}
	clear(c.cur)
	for i := range c.nl - 1 {
		l.slot(i).put(c.cur, c.b)
	}
	c.encode(&d)
	got := c.decode(c.kbuf)
	got.carry = true
	if got != d {
		return fmt.Errorf("largest descriptor %+v decodes to %+v", d, got)
	}
	for i := range c.nl - 1 {
		if v := l.slot(i).get(c.kbuf); v != c.b {
			return fmt.Errorf("completed-count slot %d of the largest descriptor decodes to %d, want %d", i, v, c.b)
		}
	}
	return nil
}

// KeyWords reports the words per packed key of c.
func KeyWords(c *Compiled) int { return c.lay.words }
