package engine

// This file implements the asynchronous engines' event core: a two-tier
// ladder (calendar) queue ordered by (time, seq), and the pooled
// per-directed-edge delivery FIFOs that keep steady-state execution free
// of heap allocations.
//
// The queue replaces the binary min-heap of the earlier engines. A heap
// pays O(log n) comparisons on every push and pop; the ladder exploits
// the structure of a discrete-event simulation — almost every push is
// either in the immediate future (deliveries, fast re-queued steps) or
// far ahead (slow nodes' next steps) — to make both operations O(1)
// amortized: near-future events live in a small sorted "bottom" batch
// served by a cursor, mid-range events in a rung of unsorted buckets
// that are sorted only when their turn comes, and far-future events in
// an unsorted "top" slab that is periodically split into a fresh rung.
//
// Exact order is load-bearing: the (time, seq) key is a total order
// (seq is unique), and every structure here serves events in exactly
// that order, so the executors built on the ladder pop the same
// sequence a heap would — the differential tests against the reference
// engines pin this down. All backing slices are retained across resets,
// so a Scratch-reusing run performs no queue allocations at all once
// the slices have grown to the run's high-water mark.

// qevent is the asynchronous executor's queue entry: either a node step
// or a port delivery.
type qevent struct {
	time float64
	seq  uint64 // FIFO-stable tiebreak for equal times
	node int32  // stepping node, or the delivery's destination
	// aux is the destination CSR edge slot of a delivery, or its
	// transmitting node when the run's scenario mutates the topology
	// (slots renumber across re-binds, so those deliveries are
	// addressed by directed edge and resolved at arrival).
	aux    int32
	letter int32  // delivery only
	epoch  uint32 // step only: the node's epoch at scheduling time
	step   bool
	// corrupt marks a delivery whose letter a channel Corrupt policy
	// rewrote (voted runs count refused corrupted receipts with it).
	corrupt bool
}

// before is the total order the ladder serves.
func (e *qevent) before(f *qevent) bool {
	if e.time != f.time {
		return e.time < f.time
	}
	return e.seq < f.seq
}

// stepLenBatch is the per-node step-length cache width of the
// asynchronous executor (see Scratch.stepLens).
const stepLenBatch = 32

// ladderBuckets is the rung width. Per-bucket population is the queue
// size over this; buckets are sorted lazily as they drain, so the
// constant trades sort batch size against bucket-scan overhead.
const ladderBuckets = 64

// ladder is the two-tier event queue. Events are routed by a single
// canonical computation (bucketOf), so the bottom/rung/top split can
// never disagree with itself about which tier a time belongs to.
type ladder struct {
	// bot is the currently served batch, sorted ascending by (time, seq)
	// and consumed from cur. Pushes that land below the draining bucket
	// boundary insert into the unserved suffix.
	bot []qevent
	cur int

	// The rung: buck[i] holds, unsorted, the events with bucketOf == i.
	// Buckets below rcur have been drained into bot. inv is
	// ladderBuckets / (rhi - rlo).
	buck [ladderBuckets][]qevent
	rlo  float64
	rhi  float64
	inv  float64
	rcur int
	rung bool

	// top is the unsorted far-future slab (time > rhi when a rung is
	// active; everything when none is). tmin/tmax frame the next rung.
	top        []qevent
	tmin, tmax float64

	// botTime is the single shared time of a rungless bottom batch (the
	// degenerate "all remaining events are simultaneous" case).
	botTime float64

	n int
}

// reset empties the queue, retaining all backing storage.
func (l *ladder) reset() {
	l.bot = l.bot[:0]
	l.cur = 0
	for i := range l.buck {
		l.buck[i] = l.buck[i][:0]
	}
	l.rung = false
	l.top = l.top[:0]
	l.n = 0
}

func (l *ladder) len() int { return l.n }

// bucketOf maps a time to its rung bucket index. Values beyond the rung
// (> rhi) report ladderBuckets. The comparison and the index derive
// from the same float computation everywhere, so routing is consistent
// under rounding: two times map to ordered indices whenever the floor
// of their scaled offsets differ, which is exactly the property the
// drain order relies on.
func (l *ladder) bucketOf(t float64) int {
	if t > l.rhi {
		return ladderBuckets
	}
	i := int((t - l.rlo) * l.inv)
	if i >= ladderBuckets {
		i = ladderBuckets - 1
	}
	return i
}

// push inserts an event. Events may not precede the most recently
// popped (time, seq) — the executors only ever schedule into the
// present or future, which the FIFO horizons and positive adversary
// parameters guarantee.
func (l *ladder) push(e qevent) {
	l.n++
	if l.rung {
		switch i := l.bucketOf(e.time); {
		case i < l.rcur:
			l.insertBot(e)
		case i < ladderBuckets:
			l.buck[i] = append(l.buck[i], e)
		default:
			l.pushTop(e)
		}
		return
	}
	if l.cur < len(l.bot) && e.time <= l.botTime {
		l.insertBot(e)
		return
	}
	l.pushTop(e)
}

func (l *ladder) pushTop(e qevent) {
	if len(l.top) == 0 || e.time < l.tmin {
		l.tmin = e.time
	}
	if len(l.top) == 0 || e.time > l.tmax {
		l.tmax = e.time
	}
	l.top = append(l.top, e)
}

// insertBot places e into the unserved suffix of the bottom batch,
// keeping it sorted. The batch is one bucket's worth of events, so the
// shift is short; a binary search finds the slot.
func (l *ladder) insertBot(e qevent) {
	lo, hi := l.cur, len(l.bot)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.bot[mid].before(&e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.bot = append(l.bot, qevent{})
	copy(l.bot[lo+1:], l.bot[lo:])
	l.bot[lo] = e
}

// ensure refills the bottom batch if it is exhausted. It reports
// whether any event remains.
func (l *ladder) ensure() bool {
	if l.cur < len(l.bot) {
		return true
	}
	l.bot = l.bot[:0]
	l.cur = 0
	for {
		if l.rung {
			for i := l.rcur; i < ladderBuckets; i++ {
				if len(l.buck[i]) == 0 {
					continue
				}
				// Copy the bucket into the bottom buffer and sort it.
				// Copying (rather than swapping slices) keeps every
				// tier's backing storage in place, so capacities
				// converge to their high-water marks and the steady
				// state stops allocating.
				l.bot = append(l.bot[:0], l.buck[i]...)
				l.buck[i] = l.buck[i][:0]
				l.rcur = i + 1
				sortEvents(l.bot)
				return true
			}
			l.rung = false
		}
		if len(l.top) == 0 {
			return false
		}
		if l.tmax > l.tmin {
			// Split the far-future slab into a fresh rung.
			l.rlo, l.rhi = l.tmin, l.tmax
			l.inv = float64(ladderBuckets) / (l.rhi - l.rlo)
			l.rcur = 0
			l.rung = true
			for _, e := range l.top {
				i := l.bucketOf(e.time)
				l.buck[i] = append(l.buck[i], e)
			}
			l.top = l.top[:0]
			continue
		}
		// Degenerate slab: every remaining event is simultaneous. Serve
		// it directly as a rungless bottom batch (ordered by seq).
		l.bot = append(l.bot[:0], l.top...)
		l.top = l.top[:0]
		l.botTime = l.tmin
		sortEvents(l.bot)
		return true
	}
}

// peekTime reports the (time) of the next event without consuming it.
func (l *ladder) peekTime() (float64, bool) {
	if !l.ensure() {
		return 0, false
	}
	return l.bot[l.cur].time, true
}

// pop removes and returns the next event in (time, seq) order.
func (l *ladder) pop() (qevent, bool) {
	if !l.ensure() {
		return qevent{}, false
	}
	e := l.bot[l.cur]
	l.cur++
	l.n--
	return e, true
}

// sortEvents sorts events ascending by (time, seq) without closures or
// interface boxing (sort.Slice would allocate on this hot path):
// insertion sort for short runs, median-of-three quicksort above.
func sortEvents(ev []qevent) {
	for len(ev) > 12 {
		// Median-of-three pivot, Hoare partition. (time, seq) is a
		// strict total order — seq is unique — so the scan loops always
		// stop at the pivot value.
		m := len(ev) / 2
		hi := len(ev) - 1
		if ev[m].before(&ev[0]) {
			ev[0], ev[m] = ev[m], ev[0]
		}
		if ev[hi].before(&ev[0]) {
			ev[0], ev[hi] = ev[hi], ev[0]
		}
		if ev[hi].before(&ev[m]) {
			ev[m], ev[hi] = ev[hi], ev[m]
		}
		p := ev[m]
		i, j := 0, hi
		for {
			for ev[i].before(&p) {
				i++
			}
			for p.before(&ev[j]) {
				j--
			}
			if i >= j {
				break
			}
			ev[i], ev[j] = ev[j], ev[i]
			i++
			j--
		}
		// Recurse into the smaller side, loop on the larger.
		if j+1 < len(ev)-(j+1) {
			sortEvents(ev[:j+1])
			ev = ev[j+1:]
		} else {
			sortEvents(ev[j+1:])
			ev = ev[:j+1]
		}
	}
	for i := 1; i < len(ev); i++ {
		e := ev[i]
		j := i - 1
		for j >= 0 && e.before(&ev[j]) {
			ev[j+1] = ev[j]
			j--
		}
		ev[j+1] = e
	}
}

// pend is one pooled in-flight delivery waiting behind the head of its
// directed edge's FIFO. Entries form intrusive per-edge lists through
// next; freed entries chain on the pool's free list, so the steady
// state recycles storage without allocating.
type pend struct {
	time   float64
	seq    uint64
	letter int32
	next   int32
}

// delivPool is the pooled per-directed-edge delivery FIFO set used by
// the asynchronous executor on runs whose slots never renumber.
// Deliveries on a directed edge are FIFO (the adversary's horizons are
// clamped monotone), so only the earliest outstanding delivery of each
// edge needs to live in the ladder; the rest wait here and are promoted
// one at a time. This
// bounds the ladder's population by the number of directed edges plus
// nodes regardless of how many deliveries the adversary keeps in
// flight, and every entry is pool-recycled.
type delivPool struct {
	pool []pend
	free int32
	// head/tail index the per-edge-slot lists (-1 when empty); live
	// marks edges whose earliest outstanding delivery is in the ladder.
	head []int32
	tail []int32
	live []bool
}

// reset prepares the pool for ne directed edge slots, retaining
// storage.
func (d *delivPool) reset(ne int) {
	d.pool = d.pool[:0]
	d.free = -1
	if cap(d.head) < ne {
		d.head = make([]int32, ne)
		d.tail = make([]int32, ne)
		d.live = make([]bool, ne)
	}
	d.head = d.head[:ne]
	d.tail = d.tail[:ne]
	d.live = d.live[:ne]
	for i := range d.head {
		d.head[i] = -1
		d.tail[i] = -1
		d.live[i] = false
	}
}

// enqueue records a delivery on edge slot k. It reports whether the
// delivery is the edge's new FIFO head and must enter the ladder now
// (otherwise it waits pooled behind the in-ladder head).
func (d *delivPool) enqueue(k int32, time float64, seq uint64, letter int32) bool {
	if !d.live[k] {
		d.live[k] = true
		return true
	}
	var i int32
	if d.free >= 0 {
		i = d.free
		d.free = d.pool[i].next
	} else {
		d.pool = append(d.pool, pend{})
		i = int32(len(d.pool) - 1)
	}
	d.pool[i] = pend{time: time, seq: seq, letter: letter, next: -1}
	if d.tail[k] >= 0 {
		d.pool[d.tail[k]].next = i
	} else {
		d.head[k] = i
	}
	d.tail[k] = i
	return false
}

// delivered consumes the in-ladder head of edge slot k and promotes the
// next pooled delivery, if any, returning it for insertion into the
// ladder.
func (d *delivPool) delivered(k int32) (pend, bool) {
	i := d.head[k]
	if i < 0 {
		d.live[k] = false
		return pend{}, false
	}
	p := d.pool[i]
	d.head[k] = p.next
	if p.next < 0 {
		d.tail[k] = -1
	}
	d.pool[i].next = d.free
	d.free = i
	return p, true
}
