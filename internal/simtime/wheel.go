package simtime

import "math/bits"

// wheelScheduler is the default Scheduler: a two-level hierarchical timer
// wheel over quantized virtual time with a heap overflow bucket, tuned for
// the simulator's workload (almost every event is a periodic tick a few
// milliseconds to one second ahead of now).
//
// Virtual time is quantized to ticks of 2^-wheelTickShift seconds. An event
// at instant At lives in exactly one of four places, by distance from cur
// (the tick the wheel has drained up to):
//
//	drain     tick(At) <= cur: a small (At, seq) min-heap of imminent
//	          events — the only container pop ever reads, so cross-bucket
//	          ordering reduces to heap order.
//	level 0   same 256-tick page as cur (tick>>8 == cur>>8): slot tick&255.
//	          One slot is one tick, so a slot needs no internal order.
//	level 1   same 65536-tick page as cur (tick>>16 == cur>>16): slot
//	          (tick>>8)&255. Cascaded into level 0 when cur reaches it.
//	overflow  a later 65536-tick page, or beyond the quantization horizon:
//	          an (At, seq) min-heap, cascaded page by page.
//
// Advancing never walks empty ticks: occupancy bitmaps plus TrailingZeros
// jump straight to the next occupied slot.
//
// Ordering equivalence with the reference heap: pop always serves the drain
// heap, which holds exactly the events with tick <= cur; every other
// container holds tick > cur, hence strictly later instants. Events at
// equal At share a tick, so they are always ordered by the same (At, seq)
// heap comparison the reference scheduler uses. The differential fuzz
// harness (FuzzSchedulerEquivalence) pins this bit for bit.
const (
	// wheelTickShift sets the quantum: 2^-10 s ≈ 0.98 ms per tick — fine
	// enough that same-slot events are genuinely simultaneous workloads,
	// coarse enough that a 256-tick page covers the simulator's densest
	// horizon (task periods are 8–125 ms).
	wheelTickShift = 10
	wheelSlots     = 256
	wheelSlotMask  = wheelSlots - 1
	wheelPageMask  = wheelSlots*wheelSlots - 1
	// wheelHorizon bounds the float64 tick computation: beyond 2^52 ticks
	// (~139k simulated years) quantization would lose integer precision,
	// so those events are clamped to a single far-future tick and served
	// from the overflow heap in plain (At, seq) order.
	wheelHorizon   = 1 << 52
	wheelClampTick = uint64(1) << 60
	wheelBitmapLen = wheelSlots / 64
)

// wheelTickOf quantizes an instant (never negative, never NaN — Schedule
// validates) to its wheel tick.
func wheelTickOf(at Time) uint64 {
	f := float64(at) * wheelHorizonScale
	if !(f < wheelHorizon) { // also catches +Inf
		return wheelClampTick
	}
	return uint64(f)
}

const wheelHorizonScale = 1 << wheelTickShift

type wheelScheduler struct {
	cur uint64 // ticks drained so far: pending wheel events have tick > cur
	// drain holds the imminent events (tick <= cur), ordered by (At, seq).
	drain []*event
	// Wheel slots are intrusive singly-linked lists threaded through the
	// event records (event.next), so parking an event in a slot never
	// allocates and the scheduler needs no per-slot backing storage. List
	// order is irrelevant: a level-0 slot is a single tick whose records
	// drain through the (At, seq) heap, and a level-1 record re-routes
	// purely by its own tick.
	l0    [wheelSlots]*event
	l0bit [wheelBitmapLen]uint64
	l1    [wheelSlots]*event
	l1bit [wheelBitmapLen]uint64
	// overflow holds events past the current 65536-tick page (or past the
	// quantization horizon), ordered by (At, seq).
	overflow []*event
	live     int // pending events
}

func (w *wheelScheduler) push(ev *event) {
	w.live++
	w.place(ev)
}

// place routes a record to the container its tick belongs in, relative to
// the current cur. Used by push and by cascades (which re-place records
// after cur advanced).
func (w *wheelScheduler) place(ev *event) {
	t := wheelTickOf(ev.At)
	switch {
	case t <= w.cur:
		evHeapPush(&w.drain, ev)
	case t>>8 == w.cur>>8:
		s := t & wheelSlotMask
		ev.next = w.l0[s]
		w.l0[s] = ev
		w.l0bit[s>>6] |= 1 << (s & 63)
	case t>>16 == w.cur>>16:
		s := (t >> 8) & wheelSlotMask
		ev.next = w.l1[s]
		w.l1[s] = ev
		w.l1bit[s>>6] |= 1 << (s & 63)
	default:
		evHeapPush(&w.overflow, ev)
	}
}

func (w *wheelScheduler) pop() *event {
	if !w.ensure() {
		return nil
	}
	w.live--
	return evHeapPop(&w.drain)
}

func (w *wheelScheduler) peekAt() (Time, bool) {
	if !w.ensure() {
		return 0, false
	}
	return w.drain[0].At, true
}

// ensure advances the wheel until the drain heap holds an event, returning
// false when no events remain anywhere.
func (w *wheelScheduler) ensure() bool {
	for len(w.drain) == 0 {
		if w.live == 0 {
			return false
		}
		w.advance()
	}
	return true
}

// advance moves cur forward to the next occupied tick and shifts that
// container's records toward the drain heap: the nearest level-0 slot if the
// current page has one, else the next level-1 slot cascaded down, else the
// overflow heap's next page cascaded in. live > 0 guarantees something is
// found.
func (w *wheelScheduler) advance() {
	if s := nextBit(&w.l0bit, (w.cur&wheelSlotMask)+1); s >= 0 {
		w.cur = w.cur&^wheelSlotMask | uint64(s)
		w.l0bit[s>>6] &^= 1 << (s & 63)
		head := w.l0[s]
		w.l0[s] = nil
		w.drainSlot(head)
		return
	}
	if s := nextBit(&w.l1bit, (w.cur>>8&wheelSlotMask)+1); s >= 0 {
		// Enter level-1 slot s: cur jumps to the slot's first tick, then
		// the slot's records re-place into level 0 (or the drain heap for
		// the page's tick 0).
		w.cur = w.cur&^uint64(wheelPageMask) | uint64(s)<<8
		w.l1bit[s>>6] &^= 1 << (s & 63)
		head := w.l1[s]
		w.l1[s] = nil
		w.drainSlot(head)
		return
	}
	if len(w.overflow) > 0 {
		// Cascade the overflow's next 65536-tick page into the wheel.
		// Overflow pages are strictly after cur's page, so cur only moves
		// forward.
		top := wheelTickOf(w.overflow[0].At)
		w.cur = top &^ uint64(wheelPageMask)
		for len(w.overflow) > 0 && wheelTickOf(w.overflow[0].At)>>16 == w.cur>>16 {
			w.place(evHeapPop(&w.overflow))
		}
		return
	}
	panic("simtime: wheel invariant violated: live events but every container is empty")
}

// drainSlot re-places a slot list's records relative to the advanced cur.
func (w *wheelScheduler) drainSlot(head *event) {
	for ev := head; ev != nil; {
		nxt := ev.next
		ev.next = nil
		w.place(ev)
		ev = nxt
	}
}

// nextBit returns the lowest set bit index >= from in a 256-bit occupancy
// bitmap, or -1.
func nextBit(bm *[wheelBitmapLen]uint64, from uint64) int {
	if from >= wheelSlots {
		return -1
	}
	mask := ^uint64(0) << (from & 63)
	for i := from >> 6; i < wheelBitmapLen; i++ {
		if b := bm[i] & mask; b != 0 {
			return int(i<<6) + bits.TrailingZeros64(b)
		}
		mask = ^uint64(0)
	}
	return -1
}

// evHeapPush / evHeapPop maintain a binary min-heap over (At, seq) on a
// plain slice — the drain and overflow containers. Hand-rolled instead of
// container/heap: no interface boxing on the hot path.
func evLess(a, b *event) bool {
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

func evHeapPush(h *[]*event, ev *event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func evHeapPop(h *[]*event) *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && evLess(s[l], s[m]) {
			m = l
		}
		if r < n && evLess(s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
