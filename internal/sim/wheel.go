package sim

import "math/bits"

// Hierarchical timer wheel: the engine's pending-event store.
//
// Absolute picosecond times are split into 6-bit digit groups; level L
// of the wheel has 64 buckets indexed by digit L, so a bucket at level
// L spans 64^L picoseconds. Eleven levels cover the full non-negative
// Time range (66 bits), which comfortably brackets every timer horizon
// the simulator produces — nanosecond policy thresholds (level 2-3),
// microsecond epochs and transfer completions (level 3-5), millisecond
// layout rebalances (level 5-6) — without an overflow structure.
//
// An event is filed at the highest digit where its time differs from
// the wheel cursor `cur` (the instant of the last fired event): digits
// above that level match cur, so the event's bucket index at its level
// is strictly greater than cur's, and bucket indexes never wrap. Two
// invariants follow:
//
//   - The earliest pending event lives in the lowest non-empty level,
//     in that level's lowest occupied bucket. (An event at level L
//     matches cur on all digits above L and exceeds it at digit L, so
//     it sorts below anything filed at a higher level.)
//   - Advancing cur to a fired event's time can only lower the level
//     at which a pending event would file, never raise it — and only
//     the fired event's own bucket-mates (which share its digit) can
//     actually change level. fire re-files exactly those.
//
// Each event therefore moves strictly down the levels over its
// lifetime, at most once per level: schedule, cancel and fire are all
// amortized O(1), with no allocation (buckets are intrusive
// doubly-linked chains through the pooled event objects).
//
// Same-instant ordering: a level-0 bucket spans a single picosecond,
// so all events in it share their time, and the (prio, seq) tie-break
// is resolved by scanning the (short) chain for the minimum — the same
// total (at, prio, seq) order the reference heap dispatches in.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 11
)

type wheel struct {
	cur      Time // instant of the last fired event; filing reference
	count    int
	occupied [wheelLevels]uint64             // per-level bucket bitmaps
	bucket   [wheelLevels][wheelSlots]*event // chain heads
}

func newWheel() *wheel { return &wheel{} }

func (w *wheel) len() int { return w.count }

// place returns the level and bucket for an instant: the highest 6-bit
// digit group where t differs from the cursor (level 0, digit 0 when
// they are equal).
func (w *wheel) place(t Time) (level, slot int) {
	diff := uint64(t) ^ uint64(w.cur)
	if diff == 0 {
		return 0, int(uint64(t) & wheelMask)
	}
	level = (bits.Len64(diff) - 1) / wheelBits
	slot = int((uint64(t) >> uint(level*wheelBits)) & wheelMask)
	return level, slot
}

// link files an event into its bucket chain (head insertion; order
// within a chain is irrelevant, the tie-break scan handles it).
func (w *wheel) link(ev *event) {
	lvl, slot := w.place(ev.at)
	ev.level, ev.slot = int8(lvl), int8(slot)
	head := w.bucket[lvl][slot]
	ev.prev = nil
	ev.next = head
	if head != nil {
		head.prev = ev
	}
	w.bucket[lvl][slot] = ev
	w.occupied[lvl] |= 1 << uint(slot)
}

func (w *wheel) schedule(ev *event) {
	w.link(ev)
	ev.index = 0 // pending marker for EventID.Valid
	w.count++
}

// unlink removes a pending event from its bucket chain (the cancel
// path; fire also goes through here).
func (w *wheel) unlink(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		w.bucket[ev.level][ev.slot] = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if w.bucket[ev.level][ev.slot] == nil {
		w.occupied[ev.level] &^= 1 << uint(ev.slot)
	}
	ev.next, ev.prev = nil, nil
	ev.index = -1
	w.count--
}

// peekMin returns the earliest pending event by (at, prio, seq), or
// nil. It does not mutate the wheel.
func (w *wheel) peekMin() *event {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		bm := w.occupied[lvl]
		if bm == 0 {
			continue
		}
		best := w.bucket[lvl][bits.TrailingZeros64(bm)]
		for ev := best.next; ev != nil; ev = ev.next {
			if ev.less(best) {
				best = ev
			}
		}
		return best
	}
	return nil
}

// fire removes the event peekMin just returned and advances the cursor
// to its instant. The fired event's bucket-mates share its digit with
// the new cursor, so each re-files at a strictly lower level; no other
// pending event's filing is affected (see the package invariants).
func (w *wheel) fire(ev *event) {
	w.cur = ev.at
	lvl, slot := ev.level, ev.slot
	w.unlink(ev)
	if lvl == 0 {
		return
	}
	head := w.bucket[lvl][slot]
	if head == nil {
		return
	}
	w.bucket[lvl][slot] = nil
	w.occupied[lvl] &^= 1 << uint(slot)
	for head != nil {
		next := head.next
		w.link(head)
		head = next
	}
}
