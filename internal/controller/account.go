package controller

import (
	"fmt"
	"math"

	"dmamem/internal/bus"
	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// Same-instant event priorities: completions observe the interval
// first, then new arrivals, then policy timers and epochs.
//
// prioCompletion belongs to the flow-completion event alone, and a
// controller keeps at most one pending (complEvt), so it is the only
// priority-0 event on its engine: nothing else can tie with it at its
// instant and priority. That is why recompute may keep a pending
// completion whose instant did not move instead of rescheduling it
// behind later-scheduled events. A new priority-0 event breaks this.
//
// prioArrival is reserved for trace arrivals exclusively — it is also
// the priority the trace feeder (core's feeder, a sim.Feeder) reports
// from Peek, and the run loop's merge gives same-(instant, priority)
// ties to the queue, so no queued controller event may use it or the
// dispatch order against the feeder would be undefined.
const (
	prioCompletion int8 = 0
	prioArrival    int8 = 1
	prioWake       int8 = 2
	prioPolicy     int8 = 3
	prioEpoch      int8 = 4
)

// Dirty-set accounting. Every event handler calls accountAll first,
// before mutating flow or power state, so each chip's active span is
// charged with the rates that actually held over it. Charging *every*
// active chip on every event (a full scan) is wasteful, though: a chip
// with no flows and no pending processor work only accrues threshold
// idle, which is a pure function of elapsed time. Such chips are left
// out of the dirty set and their idle backlog is settled lazily — when
// they next become interesting (markDirty), when their policy timer
// fires, or at Finish.
//
// The lazy charge is exact, not approximate: chips accumulate active
// span components as integer picosecond durations and convert to
// joules once at Close (see memsys.Chip), so charging an idle stretch
// in one span or in fifty yields bit-identical energy. Chips with
// flows or pending processor work stay in the dirty set and are
// charged at every accountAll instant — their spans need the same
// boundaries as a full scan because rates, remainders, slack credits
// and the processor-work clamp all depend on per-span values.

// accountAll charges the span since the last accounting instant:
// serving time from the fluid rates, accumulated processor service,
// and the residual idle (transfer idle when a stream is in progress,
// threshold idle otherwise). It also drains flow remainders and
// deposits TA slack credits for the DMA-memory requests that arrived
// during the span.
func (c *Controller) accountAll(now sim.Time) {
	keep := c.dirtyChips[:0]
	for _, cs := range c.dirtyChips {
		if cs.chip.Resident() && cs.chip.State() == energy.Active {
			c.accountChip(cs, now)
		}
		if len(cs.flows) > 0 || cs.procBusy > 0 {
			keep = append(keep, cs)
		} else {
			cs.dirty = false
		}
	}
	for i := len(keep); i < len(c.dirtyChips); i++ {
		c.dirtyChips[i] = nil
	}
	c.dirtyChips = keep
	c.lastAccount = now
}

// markDirty adds a resident-Active chip to the dirty set. A clean chip
// has been idle since it was dropped from the set, so its backlog up
// to the last global accounting instant is settled first — that way
// its next accounted span starts at the same boundary a full scan
// would use. (Settling only to lastAccount matters: ProcAccess marks
// dirty without running accountAll, so now > lastAccount there.)
func (c *Controller) markDirty(cs *chipState) {
	if cs.dirty {
		return
	}
	if cs.chip.Resident() && cs.chip.State() == energy.Active && c.lastAccount > cs.chip.Cursor() {
		c.accountChip(cs, c.lastAccount)
	}
	cs.dirty = true
	c.dirtyChips = append(c.dirtyChips, cs)
}

// settle charges a resident-Active chip up to now. Dirty chips are
// already settled by accountAll; for clean chips this charges the pure
// idle backlog in one exact span. Used where the chip model requires a
// current cursor (BeginSleep) and at Finish.
func (c *Controller) settle(cs *chipState, now sim.Time) {
	if now > cs.chip.Cursor() {
		c.accountChip(cs, now)
	}
}

// accountChip charges one chip's span up to now (see accountAll).
func (c *Controller) accountChip(cs *chipState, now sim.Time) {
	span := now.Sub(cs.chip.Cursor())
	if span < 0 {
		panic(fmt.Sprintf("controller: chip %d span %v negative", cs.chip.ID, span))
	}
	if span == 0 {
		return
	}
	if len(cs.flows) == 0 {
		// No stream in flight: nothing is served, the burst envelope
		// and the micro-naps are empty, and the processor work (up to
		// the span) is all the active time; the rest is threshold
		// idle. This is the general charge below with every float term
		// zero, done in integers.
		proc := cs.procBusy
		cs.procBusy = 0
		if proc > span {
			// The residue carries over and is served in the next span.
			cs.procBusy = proc - span
			proc = span
			c.clampedProc++
		}
		cs.chip.AccountActiveSpan(now, 0, proc, 0, 0)
		return
	}
	// Drain flow remainders. The chip must be active for the burst
	// coverage of the span (see burstCoverage); the rest of the span
	// it naps between bursts.
	var delivered float64 // bytes in this span
	for _, f := range cs.flows {
		d := f.rate * span.Seconds()
		if d > f.remaining {
			d = f.remaining
		}
		f.remaining -= d
		delivered += d
	}
	envelope := sim.Duration(float64(span) * cs.coverage)
	serving := sim.FromSeconds(delivered / c.cfg.Geometry.ChipBandwidth)
	if serving > envelope {
		envelope = serving // rounding guard
	}
	if envelope > span {
		envelope = span
	}
	// Processor accesses have priority (Section 4.1.3) and are served
	// inside the bandwidth-mismatch gaps of the DMA envelope: in the
	// unaligned baseline they consume active-idle cycles for free
	// (category shift only), while on an aligned chip the gaps are
	// gone and the accesses extend the active time — the Figure 9
	// effect.
	idle := envelope - serving
	proc := cs.procBusy
	cs.procBusy = 0
	absorbed := proc
	if absorbed > idle {
		absorbed = idle
	}
	idleDMA := idle - absorbed
	procExtra := proc - absorbed
	if envelope+procExtra > span {
		// The span cannot absorb all the processor work; the residue
		// carries over and is served in the next span.
		spill := envelope + procExtra - span
		procExtra = span - envelope
		cs.procBusy += spill
		c.clampedProc++
	}
	// Gaps between bursts while transfers are in flight: nappable.
	microNap := span - envelope - procExtra
	cs.chip.AccountActiveSpan(now, serving, absorbed+procExtra, idleDMA, microNap)

	if c.taOn && delivered > 0 {
		// One mu*T slack credit per DMA-memory request that arrived.
		c.slack += c.muT * (delivered / c.reqBytes)
	}
}

// burstCoverage returns the fraction of a span a chip with flows must
// be active at the current rates. With f_b = (rates of bus-b streams
// into the chip) / Rb, bursts from different buses overlap
// independently, so the chip is covered for 1 - prod(1 - f_b) of the
// span. It depends only on the chip's flows and their rates, so
// recompute refreshes it when a flow starts or drains on the chip or a
// rate changes, instead of accountChip folding it on every span.
func (c *Controller) burstCoverage(cs *chipState) float64 {
	busRate := c.busRateScratch
	for i := range busRate {
		busRate[i] = 0
	}
	for _, f := range cs.flows {
		busRate[f.bus] += f.rate
	}
	notCovered := 1.0 // prod over buses of (1 - f_b)
	for _, r := range busRate {
		fb := r / c.cfg.Buses.Bandwidth
		if fb > 1 {
			fb = 1
		}
		notCovered *= 1 - fb
	}
	return 1 - notCovered
}

// completionDelay converts a flow's remaining bytes at its allocated
// rate into the time until the flow drains. The allocator guarantees
// strictly positive rates (progressive filling hands every flow its
// first-round share before any freeze), so a non-positive or NaN rate
// is a controller bug; without the guard it would flow through
// math.Ceil as +Inf and hit an implementation-defined float-to-int64
// conversion instead of failing loudly.
func completionDelay(remaining, rate float64) sim.Duration {
	if !(rate > 0) {
		panic(fmt.Sprintf("controller: flow rate %g (remaining %g bytes) is not positive", rate, remaining))
	}
	dt := sim.Duration(math.Ceil(remaining / rate * 1e12))
	if dt < 1 {
		dt = 1
	}
	return dt
}

// recompute reallocates rates after any change to the flow set and
// schedules the next completion event. Callers must have called
// accountAll(now) immediately before. Scratch buffers are reused
// across calls, so the controller steady state allocates nothing.
func (c *Controller) recompute(now sim.Time) {
	if len(c.allFlows) == 0 {
		c.eng.Cancel(c.complEvt)
		return
	}
	c.flowScratch = c.flowScratch[:0]
	for _, f := range c.allFlows {
		c.flowScratch = append(c.flowScratch, bus.Flow{Bus: f.bus, Chip: f.chip})
	}
	rates := c.alloc.Allocate(c.flowScratch)
	next := sim.Time(math.MaxInt64)
	for i, f := range c.allFlows {
		if f.rate != rates[i] {
			f.rate = rates[i]
			c.chips[f.chip].staleCoverage = true
		}
		if t := now.Add(completionDelay(f.remaining, f.rate)); t < next {
			next = t
		}
	}
	for _, f := range c.allFlows {
		if cs := c.chips[f.chip]; cs.staleCoverage {
			cs.coverage = c.burstCoverage(cs)
			cs.staleCoverage = false
		}
	}
	if next == c.complAt && c.complEvt.Valid() {
		// The pending completion already fires at next. It is the only
		// priority-0 event on the engine, so keeping it instead of
		// rescheduling leaves the dispatch order unchanged.
		return
	}
	c.eng.Cancel(c.complEvt)
	c.complEvt = c.eng.SchedulePrio(next, prioCompletion, c.onCompletionFn)
	c.complAt = next
}

// onCompletion fires when the earliest flow drains.
func (c *Controller) onCompletion(e *sim.Engine) {
	now := e.Now()
	c.accountAll(now)
	// Collect finished flows (sub-byte residue counts as done).
	const eps = 1e-3
	finished := c.finishedScratch[:0]
	kept := c.allFlows[:0]
	for _, f := range c.allFlows {
		if f.remaining <= eps {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(c.allFlows); i++ {
		c.allFlows[i] = nil
	}
	c.allFlows = kept
	if len(finished) == 0 {
		c.finishedScratch = finished
		// Numerical near-miss: reschedule from fresh remainders.
		c.recompute(now)
		return
	}
	for _, f := range finished {
		cs := c.chips[f.chip]
		removeFlow(&cs.flows, f)
		cs.staleCoverage = true
		c.advanceTransfer(f.x, now)
	}
	for _, f := range finished {
		c.maybeIdle(c.chips[f.chip], now)
	}
	// Only now are the drained flows unreferenced: advanceTransfer may
	// start new flows, which must not reuse one the loop above reads.
	for i, f := range finished {
		f.x = nil
		c.freeFlows = append(c.freeFlows, f)
		finished[i] = nil
	}
	c.finishedScratch = finished[:0]
	c.recompute(now)
}

func removeFlow(flows *[]*flow, f *flow) {
	for i, g := range *flows {
		if g == f {
			last := len(*flows) - 1
			copy((*flows)[i:], (*flows)[i+1:])
			(*flows)[last] = nil
			*flows = (*flows)[:last]
			return
		}
	}
	panic("controller: flow not found on its chip")
}
