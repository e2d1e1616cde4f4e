package controller

import (
	"fmt"

	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// Bus service model. DMA engines share their I/O bus at burst
// granularity (PCI-X arbitration grants bursts of a few hundred bytes
// to a few KB): concurrent transfers all make progress at max-min fair
// rates subject to bus and chip capacity. A chip receiving a
// rate-shared stream sees full-rate bursts separated by microsecond
// gaps, long enough to nap through — the energy accounting in
// account.go charges those gaps at nap power, while the
// bandwidth-mismatch idle *within* bursts (Figure 2a's 8-of-12-cycles
// waste) is charged at active power. Cross-bus streams to the same
// chip interleave their bursts, which is exactly the alignment DMA-TA
// engineers. A transfer gated by DMA-TA consumes no bus bandwidth:
// only its first request was issued, and the controller buffered it
// (Section 4.1.1).

// StartTransfer injects a DMA transfer at the current engine time.
// Callers schedule it from trace records with prioArrival.
func (c *Controller) StartTransfer(t dma.Transfer) {
	now := c.eng.Now()
	if t.Arrival != now {
		t.Arrival = now
	}
	if t.Bus < 0 || t.Bus >= c.cfg.Buses.Count {
		panic(fmt.Sprintf("controller: transfer %d on bus %d of %d", t.ID, t.Bus, c.cfg.Buses.Count))
	}
	c.accountAll(now)
	c.transfers++
	if c.cfg.Layout != nil {
		for p := 0; p < t.Pages; p++ {
			c.cfg.Layout.Observe(t.Page + memsys.PageID(p))
		}
	}
	x := c.newXfer(t)

	// The DMA-TA gating decision looks at the chip holding the
	// transfer's first page. Only the transfer's first request is ever
	// delayed; requests of transfers already in progress are not
	// (Section 4.1.1).
	cs := c.chips[c.chipOfSegmentStart(x)]
	c.noteArrival(cs, now)
	if c.taOn && !c.chipAvailable(cs) && c.gatherWorthwhile(cs) {
		c.gate(cs, x, now)
	} else {
		c.issueSegment(x, now)
	}
	c.recompute(now)
}

// noteArrival maintains the chip's EWMA DMA inter-arrival gap.
func (c *Controller) noteArrival(cs *chipState, now sim.Time) {
	if cs.lastArrival > 0 || cs.ewmaGapPs > 0 {
		gap := float64(now.Sub(cs.lastArrival))
		if cs.ewmaGapPs == 0 {
			cs.ewmaGapPs = gap
		} else {
			cs.ewmaGapPs = 0.8*cs.ewmaGapPs + 0.2*gap
		}
	}
	cs.lastArrival = now
}

// gatherWorthwhile is the run-time cost-benefit check: hold only when
// k-1 more transfers can plausibly arrive within the delay bound.
func (c *Controller) gatherWorthwhile(cs *chipState) bool {
	if c.cfg.TA.NoCostBenefit {
		return true
	}
	if cs.ewmaGapPs == 0 {
		return true // no history yet: gate optimistically
	}
	need := float64(c.kByChannel[cs.channel]-1) * cs.ewmaGapPs * 1.5
	return need <= float64(c.maxDelay)
}

// chipAvailable reports whether the chip would serve a request without
// delay: resident active, or already waking.
func (c *Controller) chipAvailable(cs *chipState) bool {
	if cs.wakePending {
		return true
	}
	return cs.chip.Resident() && cs.chip.State() == energy.Active
}

func (c *Controller) chipOfSegmentStart(x *xferState) int {
	return c.mapper.ChipOf(x.t.Page + memsys.PageID(x.pageIdx))
}

// issueSegment resolves the next chip-homogeneous run of pages under
// the current mapping and either starts its stream (chip active) or
// parks the transfer behind a wake.
func (c *Controller) issueSegment(x *xferState, now sim.Time) {
	first := x.t.Page + memsys.PageID(x.pageIdx)
	chip := c.mapper.ChipOf(first)
	pages := 1
	for x.pageIdx+pages < x.t.Pages {
		if c.mapper.ChipOf(first+memsys.PageID(pages)) != chip {
			break
		}
		pages++
	}
	x.seg = dma.Segment{Chip: chip, Page: first, Pages: pages}
	x.segSet = true
	cs := c.chips[chip]
	if cs.chip.Resident() && cs.chip.State() == energy.Active {
		c.startFlow(cs, x, now)
		return
	}
	cs.waiting = append(cs.waiting, x)
	c.scheduleWake(cs, now)
}

// startFlow begins fluid service of the current segment.
func (c *Controller) startFlow(cs *chipState, x *xferState, now sim.Time) {
	if !x.segSet {
		panic("controller: startFlow without a segment")
	}
	c.cancelPolicyTimer(cs)
	c.markDirty(cs)
	f := c.newFlow()
	*f = flow{
		x:         x,
		chip:      x.seg.Chip,
		bus:       x.t.Bus,
		remaining: float64(int64(x.seg.Pages) * int64(c.cfg.Geometry.PageBytes)),
	}
	cs.flows = append(cs.flows, f)
	cs.staleCoverage = true
	c.allFlows = append(c.allFlows, f)
}

// advanceTransfer moves past the just-completed segment: next segment,
// or completion bookkeeping.
func (c *Controller) advanceTransfer(x *xferState, now sim.Time) {
	x.pageIdx += x.seg.Pages
	x.segSet = false
	if x.remainingPages() > 0 {
		c.issueSegment(x, now)
		return
	}
	c.xferTimes.Add(now.Sub(x.t.Arrival))
	c.gatherDelays.Add(x.gatherDelay)
	c.freeXfers = append(c.freeXfers, x)
}

// newXfer takes a transfer record from the free list (or allocates one
// while the list is still cold) and initialises it for t. Records go
// back to the list when advanceTransfer finishes them, so a run holds
// at most as many as it ever had in flight at once.
func (c *Controller) newXfer(t dma.Transfer) *xferState {
	var x *xferState
	if n := len(c.freeXfers); n > 0 {
		x = c.freeXfers[n-1]
		c.freeXfers = c.freeXfers[:n-1]
	} else {
		x = new(xferState)
	}
	*x = xferState{t: t}
	return x
}

// newFlow takes a flow from the free list or allocates one; the caller
// overwrites every field. onCompletion returns drained flows.
func (c *Controller) newFlow() *flow {
	if n := len(c.freeFlows); n > 0 {
		f := c.freeFlows[n-1]
		c.freeFlows = c.freeFlows[:n-1]
		return f
	}
	return new(flow)
}

// gate holds a transfer whose first pending request found the chip in
// a low-power mode (Section 4.1.1). The first request deposits its
// slack credit; release happens on gather, on slack exhaustion, on the
// hard delay bound, or when something else activates the chip.
func (c *Controller) gate(cs *chipState, x *xferState, now sim.Time) {
	x.gatedAt = now
	cs.gated = append(cs.gated, x)
	c.nGated++
	if c.nGated > c.PeakGated {
		c.PeakGated = c.nGated
	}
	c.slack += c.muT // the first request arrived
	c.ensureEpoch(now)
	c.checkRelease(cs, now)
}

// distinctGatedBuses counts buses with at least one gated transfer on
// the chip.
func (c *Controller) distinctGatedBuses(cs *chipState) int {
	seen := c.busSeenScratch
	for i := range seen {
		seen[i] = false
	}
	n := 0
	for _, x := range cs.gated {
		if !seen[x.t.Bus] {
			seen[x.t.Bus] = true
			n++
		}
	}
	return n
}

// maxPerBus returns m = max_i n_i over the chip's gated transfers.
func (c *Controller) maxPerBus(cs *chipState) int {
	counts := c.busCountScratch
	for i := range counts {
		counts[i] = 0
	}
	m := 0
	for _, x := range cs.gated {
		counts[x.t.Bus]++
		if counts[x.t.Bus] > m {
			m = counts[x.t.Bus]
		}
	}
	return m
}

// checkRelease applies Section 4.1.2: release the chip's gated
// transfers when k distinct buses are represented (full utilization is
// attainable), when the pessimistic queueing cost n*U/2 reaches the
// available slack, or when the oldest transfer hits the hard delay
// bound ("the access delay exceeds a threshold value").
func (c *Controller) checkRelease(cs *chipState, now sim.Time) {
	n := len(cs.gated)
	if n == 0 {
		return
	}
	k := c.kByChannel[cs.channel]
	if c.distinctGatedBuses(cs) >= k {
		c.RelGathered += int64(n)
		c.release(cs, now)
		return
	}
	for _, x := range cs.gated {
		if now.Sub(x.gatedAt) >= c.maxDelay {
			c.RelMaxDelay += int64(n)
			c.release(cs, now)
			return
		}
	}
	m := c.maxPerBus(cs)
	r := c.cfg.Buses.Count
	groups := (r + k - 1) / k
	u := float64(m) * float64(c.cfg.Buses.BeatGap()) * float64(groups) // the paper's T is one bus beat
	if float64(n)*u/2 >= c.slack {
		c.RelSlack += int64(n)
		c.release(cs, now)
	}
}

// release starts the gathered transfers: their buffered first requests
// are acknowledged and the streams proceed in lockstep behind one
// shared wake. The wake's transition delay is charged against the
// slack when the wake begins.
func (c *Controller) release(cs *chipState, now sim.Time) {
	n := len(cs.gated)
	if n == 0 {
		return
	}
	gated := cs.gated
	cs.gated = cs.gated[:0]
	c.nGated -= n
	for _, x := range gated {
		x.gatherDelay += now.Sub(x.gatedAt)
		c.issueSegment(x, now)
	}
}

// ensureEpoch arms the epoch timer when gated transfers exist.
func (c *Controller) ensureEpoch(now sim.Time) {
	if c.epochEvt.Valid() || c.nGated == 0 {
		return
	}
	c.epochEvt = c.eng.SchedulePrio(now.Add(c.cfg.TA.EpochLength), prioEpoch, c.onEpochFn)
}

// onEpoch charges the pessimistic epoch cost (epochLength * pending)
// and re-evaluates every gating chip.
func (c *Controller) onEpoch(e *sim.Engine) {
	now := e.Now()
	c.accountAll(now)
	if c.nGated > 0 {
		c.slack -= float64(c.cfg.TA.EpochLength) * float64(c.nGated)
		for _, cs := range c.chips {
			if len(cs.gated) > 0 {
				c.checkRelease(cs, now)
			}
		}
	}
	if c.nGated > 0 {
		c.epochEvt = c.eng.SchedulePrio(now.Add(c.cfg.TA.EpochLength), prioEpoch, c.onEpochFn)
	}
	c.recompute(now)
}

// MarkActivePages sets busy[p] for every page of an unfinished
// transfer (flowing, waiting, or gated); the layout manager must not
// migrate those. It only sets entries, so one page bitmap can collect
// the union over several controllers; the caller clears it.
func (c *Controller) MarkActivePages(busy []bool) {
	mark := func(x *xferState) {
		for p := x.pageIdx; p < x.t.Pages; p++ {
			busy[x.t.Page+memsys.PageID(p)] = true
		}
	}
	for _, f := range c.allFlows {
		mark(f.x)
	}
	for _, cs := range c.chips {
		for _, x := range cs.gated {
			mark(x)
		}
		for _, x := range cs.waiting {
			mark(x)
		}
	}
}
