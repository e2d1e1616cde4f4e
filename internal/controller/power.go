package controller

import (
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// Power-step event model. A policy step begins a down transition and
// arms the next step at readyAt + wait in the same event; nothing
// fires when the transition completes. The chip stays in its sleeping
// phase until the first code that looks at it at or after readyAt
// settles it there: the next policy step, a wake (scheduleWake) or
// Finish. Only a wake that arrives before readyAt schedules an event
// at readyAt, because the wake's slack charge counts the requests
// pending at that instant.

// settleSleep completes a down transition at its readyAt. Callers must
// know readyAt has passed.
func (c *Controller) settleSleep(cs *chipState) {
	if cs.chip.Phase() == memsys.PhaseSleeping {
		cs.chip.CompleteSleep(cs.chip.ReadyAt())
	}
}

// scheduleWake begins (or joins) a wake sequence for a chip. If a
// downward transition is in flight, the wake starts when it settles
// (hardware completes transitions; it does not abort them).
func (c *Controller) scheduleWake(cs *chipState, now sim.Time) {
	if cs.wakePending {
		return
	}
	cs.wakePending = true
	c.cancelPolicyTimer(cs)
	if cs.chip.Phase() == memsys.PhaseSleeping {
		if now < cs.chip.ReadyAt() {
			// onSleepComplete begins the wake at readyAt.
			c.eng.SchedulePrio(cs.chip.ReadyAt(), prioWake, cs.sleepFn)
			return
		}
		c.settleSleep(cs)
	}
	// The chip is resident in a low-power state here; BeginWake panics
	// on an Active or waking chip, which would mean a lost wakePending.
	c.beginWake(cs, now)
}

// onSleepComplete settles a down transition that a wake caught in
// flight, then begins that wake.
func (c *Controller) onSleepComplete(cs *chipState, e *sim.Engine) {
	now := e.Now()
	cs.chip.CompleteSleep(now)
	c.beginWake(cs, now)
}

// beginWake charges the wake's slack and starts the up transition of a
// chip resident in a low-power state.
func (c *Controller) beginWake(cs *chipState, now sim.Time) {
	c.chargeWake(cs)
	ready := cs.chip.BeginWake(now)
	c.eng.SchedulePrio(ready, prioWake, cs.wakeFn)
}

// onWakeComplete makes the chip active and drains everything that
// piled up behind the wake: queued processor accesses, gated
// transfers (an active chip never delays requests), and waiting
// segments.
func (c *Controller) onWakeComplete(cs *chipState, e *sim.Engine) {
	now := e.Now()
	c.accountAll(now)
	cs.chip.CompleteWake(now)
	cs.wakePending = false
	// The chip just became resident-Active with its cursor at now; it
	// joins the dirty set so the drained processor queue and any
	// starting flows are charged from here on.
	c.markDirty(cs)

	if cs.procQueue > 0 {
		// Processor-access slack charge (Section 4.1.3): service time
		// times the requests pending for this chip.
		if c.taOn && len(cs.gated) > 0 {
			c.slack -= float64(c.lineTime) * float64(cs.procQueue) * float64(len(cs.gated))
		}
		cs.procBusy += sim.Duration(cs.procQueue) * c.lineTime
		cs.procQueue = 0
	}
	procTail := cs.procBusy
	// Waiting transfers own their buses; their streams start now.
	for _, x := range cs.waiting {
		c.startFlow(cs, x, now)
	}
	cs.waiting = cs.waiting[:0]
	// An active chip has no reason to keep delaying gated transfers;
	// their streams start now.
	c.RelDrain += int64(len(cs.gated))
	c.release(cs, now)
	if len(cs.flows) == 0 {
		// The idleness clock starts once queued processor work drains.
		c.armPolicyTimer(cs, now.Add(procTail))
	}
	c.recompute(now)
}

// maybeIdle arms the policy chain when a chip has gone quiet.
func (c *Controller) maybeIdle(cs *chipState, now sim.Time) {
	if len(cs.flows) > 0 || len(cs.waiting) > 0 || cs.wakePending {
		return
	}
	if !cs.chip.Resident() || cs.chip.State() != energy.Active {
		return
	}
	c.armPolicyTimer(cs, now)
}

// armPolicyTimer schedules the next policy step for an idle chip.
func (c *Controller) armPolicyTimer(cs *chipState, now sim.Time) {
	c.cancelPolicyTimer(cs)
	step := &c.steps[cs.chip.State()]
	if !step.ok {
		return
	}
	cs.idleTimer = c.eng.SchedulePrio(now.Add(step.wait), prioPolicy, cs.policyFn)
}

func (c *Controller) cancelPolicyTimer(cs *chipState) {
	if cs.idleTimer.Valid() {
		c.eng.Cancel(cs.idleTimer)
	}
}

// onPolicyTimer fires after the threshold of idleness: the chip drops
// to the next lower power mode, and the step after that is armed from
// the new transition's completion instant.
func (c *Controller) onPolicyTimer(cs *chipState, e *sim.Engine) {
	now := e.Now()
	c.accountAll(now)
	// A step is armed at or after the previous step's readyAt.
	c.settleSleep(cs)
	if cs.wakePending || len(cs.flows) > 0 || !cs.chip.Resident() {
		return // raced with activity; the cancel path missed, stay up
	}
	step := &c.steps[cs.chip.State()]
	if !step.ok {
		return
	}
	if cs.chip.State() == energy.Active && cs.procBusy > 0 {
		// Outstanding processor service: the idleness clock restarts
		// when it completes.
		c.armPolicyTimer(cs, now.Add(cs.procBusy))
		return
	}
	var ready sim.Time
	if cs.chip.State() == energy.Active {
		// A clean chip's idle backlog has not been charged yet
		// (accountAll only touches the dirty set); BeginSleep requires
		// the cursor at now.
		c.settle(cs, now)
		ready = cs.chip.BeginSleep(step.next, now)
	} else {
		ready = cs.chip.Deepen(step.next, now)
	}
	c.armPolicyTimer(cs, ready)
}

// chargeWake debits the slack for the transition delay the pending
// requests are about to experience: wake latency times the number of
// requests pending for the chip (Section 4.1.2). Called immediately
// before BeginWake.
func (c *Controller) chargeWake(cs *chipState) {
	if !c.taOn {
		return
	}
	pending := len(cs.waiting) + len(cs.gated)
	if pending == 0 {
		return
	}
	wake := c.model.WakeLatencyOf(cs.chip.State())
	c.slack -= float64(wake) * float64(pending)
}

// ProcAccess injects one processor cache-line access at the current
// engine time. Processor accesses take priority over DMA (the paper's
// first solution in Section 4.1.3): they are never gated, and they
// wake sleeping chips immediately.
func (c *Controller) ProcAccess(page memsys.PageID) {
	now := c.eng.Now()
	cs := c.chips[c.mapper.ChipOf(page)]
	c.procAccesses++
	if cs.chip.Resident() && cs.chip.State() == energy.Active {
		// Joining the dirty set settles the chip's idle backlog up to
		// the last accountAll instant, so the pending processor work
		// is clamped against the same span a full scan would use.
		c.markDirty(cs)
		cs.procBusy += c.lineTime
		if c.taOn && len(cs.gated) > 0 {
			c.slack -= float64(c.lineTime) * float64(len(cs.gated))
		}
		if len(cs.flows) == 0 && !cs.wakePending {
			// The access restarts the idleness clock, which begins
			// when the outstanding service completes.
			c.armPolicyTimer(cs, now.Add(cs.procBusy))
		}
		return
	}
	cs.procQueue++
	c.procWakes++
	c.scheduleWake(cs, now)
}
