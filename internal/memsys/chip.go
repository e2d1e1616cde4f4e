package memsys

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// Phase distinguishes residence in a state from the transitions between
// states.
type Phase uint8

const (
	// PhaseResident: the chip is settled in State.
	PhaseResident Phase = iota
	// PhaseWaking: the chip is transitioning from a low-power state to
	// Active; it becomes resident at ReadyAt.
	PhaseWaking
	// PhaseSleeping: the chip is transitioning from Active down to
	// State; it becomes resident at ReadyAt.
	PhaseSleeping
)

func (p Phase) String() string {
	switch p {
	case PhaseResident:
		return "resident"
	case PhaseWaking:
		return "waking"
	case PhaseSleeping:
		return "sleeping"
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Chip is the power state machine and energy integrator for one memory
// device. It is a passive model: the memory controller and the
// low-level policy decide *when* to change state; the chip guarantees
// that every picosecond of simulated time is charged to exactly one
// energy category.
//
// The state machine is whatever the technology's energy.Model says it
// is: the paper's 4-state RDRAM chain, DDR4's five states or
// LPDDR4's three.
//
// While the chip is resident in Active, the controller owns the
// accounting (it knows the utilization of each piecewise-constant
// interval) and advances the chip's cursor through AccountActive.
// Low-power residence and transitions are charged by the chip itself.
type Chip struct {
	ID    int
	Meter energy.Meter
	model *energy.Model

	state   energy.State // resident state, or target while transitioning
	phase   Phase
	cursor  sim.Time // time up to which energy has been charged
	readyAt sim.Time // transition completion time when not resident

	// Statistics for the utilization factor and the wake count. The
	// paper's uf for the chip is ServingTime / TransferTime.
	Wakes        int64
	ActiveTime   sim.Duration // total time charged while resident Active
	TransferTime sim.Duration // active time during which >=1 DMA transfer was in progress
	ServingTime  sim.Duration // portion of TransferTime actually serving DMA data
	// Residency is the time spent resident in each state, indexed like
	// the model's States (micro-naps count toward the model's MicroNap
	// state; transition time is excluded).
	Residency []sim.Duration
	// StateEnergy is the resident energy per state in joules, indexed
	// like Residency. It mirrors every resident Meter charge, so
	// sum(StateEnergy) plus the transition and migration categories
	// equals the meter total (up to float summation order).
	StateEnergy []float64

	// Pending active-span components, accumulated as exact integer
	// durations and converted to joules in one Meter add per category
	// at Close. Integer accumulation makes the energy output
	// independent of how an idle stretch is split into accounting
	// spans (float p*d1 + p*d2 need not equal p*(d1+d2) bit-for-bit),
	// which is what lets the controller's dirty-set accounting charge
	// clean chips lazily yet stay bit-identical to a per-event full
	// scan.
	pendServing   sim.Duration
	pendProc      sim.Duration
	pendIdleDMA   sim.Duration
	pendThreshold sim.Duration
	pendMicroNap  sim.Duration
}

// NewChip returns a chip resident in state start at time now, driven
// by technology model m. The starting state must exist in the model's
// machine.
func NewChip(id int, start energy.State, now sim.Time, m *energy.Model) *Chip {
	if int(start) >= m.NumStates() {
		panic(fmt.Sprintf("memsys: chip %d starting state %d beyond the %d states of model %s",
			id, int(start), m.NumStates(), m.Name))
	}
	return &Chip{ID: id, model: m, state: start, phase: PhaseResident, cursor: now,
		Residency:   make([]sim.Duration, m.NumStates()),
		StateEnergy: make([]float64, m.NumStates())}
}

// State returns the resident state, or the target state while a
// transition is in flight.
func (c *Chip) State() energy.State { return c.state }

// Phase returns the chip's current phase.
func (c *Chip) Phase() Phase { return c.phase }

// Resident reports whether the chip is settled (not transitioning).
func (c *Chip) Resident() bool { return c.phase == PhaseResident }

// ReadyAt returns when an in-flight transition completes; it is only
// meaningful while not resident.
func (c *Chip) ReadyAt() sim.Time { return c.readyAt }

// Cursor returns the instant up to which the chip's energy has been
// accounted. While resident in Active, the controller advances it via
// AccountActive.
func (c *Chip) Cursor() sim.Time { return c.cursor }

func (c *Chip) checkCursor(now sim.Time) {
	if now < c.cursor {
		panic(fmt.Sprintf("memsys: chip %d accounting going backwards: cursor %v, now %v",
			c.ID, c.cursor, now))
	}
}

// chargeResident charges resident time in state s to the meter and the
// per-state ledgers. Both get the same product power * d, computed
// once: it is the value Meter.Accumulate would add. (Callers check the
// cursor first, so d is never negative.)
func (c *Chip) chargeResident(cat energy.Category, s energy.State, d sim.Duration) {
	joules := c.model.Power(s) * d.Seconds()
	c.Meter.AddJoules(cat, joules)
	c.Residency[s] += d
	c.StateEnergy[s] += joules
}

// BeginWake starts the transition from a resident low-power state to
// Active. The elapsed low-power residence is charged, the transition
// energy is charged eagerly (transitions are never aborted), and the
// completion instant is returned so the caller can schedule
// CompleteWake.
func (c *Chip) BeginWake(now sim.Time) sim.Time {
	if c.phase != PhaseResident || c.state == energy.Active {
		panic(fmt.Sprintf("memsys: chip %d BeginWake in phase %v state %s", c.ID, c.phase, c.model.StateName(c.state)))
	}
	c.checkCursor(now)
	c.chargeResident(energy.CatLowPower, c.state, now.Sub(c.cursor))
	tr := c.model.UpFrom(c.state)
	c.Meter.Accumulate(energy.CatTransition, tr.Power, tr.Time)
	c.phase = PhaseWaking
	c.readyAt = now.Add(tr.Time)
	c.cursor = c.readyAt
	c.Wakes++
	return c.readyAt
}

// CompleteWake makes the chip resident in Active. now must be the
// instant returned by BeginWake.
func (c *Chip) CompleteWake(now sim.Time) {
	if c.phase != PhaseWaking {
		panic(fmt.Sprintf("memsys: chip %d CompleteWake in phase %v", c.ID, c.phase))
	}
	if now != c.readyAt {
		panic(fmt.Sprintf("memsys: chip %d CompleteWake at %v, expected %v", c.ID, now, c.readyAt))
	}
	c.phase = PhaseResident
	c.state = energy.Active
}

// BeginSleep starts the transition from resident Active into low-power
// state to. Active time must already be fully accounted (the
// controller's cursor must equal now). Returns the completion instant.
func (c *Chip) BeginSleep(to energy.State, now sim.Time) sim.Time {
	if c.phase != PhaseResident || c.state != energy.Active {
		panic(fmt.Sprintf("memsys: chip %d BeginSleep in phase %v state %s", c.ID, c.phase, c.model.StateName(c.state)))
	}
	if to == energy.Active {
		panic("memsys: BeginSleep to Active")
	}
	c.checkCursor(now)
	if now != c.cursor {
		// Unaccounted active time would silently vanish.
		panic(fmt.Sprintf("memsys: chip %d BeginSleep with unaccounted active span [%v,%v)",
			c.ID, c.cursor, now))
	}
	tr := c.model.TransitionFor(energy.Active, to)
	c.Meter.Accumulate(energy.CatTransition, tr.Power, tr.Time)
	c.phase = PhaseSleeping
	c.state = to
	c.readyAt = now.Add(tr.Time)
	c.cursor = c.readyAt
	return c.readyAt
}

// CompleteSleep makes the chip resident in its target low-power state.
func (c *Chip) CompleteSleep(now sim.Time) {
	if c.phase != PhaseSleeping {
		panic(fmt.Sprintf("memsys: chip %d CompleteSleep in phase %v", c.ID, c.phase))
	}
	if now != c.readyAt {
		panic(fmt.Sprintf("memsys: chip %d CompleteSleep at %v, expected %v", c.ID, now, c.readyAt))
	}
	c.phase = PhaseResident
}

// Deepen moves a chip resident in one low-power state directly into a
// deeper one (a policy's demotion chain). The residence so far is
// charged; the down transition is charged with the model's entry for
// the hop.
func (c *Chip) Deepen(to energy.State, now sim.Time) sim.Time {
	if c.phase != PhaseResident || c.state == energy.Active {
		panic(fmt.Sprintf("memsys: chip %d Deepen in phase %v state %s", c.ID, c.phase, c.model.StateName(c.state)))
	}
	if to <= c.state {
		panic(fmt.Sprintf("memsys: chip %d Deepen from %s to %s is not deeper", c.ID, c.model.StateName(c.state), c.model.StateName(to)))
	}
	c.checkCursor(now)
	c.chargeResident(energy.CatLowPower, c.state, now.Sub(c.cursor))
	tr := c.model.TransitionFor(c.state, to)
	c.Meter.Accumulate(energy.CatTransition, tr.Power, tr.Time)
	c.phase = PhaseSleeping
	c.state = to
	c.readyAt = now.Add(tr.Time)
	c.cursor = c.readyAt
	return c.readyAt
}

// microNapOverheadPower approximates the transition energy of
// burst-granularity naps: a chip that naps between DMA bursts pays the
// nap entry/exit transitions once per gap. At typical microsecond gap
// lengths that averages to a few milliwatts on top of the nap power.
const microNapOverheadPower = 0.005

// AccountActive charges the active span [cursor, to) while the chip is
// resident in Active. serving is the portion spent moving DMA data,
// proc the portion spent servicing processor accesses; inTransfer
// states whether at least one DMA transfer was in progress during the
// span (the distinction between "Active Idle DMA" and "Active Idle
// Threshold" in the paper's breakdowns).
func (c *Chip) AccountActive(to sim.Time, serving, proc sim.Duration, inTransfer bool) {
	span := to.Sub(c.cursor)
	if serving < 0 || proc < 0 || serving+proc > span {
		panic(fmt.Sprintf("memsys: chip %d AccountActive serving %v + proc %v exceeds span %v",
			c.ID, serving, proc, span))
	}
	idleDMA := sim.Duration(0)
	if inTransfer {
		idleDMA = span - serving - proc
	}
	c.AccountActiveSpan(to, serving, proc, idleDMA, 0)
}

// AccountActiveSpan is the detailed form used by the burst-level bus
// model: the span decomposes into DMA serving, processor serving,
// bandwidth-mismatch idle (full active power, between requests of
// in-flight bursts), micro-nap time (the chip naps through the gaps
// between bursts of rate-shared streams), and the remainder, which is
// threshold idle. TransferTime — the uf denominator — covers serving
// plus mismatch idle: the time some DMA transfer keeps the chip in
// active mode.
func (c *Chip) AccountActiveSpan(to sim.Time, serving, proc, idleDMA, microNap sim.Duration) {
	if c.phase != PhaseResident || c.state != energy.Active {
		panic(fmt.Sprintf("memsys: chip %d AccountActiveSpan in phase %v state %s", c.ID, c.phase, c.model.StateName(c.state)))
	}
	c.checkCursor(to)
	span := to.Sub(c.cursor)
	if serving < 0 || proc < 0 || idleDMA < 0 || microNap < 0 {
		panic(fmt.Sprintf("memsys: chip %d negative component in span accounting", c.ID))
	}
	threshold := span - serving - proc - idleDMA - microNap
	if threshold < 0 {
		panic(fmt.Sprintf("memsys: chip %d span %v overfull: serving %v proc %v idleDMA %v nap %v",
			c.ID, span, serving, proc, idleDMA, microNap))
	}
	c.pendServing += serving
	c.pendProc += proc
	c.pendIdleDMA += idleDMA
	c.pendThreshold += threshold
	c.pendMicroNap += microNap
	c.ActiveTime += span - microNap
	c.TransferTime += serving + idleDMA
	c.ServingTime += serving
	c.Residency[energy.Active] += span - microNap
	c.Residency[c.model.MicroNap] += microNap
	c.cursor = to
}

// flushActive converts the accumulated active-span durations to joules
// — one Meter add per category, in a fixed order — and zeroes them.
func (c *Chip) flushActive() {
	active := c.model.Power(energy.Active)
	napPower := c.model.Power(c.model.MicroNap)
	c.Meter.Accumulate(energy.CatServing, active, c.pendServing)
	c.Meter.Accumulate(energy.CatProcServing, active, c.pendProc)
	c.Meter.Accumulate(energy.CatIdleDMA, active, c.pendIdleDMA)
	c.Meter.Accumulate(energy.CatIdleThreshold, active, c.pendThreshold)
	c.Meter.Accumulate(energy.CatLowPower, napPower, c.pendMicroNap)
	c.Meter.Accumulate(energy.CatTransition, microNapOverheadPower, c.pendMicroNap)
	c.StateEnergy[energy.Active] += active*c.pendServing.Seconds() +
		active*c.pendProc.Seconds() + active*c.pendIdleDMA.Seconds() +
		active*c.pendThreshold.Seconds()
	c.StateEnergy[c.model.MicroNap] += napPower * c.pendMicroNap.Seconds()
	c.pendServing, c.pendProc, c.pendIdleDMA, c.pendThreshold, c.pendMicroNap = 0, 0, 0, 0, 0
}

// Close flushes the open span at the end of a simulation. A chip left
// resident in a low-power state is charged its residence; a chip left
// Active is charged threshold-idle for the tail (the controller flushes
// transfer intervals itself before closing). Close also flushes the
// pending active-span energy, so the Meter is complete only after
// Close — read breakdowns after Close, never before.
func (c *Chip) Close(now sim.Time) {
	defer c.flushActive()
	if c.phase != PhaseResident {
		// Transition energy was charged eagerly and the cursor already
		// sits at the completion instant; nothing left to do even if
		// the simulation ends mid-transition.
		return
	}
	c.checkCursor(now)
	switch {
	case c.state == energy.Active:
		c.AccountActive(now, 0, 0, false)
	default:
		c.chargeResident(energy.CatLowPower, c.state, now.Sub(c.cursor))
		c.cursor = now
	}
}
