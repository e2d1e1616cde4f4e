// Package energy describes the power states of a memory technology and
// accounts energy per consumption category.
//
// A Model is the one description of a technology: its states and
// their resident power, the power drawn and time taken by each
// transition, and its default demotion thresholds. The registry ships
// calibrated models; its default is the paper's Table 1 RDRAM part
// (RDRAM), identical to the numbers used by Lebeck et al.
package energy

import (
	"fmt"

	"dmamem/internal/sim"
)

// State indexes a Model's states: 0 is the operating state, deeper
// indices are lower-power states. Standby, Nap and Powerdown name the
// indices of the four-state chain the RDRAM and DDR400 models share.
type State uint8

const (
	Active State = iota
	Standby
	Nap
	Powerdown
	numStates
)

var stateNames = [numStates]string{"active", "standby", "nap", "powerdown"}

func (s State) String() string {
	if s < numStates {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Transition describes one row of a transition table: the power drawn
// while transitioning and the time the transition takes.
type Transition struct {
	Power float64      // watts while transitioning
	Time  sim.Duration // transition latency
}

// Category classifies where a joule went. The categories are exactly
// those of the paper's Figure 2(b)/Figure 6 breakdowns, plus the
// migration energy introduced by popularity-based layout and an
// explicit bucket for processor-access service.
type Category uint8

const (
	// CatServing: active mode, actually transferring DMA data.
	CatServing Category = iota
	// CatIdleDMA: active mode, idle between two DMA-memory requests of
	// in-progress transfers (the bandwidth-mismatch waste).
	CatIdleDMA
	// CatIdleThreshold: active mode, idle waiting for the policy's
	// idleness threshold to expire before powering down.
	CatIdleThreshold
	// CatTransition: transitioning between power modes.
	CatTransition
	// CatLowPower: resident in standby/nap/powerdown.
	CatLowPower
	// CatMigration: moving pages for popularity-based layout.
	CatMigration
	// CatProcServing: active mode, servicing processor cache-line
	// accesses.
	CatProcServing
	NumCategories
)

var categoryNames = [NumCategories]string{
	"active-serving", "active-idle-dma", "active-idle-threshold",
	"transition", "low-power", "migration", "proc-serving",
}

func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Breakdown is energy per category, in joules.
type Breakdown [NumCategories]float64

// Total returns the sum over all categories.
func (b *Breakdown) Total() float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o *Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Fraction returns category c as a fraction of the total, or 0 when the
// total is zero.
func (b *Breakdown) Fraction(c Category) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b[c] / t
}

func (b *Breakdown) String() string {
	s := ""
	for c := Category(0); c < NumCategories; c++ {
		if c > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.2f%%", c, 100*b.Fraction(c))
	}
	return s
}

// Meter integrates energy for one device. Callers report spans of time
// spent at a given power with a category; the meter only adds, so it
// can be shared by the chip state machine and the migration engine.
type Meter struct {
	b Breakdown
}

// Accumulate adds power*duration joules to category c. Negative
// durations panic: they are always an accounting bug.
func (m *Meter) Accumulate(c Category, power float64, d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("energy: negative duration %v for %v", d, c))
	}
	m.b[c] += power * d.Seconds()
}

// AddJoules adds a precomputed energy amount to category c.
func (m *Meter) AddJoules(c Category, joules float64) {
	if joules < 0 {
		panic(fmt.Sprintf("energy: negative energy %g for %v", joules, c))
	}
	m.b[c] += joules
}

// Breakdown returns a copy of the accumulated energy.
func (m *Meter) Breakdown() Breakdown { return m.b }
