// Package policy implements the low-level memory power-management
// policies that the paper's DMA-aware techniques sit on top of.
//
// The baseline throughout the evaluation is the dynamic threshold
// policy of Lebeck et al. (ASPLOS 2000): a chip that has been idle for
// a threshold amount of time transitions to the next lower power mode,
// with a separate threshold per mode (Chain, built by ChainFor from the
// technology's calibrated thresholds). Static policies, which park an
// idle chip in one fixed mode, are provided for comparison; the paper
// notes both are compatible with DMA-TA/PL.
package policy

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// Policy tells the memory controller how to manage an idle chip. After
// a chip has been idle in state s for the returned wait, it should be
// sent to state next. ok=false means s is terminal: stay there until
// the next request.
//
// NextStep must depend on the state alone, never on time or history:
// the controller calls it once per state when it is built and reads
// the resulting step table from then on. Validate reports why the
// policy cannot drive model m's state machine, or nil; the controller
// calls it against the run's model before the first NextStep.
type Policy interface {
	NextStep(s energy.State) (wait sim.Duration, next energy.State, ok bool)
	Validate(m *energy.Model) error
}

// Static parks an idle chip directly in Mode and leaves it there, the
// static scheme described in Section 2.2.
type Static struct {
	Mode energy.State
}

// NextStep implements Policy.
func (p *Static) NextStep(s energy.State) (sim.Duration, energy.State, bool) {
	if s == energy.Active && p.Mode != energy.Active {
		return 0, p.Mode, true
	}
	return 0, s, false
}

// Validate implements Policy: the park mode must be a state of the
// machine. (Mode == Active is allowed: it degenerates to no power
// management, like AlwaysActive.)
func (p *Static) Validate(m *energy.Model) error {
	if int(p.Mode) >= m.NumStates() {
		return fmt.Errorf("policy: static park mode %d beyond %s (deepest state of model %s)",
			int(p.Mode), m.StateName(m.Deepest()), m.Name)
	}
	return nil
}

// AlwaysActive never powers down; it gives the no-energy-management
// performance reference (the T in the paper's performance guarantee).
type AlwaysActive struct{}

// NextStep implements Policy.
func (AlwaysActive) NextStep(energy.State) (sim.Duration, energy.State, bool) {
	return 0, energy.Active, false
}

// Validate implements Policy: every model has an operating state.
func (AlwaysActive) Validate(*energy.Model) error { return nil }
