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
// the resulting step table from then on.
type Policy interface {
	NextStep(s energy.State) (wait sim.Duration, next energy.State, ok bool)
	Name() string
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

// Name implements Policy.
func (p *Static) Name() string { return "static-" + p.Mode.String() }

// Validate rejects park modes outside the chip's state machine.
// (Mode == Active is allowed: it degenerates to no power management,
// like AlwaysActive.)
func (p *Static) Validate() error {
	if p.Mode > energy.Powerdown {
		return fmt.Errorf("policy: static park mode %d beyond %v",
			int(p.Mode), energy.Powerdown)
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

// Name implements Policy.
func (AlwaysActive) Name() string { return "always-active" }
