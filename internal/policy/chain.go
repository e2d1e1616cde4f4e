package policy

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// ModelValidator is implemented by policies that constrain which
// power-state machines they can drive. The controller checks it (in
// preference to the plain Validate) against the resolved energy.Model
// before a run, so a 4-state chain cannot silently mis-drive a 5-state
// DDR4 machine.
type ModelValidator interface {
	ValidateForModel(m *energy.Model) error
}

// Chain is the dynamic threshold policy: a demotion chain with one
// idleness threshold per state, sized by the technology's state
// machine. Thresholds[i] is the idle time in state i before demotion
// to state i+1; a shorter chain simply stops early (deeper states
// unused).
type Chain struct {
	// Label is the reported policy name; empty means "dynamic".
	Label string
	// Thresholds, one per demotion step.
	Thresholds []sim.Duration
}

// ChainFor returns the technology's default demotion chain: the
// model's calibrated thresholds, one per demotion step. For the
// default RDRAM model they are 10 ns (16 memory cycles, on the order
// of the 20-30 cycles the paper quotes as the best active->low-power
// setting), 100 ns and 2 us.
func ChainFor(m *energy.Model) *Chain {
	return &Chain{Thresholds: append([]sim.Duration(nil), m.Thresholds...)}
}

// NextStep implements Policy.
func (c *Chain) NextStep(s energy.State) (sim.Duration, energy.State, bool) {
	if int(s) < len(c.Thresholds) {
		return c.Thresholds[s], s + 1, true
	}
	return 0, s, false
}

// Name implements Policy.
func (c *Chain) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "dynamic"
}

// Validate rejects nonsensical threshold chains.
func (c *Chain) Validate() error {
	for i, th := range c.Thresholds {
		if th < 0 {
			return fmt.Errorf("policy: negative threshold %v at chain step %d", th, i)
		}
	}
	return nil
}

// ValidateForModel implements ModelValidator: the chain must not
// demote past the model's deepest state.
func (c *Chain) ValidateForModel(m *energy.Model) error {
	if len(c.Thresholds) > m.NumStates()-1 {
		return fmt.Errorf("policy: chain with %d thresholds demotes past the %d states of model %s",
			len(c.Thresholds), m.NumStates(), m.Name)
	}
	return c.Validate()
}

// ValidateForModel implements ModelValidator: the park mode must be a
// state of the machine.
func (p *Static) ValidateForModel(m *energy.Model) error {
	if int(p.Mode) >= m.NumStates() {
		return fmt.Errorf("policy: static park mode %d beyond %s (deepest state of model %s)",
			int(p.Mode), m.StateName(m.Deepest()), m.Name)
	}
	return nil
}
