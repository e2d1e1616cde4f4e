package policy

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// Chain is the dynamic threshold policy: a demotion chain with one
// idleness threshold per state, sized by the technology's state
// machine. Thresholds[i] is the idle time in state i before demotion
// to state i+1; a shorter chain simply stops early (deeper states
// unused).
type Chain struct {
	// Thresholds, one per demotion step.
	Thresholds []sim.Duration
}

// ChainFor returns the technology's default demotion chain: the
// model's calibrated thresholds, one per demotion step (10 ns, 100 ns
// and 2 us for the paper's RDRAM part).
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

// Validate implements Policy: thresholds must be non-negative, and the
// chain must not demote past the model's deepest state.
func (c *Chain) Validate(m *energy.Model) error {
	if len(c.Thresholds) > m.NumStates()-1 {
		return fmt.Errorf("policy: chain with %d thresholds demotes past the %d states of model %s",
			len(c.Thresholds), m.NumStates(), m.Name)
	}
	for i, th := range c.Thresholds {
		if th < 0 {
			return fmt.Errorf("policy: negative threshold %v at chain step %d", th, i)
		}
	}
	return nil
}
