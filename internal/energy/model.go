package energy

import (
	"fmt"
	"math"
	"strings"

	"dmamem/internal/sim"
)

// StateSpec names one power state of a memory technology and gives its
// resident power draw. States[0] is always the operating state in which
// the device serves requests; deeper indices are progressively
// lower-power states with progressively more expensive exits.
type StateSpec struct {
	// Name identifies the state ("active", "self-refresh", ...). Names
	// are unique within a model and are the keys of the per-state
	// report breakdown.
	Name string
	// Power is the resident draw in watts.
	Power float64
}

// Model is a pluggable DRAM power-state machine: the backend interface
// behind `Simulation.MemoryTech`, and the only description of a memory
// technology the simulator reads. It supports any number of states —
// RDRAM's four, DDR4's five-deep active-power-down /
// precharge-power-down / self-refresh / maximum-power-saving chain as
// well as LPDDR4's three-state machine — each with its own transition
// costs and default demotion thresholds.
//
// Calibrated instances ship through the registry (register / Lookup /
// Techs); the zero-configuration path resolves to the paper's RDRAM
// Table 1 model (RDRAM).
type Model struct {
	// Name of the part this model was calibrated against
	// ("rdram-1600", "ddr4-2400", ...).
	Name string
	// CycleTime of the device clock.
	CycleTime sim.Duration
	// Bandwidth is the sustained transfer rate in bytes/s of one chip
	// (rank); it sets the default chip bandwidth of the geometry.
	Bandwidth float64
	// States, ordered from the operating state (index 0) to the
	// deepest low-power state. Powers must decrease strictly with
	// depth.
	States []StateSpec
	// Trans[from][to] is the transition taken when moving from state
	// `from` to state `to`. Only downward hops (to > from) and wakes
	// (to == 0) are ever taken by the controller; other entries may be
	// zero. Trans[i][i] is unused.
	Trans [][]Transition
	// MicroNap is the state the controller models burst-gap micro-naps
	// in (the paper's "nap between DMA bursts" refinement). It must be
	// a low-power state (index >= 1).
	MicroNap State
	// Thresholds is the model's default demotion chain: Thresholds[i]
	// is the idle time after which a chip in state i is demoted to
	// state i+1, so len(Thresholds) == len(States)-1. Policies may
	// override it; the default dynamic chain (policy.ChainFor) uses it
	// as-is.
	Thresholds []sim.Duration
}

// NumStates returns the number of states in the machine.
func (m *Model) NumStates() int { return len(m.States) }

// Deepest returns the lowest-power state.
func (m *Model) Deepest() State { return State(len(m.States) - 1) }

// StateName returns the name of state s, or "State(n)" when out of
// range.
func (m *Model) StateName(s State) string {
	if int(s) < len(m.States) {
		return m.States[s].Name
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// StateNames returns the state names in depth order.
func (m *Model) StateNames() []string {
	names := make([]string, len(m.States))
	for i, st := range m.States {
		names[i] = st.Name
	}
	return names
}

// StateIndex resolves a state name (case-insensitive, trimmed) to its
// index. Unknown names error loudly, listing the model's states.
func (m *Model) StateIndex(name string) (State, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for i, st := range m.States {
		if st.Name == want {
			return State(i), nil
		}
	}
	return 0, fmt.Errorf("energy: model %s has no state %q (states: %s)",
		m.Name, name, strings.Join(m.StateNames(), ", "))
}

// Power returns the resident power of state s in watts.
func (m *Model) Power(s State) float64 {
	if int(s) >= len(m.States) {
		panic(fmt.Sprintf("energy: model %s has no state %d", m.Name, s))
	}
	return m.States[s].Power
}

// TransitionFor returns the transition from state `from` to state `to`.
func (m *Model) TransitionFor(from, to State) Transition {
	if int(from) >= len(m.States) || int(to) >= len(m.States) {
		panic(fmt.Sprintf("energy: model %s has no transition %d->%d", m.Name, from, to))
	}
	return m.Trans[from][to]
}

// DownTo returns the transition entering low-power state s from the
// operating state.
func (m *Model) DownTo(s State) Transition {
	if s == Active || int(s) >= len(m.States) {
		panic(fmt.Sprintf("energy: model %s has no down transition to state %d", m.Name, s))
	}
	return m.Trans[Active][s]
}

// UpFrom returns the transition from low-power state s back to the
// operating state.
func (m *Model) UpFrom(s State) Transition {
	if s == Active || int(s) >= len(m.States) {
		panic(fmt.Sprintf("energy: model %s has no up transition from state %d", m.Name, s))
	}
	return m.Trans[s][Active]
}

// WakeLatencyOf returns the delay before a chip in state s can serve.
func (m *Model) WakeLatencyOf(s State) sim.Duration {
	if s == Active {
		return 0
	}
	return m.UpFrom(s).Time
}

// finite rejects NaN and ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate reports a descriptive error for inconsistent models: NaN or
// infinite powers, non-monotone power ordering, zero or negative exit
// latencies, a malformed transition matrix, duplicate state names, a
// MicroNap state out of range, or a demotion chain that does not match
// the state count.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("energy: model without a name")
	}
	if !finite(m.Bandwidth) || m.CycleTime <= 0 || m.Bandwidth <= 0 {
		return fmt.Errorf("energy: model %s: cycle %v, bandwidth %g", m.Name, m.CycleTime, m.Bandwidth)
	}
	if len(m.States) < 2 {
		return fmt.Errorf("energy: model %s: %d states; need the operating state plus at least one low-power state", m.Name, len(m.States))
	}
	seen := make(map[string]bool, len(m.States))
	for i, st := range m.States {
		if st.Name == "" {
			return fmt.Errorf("energy: model %s: state %d has no name", m.Name, i)
		}
		if st.Name != strings.ToLower(st.Name) {
			return fmt.Errorf("energy: model %s: state name %q must be lower-case", m.Name, st.Name)
		}
		if seen[st.Name] {
			return fmt.Errorf("energy: model %s: duplicate state name %q", m.Name, st.Name)
		}
		seen[st.Name] = true
		if !finite(st.Power) || st.Power <= 0 {
			return fmt.Errorf("energy: model %s: power of %s is %g", m.Name, st.Name, st.Power)
		}
		if i > 0 && st.Power >= m.States[i-1].Power {
			return fmt.Errorf("energy: model %s: %s power (%g W) not below %s (%g W)",
				m.Name, st.Name, st.Power, m.States[i-1].Name, m.States[i-1].Power)
		}
	}
	if len(m.Trans) != len(m.States) {
		return fmt.Errorf("energy: model %s: transition matrix has %d rows for %d states", m.Name, len(m.Trans), len(m.States))
	}
	for i, row := range m.Trans {
		if len(row) != len(m.States) {
			return fmt.Errorf("energy: model %s: transition row %s has %d entries for %d states",
				m.Name, m.States[i].Name, len(row), len(m.States))
		}
		for j, tr := range row {
			if !finite(tr.Power) || tr.Power < 0 {
				return fmt.Errorf("energy: model %s: transition %s->%s power is %g",
					m.Name, m.States[i].Name, m.States[j].Name, tr.Power)
			}
			// Entries the controller actually takes: demotions and
			// wakes need a real (positive) latency.
			if (j > i || (j == 0 && i > 0)) && tr.Time <= 0 {
				return fmt.Errorf("energy: model %s: transition %s->%s has non-positive latency %v",
					m.Name, m.States[i].Name, m.States[j].Name, tr.Time)
			}
			if tr.Time < 0 {
				return fmt.Errorf("energy: model %s: transition %s->%s has negative latency %v",
					m.Name, m.States[i].Name, m.States[j].Name, tr.Time)
			}
		}
	}
	if m.MicroNap < 1 || int(m.MicroNap) >= len(m.States) {
		return fmt.Errorf("energy: model %s: micro-nap state %d out of range [1, %d)", m.Name, m.MicroNap, len(m.States))
	}
	if len(m.Thresholds) != len(m.States)-1 {
		return fmt.Errorf("energy: model %s: %d demotion thresholds for %d states (need %d)",
			m.Name, len(m.Thresholds), len(m.States), len(m.States)-1)
	}
	for i, th := range m.Thresholds {
		if th <= 0 {
			return fmt.Errorf("energy: model %s: threshold %s->%s is %v",
				m.Name, m.States[i].Name, m.States[i+1].Name, th)
		}
	}
	return nil
}

// chainModel assembles a Model with the chain semantics of the
// original policy work: demoting from any state into a deeper state j
// costs the operating-state entry down[j] (the dominant term is the
// resynchronization on the way back up), and waking from state i costs
// up[i]. down and up are indexed like States, with entry 0 unused.
func chainModel(name string, cycle sim.Duration, bandwidth float64, states []StateSpec, down, up []Transition, microNap State, thresholds []sim.Duration) *Model {
	n := len(states)
	trans := make([][]Transition, n)
	for i := range trans {
		trans[i] = make([]Transition, n)
		for j := range trans[i] {
			switch {
			case j > i && j < len(down):
				trans[i][j] = down[j]
			case j == 0 && i > 0 && i < len(up):
				trans[i][j] = up[i]
			}
		}
	}
	return &Model{
		Name:       name,
		CycleTime:  cycle,
		Bandwidth:  bandwidth,
		States:     append([]StateSpec(nil), states...),
		Trans:      trans,
		MicroNap:   microNap,
		Thresholds: append([]sim.Duration(nil), thresholds...),
	}
}
