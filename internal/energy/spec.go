package energy

import (
	"fmt"

	"dmamem/internal/sim"
)

// Spec is the power/timing table of one memory technology. The
// package-level constants and functions describe the paper's default,
// 512 Mb 1600 MHz RDRAM (Table 1); Section 5.4 notes the analysis
// carries over to other technologies "with different absolute
// numbers", which a Spec captures.
type Spec struct {
	Name string
	// CycleTime of the device clock.
	CycleTime sim.Duration
	// Bandwidth is the sustained transfer rate in bytes/s.
	Bandwidth float64
	// Powers indexed by State.
	Powers [numStates]float64
	// Down[s] is the transition from Active into low-power state s;
	// Up[s] the transition from s back to Active.
	Down [numStates]Transition
	Up   [numStates]Transition
}

// RDRAM1600 returns the paper's Table 1 device: 3.2 GB/s, 625 ps
// cycle.
func RDRAM1600() *Spec {
	return &Spec{
		Name:      "rdram-1600",
		CycleTime: MemoryCycle,
		Bandwidth: 3.2e9,
		Powers:    [numStates]float64{ActivePower, StandbyPower, NapPower, PowerdownPower},
		Down: [numStates]Transition{
			Standby:   ActiveToStandby,
			Nap:       ActiveToNap,
			Powerdown: ActiveToPowerdown,
		},
		Up: [numStates]Transition{
			Standby:   StandbyToActive,
			Nap:       NapToActive,
			Powerdown: PowerdownToActive,
		},
	}
}

// DDR400 returns a DDR SDRAM part of the paper's era (2.1 GB/s class,
// 5 ns clock): higher operating power, shallower low-power states, and
// a much cheaper exit from its deepest state than RDRAM's powerdown.
// Numbers follow typical 512 Mb DDR400 datasheet figures (IDD
// currents at 2.6 V): active ~460 mW, active standby ~180 mW,
// precharge powerdown ~45 mW, self refresh ~13 mW with a ~200-cycle
// exit.
func DDR400() *Spec {
	const cyc = 5 * sim.Nanosecond
	return &Spec{
		Name:      "ddr-400",
		CycleTime: cyc,
		Bandwidth: 2.1e9,
		Powers:    [numStates]float64{0.460, 0.180, 0.045, 0.013},
		Down: [numStates]Transition{
			Standby:   {Power: 0.300, Time: 1 * cyc},
			Nap:       {Power: 0.110, Time: 2 * cyc},
			Powerdown: {Power: 0.025, Time: 2 * cyc},
		},
		Up: [numStates]Transition{
			Standby:   {Power: 0.300, Time: 2 * cyc},
			Nap:       {Power: 0.110, Time: 6 * cyc},
			Powerdown: {Power: 0.025, Time: 200 * cyc},
		},
	}
}

// Model converts the fixed 4-state Spec into the generic backend
// Model, keeping the legacy enum state names (active, standby, nap,
// powerdown), the legacy chain semantics (Deepen charges the
// Active->target row), micro-naps in Nap, and the paper's dynamic
// policy thresholds (10 ns, 100 ns, 2 us). Every power and latency is
// copied verbatim, so a converted Spec produces bit-identical reports
// to the Spec itself.
func (s *Spec) Model() *Model {
	states := make([]StateSpec, numStates)
	for st := Active; st < numStates; st++ {
		states[st] = StateSpec{Name: st.String(), Power: s.Powers[st]}
	}
	return ChainModel(s.Name, s.CycleTime, s.Bandwidth,
		states, s.Down[:], s.Up[:], Nap,
		[]sim.Duration{16 * MemoryCycle, 100 * sim.Nanosecond, 2 * sim.Microsecond})
}

// Validate reports a descriptive error for inconsistent specs.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("energy: spec without a name")
	}
	if s.CycleTime <= 0 || s.Bandwidth <= 0 {
		return fmt.Errorf("energy: spec %s: cycle %v, bandwidth %g", s.Name, s.CycleTime, s.Bandwidth)
	}
	for st := Active; st < numStates; st++ {
		if s.Powers[st] <= 0 {
			return fmt.Errorf("energy: spec %s: power of %v is %g", s.Name, st, s.Powers[st])
		}
		if st > Active && s.Powers[st] >= s.Powers[st-1] {
			return fmt.Errorf("energy: spec %s: %v power not below %v", s.Name, st, st-1)
		}
	}
	for st := Standby; st < numStates; st++ {
		if s.Down[st].Time <= 0 || s.Up[st].Time <= 0 {
			return fmt.Errorf("energy: spec %s: missing transition for %v", s.Name, st)
		}
	}
	return nil
}

// Power returns the resident power of a state.
func (s *Spec) Power(st State) float64 {
	if st >= numStates {
		panic("energy: unknown state " + st.String())
	}
	return s.Powers[st]
}

// DownTo returns the transition entering low-power state st.
func (s *Spec) DownTo(st State) Transition {
	if st == Active || st >= numStates {
		panic("energy: no down transition to " + st.String())
	}
	return s.Down[st]
}

// UpFrom returns the transition from low-power state st to Active.
func (s *Spec) UpFrom(st State) Transition {
	if st == Active || st >= numStates {
		panic("energy: no up transition from " + st.String())
	}
	return s.Up[st]
}

// WakeLatencyOf returns the delay before a chip in state st can serve.
func (s *Spec) WakeLatencyOf(st State) sim.Duration {
	if st == Active {
		return 0
	}
	return s.Up[st].Time
}

// BreakEvenOf returns the minimum idle period for which entering state
// st from Active saves energy under this spec.
func (s *Spec) BreakEvenOf(st State) sim.Duration {
	if st == Active {
		return 0
	}
	down, up := s.DownTo(st), s.UpFrom(st)
	overheadJ := down.Power*down.Time.Seconds() + up.Power*up.Time.Seconds()
	resid := s.Power(st)
	num := overheadJ - resid*(down.Time.Seconds()+up.Time.Seconds())
	den := s.Power(Active) - resid
	be := sim.FromSeconds(num / den)
	if transit := down.Time + up.Time; be < transit {
		be = transit
	}
	return be
}
