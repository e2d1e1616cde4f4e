package energy

import (
	"math"
	"testing"

	"dmamem/internal/sim"
)

// FuzzModelValidate drives Model.Validate with arbitrary chain-model
// parameters and checks the contract every consumer builds on:
// Validate never panics, and whatever it accepts yields finite,
// non-negative powers, transitions, wake latencies and break-even
// horizons for every state. The seed corpus pins the interesting
// rejections — non-monotone powers, zero exit latencies, NaN and Inf
// powers — so regressions in those checks fail the plain `go test
// -run Fuzz` pass CI runs, no fuzzing engine needed.
func FuzzModelValidate(f *testing.F) {
	// Plausible RDRAM-shaped chain.
	f.Add(4, 0.300, 0.5, int64(625), int64(6_000), 1, int64(100_000))
	// Two-state minimal model.
	f.Add(2, 0.360, 0.25, int64(1_250), int64(7_500), 1, int64(15_000))
	// Non-monotone powers: decay >= 1 keeps deeper states as hungry as
	// active, which Validate must reject.
	f.Add(4, 0.300, 1.0, int64(625), int64(6_000), 1, int64(100_000))
	f.Add(3, 0.300, 1.5, int64(625), int64(6_000), 1, int64(100_000))
	// Zero exit latency: a free wake breaks the break-even arithmetic.
	f.Add(4, 0.300, 0.5, int64(625), int64(0), 1, int64(100_000))
	// Zero demotion latency.
	f.Add(4, 0.300, 0.5, int64(0), int64(6_000), 1, int64(100_000))
	// NaN and Inf powers.
	f.Add(4, math.NaN(), 0.5, int64(625), int64(6_000), 1, int64(100_000))
	f.Add(4, math.Inf(1), 0.5, int64(625), int64(6_000), 2, int64(100_000))
	// Negative power and out-of-range micro-nap.
	f.Add(4, -0.300, 0.5, int64(625), int64(6_000), 9, int64(100_000))
	// Zero threshold.
	f.Add(4, 0.300, 0.5, int64(625), int64(6_000), 1, int64(0))
	f.Fuzz(func(t *testing.T, n int, activeP, decay float64, downPs, upPs int64, microNap int, threshPs int64) {
		if n < 2 {
			n = 2
		}
		if n > 8 {
			n = 8
		}
		names := []string{"active", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
		states := make([]StateSpec, n)
		p := activeP
		for i := range states {
			states[i] = StateSpec{Name: names[i], Power: p}
			p *= decay
		}
		// down/up are indexed like States, entry 0 unused (chainModel's
		// contract).
		down := make([]Transition, n)
		up := make([]Transition, n)
		thresholds := make([]sim.Duration, n-1)
		for i := 1; i < n; i++ {
			down[i] = Transition{Power: activeP * decay, Time: sim.Duration(downPs) * sim.Duration(i)}
			up[i] = Transition{Power: activeP, Time: sim.Duration(upPs) * sim.Duration(i)}
			thresholds[i-1] = sim.Duration(threshPs) * sim.Duration(i)
		}
		m := chainModel("fuzz", 625*sim.Picosecond, 3.2e9, states, down, up, State(microNap), thresholds)
		if m.Validate() != nil {
			return
		}
		// An accepted model must be safe to consume blindly.
		for s := State(0); int(s) < m.NumStates(); s++ {
			if pw := m.Power(s); !finite(pw) || pw <= 0 {
				t.Fatalf("valid model: Power(%d) = %g", s, pw)
			}
			if wl := m.WakeLatencyOf(s); wl < 0 {
				t.Fatalf("valid model: WakeLatencyOf(%d) = %d", s, wl)
			}
			if s > 0 {
				be := breakEvenOf(m, s)
				if be < 0 {
					t.Fatalf("valid model: BreakEvenOf(%d) = %d", s, be)
				}
				dn, upT := m.DownTo(s), m.UpFrom(s)
				if !finite(dn.Power) || dn.Power < 0 || dn.Time <= 0 {
					t.Fatalf("valid model: DownTo(%d) = %+v", s, dn)
				}
				if !finite(upT.Power) || upT.Power < 0 || upT.Time <= 0 {
					t.Fatalf("valid model: UpFrom(%d) = %+v", s, upT)
				}
				if be < dn.Time+upT.Time {
					t.Fatalf("valid model: break-even %d below the round trip %d", be, dn.Time+upT.Time)
				}
			}
			for to := State(0); int(to) < m.NumStates(); to++ {
				tr := m.TransitionFor(s, to)
				if !finite(tr.Power) || tr.Power < 0 || tr.Time < 0 {
					t.Fatalf("valid model: TransitionFor(%d,%d) = %+v", s, to, tr)
				}
			}
		}
		if mn := m.MicroNap; int(mn) < 1 || int(mn) >= m.NumStates() {
			t.Fatalf("valid model: MicroNap %d out of range", mn)
		}
		if len(m.Thresholds) != m.NumStates()-1 {
			t.Fatalf("valid model: %d thresholds for %d states", len(m.Thresholds), m.NumStates())
		}
	})
}
