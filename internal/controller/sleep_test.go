package controller

import (
	"math"
	"testing"

	"dmamem/internal/bus"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
)

// stepConfig is one RDRAM chip, Active at time zero, under a policy
// chain with round thresholds: standby after 100 ns of idleness, nap
// after 200 ns of standby, powerdown after 1 us of nap.
func stepConfig() Config {
	return Config{
		Geometry: memsys.Geometry{NumChips: 1, ChipBytes: 4 << 13, PageBytes: 8 << 10,
			ChipBandwidth: 3.2e9},
		Buses: bus.DefaultConfig(),
		Policy: &policy.Chain{Thresholds: []sim.Duration{100 * sim.Nanosecond,
			200 * sim.Nanosecond, sim.Microsecond}},
		InitialState: energy.Active,
	}
}

// TestLazySleepSettle checks the power-step event model against
// timelines worked out by hand from the RDRAM part (Active 0.3 W,
// standby 0.18 W, nap 0.03 W, powerdown 0.003 W; Active->standby
// 625 ps at 0.24 W, standby->Active 6 ns at 0.24 W, standby->nap and
// nap->powerdown 5 ns at 0.16 W and 0.015 W) and a 20 ns cache-line
// service time.
//
// The first policy step, at 100 ns, begins the standby entry, which is
// ready at R1 = 100.625 ns. One processor access then wakes the chip.
// From the wake's completion W the chip serves the access for 20 ns,
// idles 100 ns, and steps down again: standby (625 ps), 200 ns in
// standby, nap (5 ns), 1 us in nap, powerdown (5 ns) ready at R4. No
// event marks a transition's completion, so the run dispatches one
// event per policy step, plus the access, the wake's completion, and
// a sleep completion only when the wake caught the standby entry in
// flight.
func TestLazySleepSettle(t *testing.T) {
	const (
		ns = sim.Nanosecond
		ps = sim.Picosecond
	)
	r1 := sim.Time(100*ns + 625*ps)
	for _, tc := range []struct {
		name string
		at   sim.Time // the access
		// the floor passed to Finish, relative to R4
		floor sim.Duration
		// hand-computed outcome
		wakeAt  sim.Time     // the wake begins
		standby sim.Duration // standby residence before the wake
		events  uint64
	}{
		// Before R1 the wake waits for the transition: a sleep
		// completion event at R1 begins it.
		{name: "wake before readyAt", at: r1.Add(-300 * ps), wakeAt: r1, events: 7},
		// At R1 the wake settles the transition itself and begins at
		// once, with no standby residence.
		{name: "wake at readyAt", at: r1, wakeAt: r1, events: 6},
		// After R1 the chip has sat 50 ns in standby.
		{name: "wake after readyAt", at: r1.Add(50 * ns),
			wakeAt: r1.Add(50 * ns), standby: 50 * ns, events: 6},
		// The metering floor ends inside the final nap->powerdown
		// transition: the window extends to its completion.
		{name: "window ends mid-transition", at: r1.Add(50 * ns), floor: -2 * ns,
			wakeAt: r1.Add(50 * ns), standby: 50 * ns, events: 6},
		// A floor past R4 is charged as powerdown residence.
		{name: "window ends after the chain", at: r1.Add(50 * ns), floor: 3 * sim.Microsecond,
			wakeAt: r1.Add(50 * ns), standby: 50 * ns, events: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			c, err := New(eng, stepConfig())
			if err != nil {
				t.Fatal(err)
			}
			if c.lineTime != 20*ns {
				t.Fatalf("cache-line service time %v, want 20ns", c.lineTime)
			}
			eng.SchedulePrio(tc.at, prioArrival, func(*sim.Engine) { c.ProcAccess(0) })
			eng.Run()

			wakeDone := tc.wakeAt.Add(6 * ns)
			r2 := wakeDone.Add(20*ns + 100*ns + 625*ps) // standby again
			r3 := r2.Add(200*ns + 5*ns)                 // nap
			r4 := r3.Add(sim.Microsecond + 5*ns)        // powerdown
			if got := eng.Now(); got != r4.Add(-5*ns) {
				t.Fatalf("last event at %v, want the powerdown step at %v", got, r4.Add(-5*ns))
			}
			end := c.Finish(r4.Add(tc.floor))
			wantEnd := max(r4, r4.Add(tc.floor))
			if end != wantEnd {
				t.Fatalf("Finish = %v, want %v", end, wantEnd)
			}
			rep := c.Report("baseline", end)
			if rep.SimulatedTime != sim.Duration(wantEnd) {
				t.Errorf("SimulatedTime = %v, want %v", rep.SimulatedTime, sim.Duration(wantEnd))
			}
			if rep.Events != tc.events {
				t.Errorf("Events = %d, want %d", rep.Events, tc.events)
			}
			if rep.Wakes != 1 {
				t.Errorf("Wakes = %d, want 1", rep.Wakes)
			}
			chip := c.chips[0].chip
			if !chip.Resident() || chip.State() != energy.Powerdown {
				t.Errorf("chip %v in %v at the end, want resident powerdown", chip.Phase(), chip.State())
			}

			pd := wantEnd.Sub(r4)
			residency := []sim.Duration{
				energy.Active:    100*ns + 120*ns,
				energy.Standby:   tc.standby + 200*ns,
				energy.Nap:       sim.Microsecond,
				energy.Powerdown: pd,
			}
			for s, want := range residency {
				if got := rep.Residency[s]; got != want {
					t.Errorf("Residency[%s] = %v, want %v", rep.StateNames[s], got, want)
				}
			}
			j := func(w float64, d sim.Duration) float64 { return w * d.Seconds() }
			want := energy.Breakdown{
				energy.CatProcServing:   j(0.3, 20*ns),
				energy.CatIdleThreshold: j(0.3, 200*ns),
				energy.CatLowPower:      j(0.18, tc.standby+200*ns) + j(0.03, sim.Microsecond) + j(0.003, pd),
				energy.CatTransition: 2*j(0.24, 625*ps) + j(0.24, 6*ns) +
					j(0.16, 5*ns) + j(0.015, 5*ns),
			}
			for cat := energy.Category(0); cat < energy.NumCategories; cat++ {
				got, w := rep.Energy[cat], want[cat]
				if math.Abs(got-w) > 1e-12*math.Abs(w) {
					t.Errorf("energy %v = %g J, want %g J", cat, got, w)
				}
			}
		})
	}
}
