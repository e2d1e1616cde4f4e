package energy

import (
	"math"
	"testing"
	"testing/quick"

	"dmamem/internal/sim"
)

// TestTable1Constants holds RDRAM to the paper's Table 1, written out
// here as literals: every resident power, every transition's power and
// time, the 1600 MHz clock and the 3.2 GB/s chip rate.
func TestTable1Constants(t *testing.T) {
	m := RDRAM()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	const cycle = 625 * sim.Picosecond
	if m.CycleTime != cycle || m.Bandwidth != 3.2e9 {
		t.Errorf("cycle %v bandwidth %g, want 625ps and 3.2e9", m.CycleTime, m.Bandwidth)
	}
	states := []struct {
		name  string
		power float64
		down  Transition // entering the state from active
		up    Transition // waking from the state to active
	}{
		{"active", 0.300, Transition{}, Transition{}},
		{"standby", 0.180, Transition{0.240, 1 * cycle}, Transition{0.240, 6 * sim.Nanosecond}},
		{"nap", 0.030, Transition{0.160, 8 * cycle}, Transition{0.160, 60 * sim.Nanosecond}},
		{"powerdown", 0.003, Transition{0.015, 8 * cycle}, Transition{0.015, 6000 * sim.Nanosecond}},
	}
	if m.NumStates() != len(states) {
		t.Fatalf("%d states, want %d", m.NumStates(), len(states))
	}
	for i, want := range states {
		s := State(i)
		if m.StateName(s) != want.name || m.Power(s) != want.power {
			t.Errorf("state %d = %s %v W, want %s %v W", i, m.StateName(s), m.Power(s), want.name, want.power)
		}
		if s == Active {
			continue
		}
		if got := m.DownTo(s); got != want.down {
			t.Errorf("active->%s = %+v, want %+v", want.name, got, want.down)
		}
		if got := m.UpFrom(s); got != want.up {
			t.Errorf("%s->active = %+v, want %+v", want.name, got, want.up)
		}
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Active: "active", Standby: "standby", Nap: "nap", Powerdown: "powerdown"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if State(99).String() != "State(99)" {
		t.Errorf("unknown state string: %q", State(99).String())
	}
}

func TestPowerOrdering(t *testing.T) {
	m := RDRAM()
	// Deeper states must draw strictly less power.
	if !(m.Power(Active) > m.Power(Standby) &&
		m.Power(Standby) > m.Power(Nap) &&
		m.Power(Nap) > m.Power(Powerdown)) {
		t.Fatal("power ordering violated")
	}
	// Deeper states must take strictly longer to wake.
	if !(m.WakeLatencyOf(Standby) < m.WakeLatencyOf(Nap) &&
		m.WakeLatencyOf(Nap) < m.WakeLatencyOf(Powerdown)) {
		t.Fatal("wake latency ordering violated")
	}
	if m.WakeLatencyOf(Active) != 0 {
		t.Fatal("active should have zero wake latency")
	}
}

// TestTransitionPanics checks, on every registered model, that the
// transition accessors refuse the operating state and any index past
// the deepest state instead of reading a zero transition.
func TestTransitionPanics(t *testing.T) {
	for _, name := range Techs() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		beyond := m.Deepest() + 1
		for _, f := range []func(){
			func() { m.DownTo(Active) },
			func() { m.UpFrom(Active) },
			func() { m.DownTo(beyond) },
			func() { m.UpFrom(beyond) },
			func() { m.TransitionFor(beyond, Active) },
			func() { m.Power(beyond) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: expected panic", name)
					}
				}()
				f()
			}()
		}
	}
}

func TestMeterAccumulate(t *testing.T) {
	var m Meter
	m.Accumulate(CatServing, 0.3, 1000*sim.Millisecond) // 0.3 J
	m.Accumulate(CatIdleDMA, 0.3, 2000*sim.Millisecond)
	m.Accumulate(CatLowPower, 0.003, 1000*sim.Millisecond)
	b := m.Breakdown()
	if math.Abs(b[CatServing]-0.3) > 1e-12 {
		t.Errorf("serving = %g", b[CatServing])
	}
	if math.Abs(b[CatIdleDMA]-0.6) > 1e-12 {
		t.Errorf("idle = %g", b[CatIdleDMA])
	}
	if math.Abs(b.Total()-0.903) > 1e-12 {
		t.Errorf("total = %g", b.Total())
	}
	if f := b.Fraction(CatServing); math.Abs(f-0.3/0.903) > 1e-12 {
		t.Errorf("fraction = %g", f)
	}
}

func TestMeterAddJoules(t *testing.T) {
	var m Meter
	m.AddJoules(CatMigration, 1.5)
	if m.Breakdown()[CatMigration] != 1.5 {
		t.Fatal("AddJoules lost energy")
	}
}

func TestMeterNegativePanics(t *testing.T) {
	var m Meter
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	m.Accumulate(CatServing, 0.3, -1)
}

func TestBreakdownAddAndFraction(t *testing.T) {
	var a, b Breakdown
	a[CatServing] = 1
	b[CatServing] = 2
	b[CatLowPower] = 1
	a.Add(&b)
	if a[CatServing] != 3 || a[CatLowPower] != 1 {
		t.Fatalf("Add: %+v", a)
	}
	var empty Breakdown
	if empty.Fraction(CatServing) != 0 {
		t.Fatal("empty breakdown fraction should be 0")
	}
	if a.String() == "" {
		t.Fatal("String should be nonempty")
	}
}

func TestBreakEvenSanity(t *testing.T) {
	// Break-even times must grow with state depth and always cover the
	// round-trip transition latency.
	m := RDRAM()
	beS, beN, beP := breakEvenOf(m, Standby), breakEvenOf(m, Nap), breakEvenOf(m, Powerdown)
	if !(beS < beN && beN < beP) {
		t.Fatalf("break-even ordering: standby=%v nap=%v powerdown=%v", beS, beN, beP)
	}
	if beS < m.DownTo(Standby).Time+m.UpFrom(Standby).Time {
		t.Fatalf("standby break-even %v below transit time", beS)
	}
	if breakEvenOf(m, Active) != 0 {
		t.Fatal("active break-even should be 0")
	}
	// The paper notes the best active->low-power thresholds are around
	// 20-30 memory cycles; our standby/nap break-evens should be within
	// the same order of magnitude.
	if beN > 200*sim.Nanosecond {
		t.Fatalf("nap break-even implausibly large: %v", beN)
	}
}

// Property, over every registered model and low-power state: sleeping
// for exactly the break-even gap never costs more than idling in the
// operating state, and when the break-even exceeds the transit round
// trip the two costs are equal (the true crossover); otherwise the
// break-even is clamped to the transit time.
func TestQuickBreakEvenIndifference(t *testing.T) {
	var models []*Model
	for _, name := range Techs() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	f := func(pickModel, pickState uint8) bool {
		m := models[int(pickModel)%len(models)]
		s := State(1 + int(pickState)%(m.NumStates()-1))
		be := breakEvenOf(m, s)
		idleJ := m.Power(Active) * be.Seconds()
		down, up := m.DownTo(s), m.UpFrom(s)
		transit := down.Time + up.Time
		resid := be - transit
		sleepJ := down.Power*down.Time.Seconds() +
			m.Power(s)*resid.Seconds() +
			up.Power*up.Time.Seconds()
		if sleepJ > idleJ+1e-12 {
			return false // sleeping at break-even must not lose energy
		}
		if be > transit {
			// Unclamped: exact indifference at the crossover.
			return math.Abs(idleJ-sleepJ) <= 1e-9*math.Max(idleJ, 1e-12)+1e-12
		}
		return be == transit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: meter total equals the sum of everything accumulated.
func TestQuickMeterConservation(t *testing.T) {
	f := func(amounts []uint16) bool {
		var m Meter
		var want float64
		for i, a := range amounts {
			c := Category(i % int(NumCategories))
			j := float64(a) / 1000
			m.AddJoules(c, j)
			want += j
		}
		b := m.Breakdown()
		return math.Abs(b.Total()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
