package energy

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dmamem/internal/sim"
)

// TestLookupUnknownEnumerates pins the unknown-technology error: it
// names the bad input and lists every registered backend.
func TestLookupUnknownEnumerates(t *testing.T) {
	_, err := Lookup("sram")
	if err == nil {
		t.Fatal("unknown technology accepted")
	}
	if !strings.Contains(err.Error(), `"sram"`) || !strings.Contains(err.Error(), "memory technology") {
		t.Errorf("error %q does not name the bad technology", err)
	}
	for _, name := range Techs() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestRegistryRDRAMIsSpecModel pins the registry default to the paper's
// Table 1 model: the empty name and "rdram", however spelled, resolve
// to exactly RDRAM(), each caller getting its own instance.
func TestRegistryRDRAMIsSpecModel(t *testing.T) {
	for _, name := range []string{"", "rdram", " RDRAM ", "rdram-1600"} {
		got, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if !reflect.DeepEqual(got, RDRAM()) {
			t.Errorf("Lookup(%q) differs from RDRAM()", name)
		}
	}
	// Fresh instances per call: mutating one caller's model must not
	// leak into the next.
	a, _ := Lookup("rdram")
	a.States[0].Power = 99
	if b, _ := Lookup("rdram"); b.States[0].Power == 99 {
		t.Fatal("Lookup hands out shared model instances")
	}
}

// TestTechsRegistry pins the shipped backend set and its ordering,
// and that aliases resolve to their technology.
func TestTechsRegistry(t *testing.T) {
	want := []string{"ddr3-1600", "ddr4-2400", "ddr400", "lpddr4", "rdram"}
	if got := Techs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Techs() = %v, want %v", got, want)
	}
	// Aliases resolve but stay out of the enumeration.
	for alias, canonical := range map[string]string{
		"rdram-1600": "rdram", "ddr": "ddr400", "lpddr4-3200": "lpddr4",
	} {
		am, err := Lookup(alias)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", alias, err)
		}
		cm, err := Lookup(canonical)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(am, cm) {
			t.Errorf("alias %q does not resolve to %q", alias, canonical)
		}
	}
}

// TestShippedModelsInvariants validates every registered backend and
// holds it to the physics every policy depends on: strictly decreasing
// resident powers, positive wake latencies that grow with depth, and
// break-even horizons at least the transition round trip.
func TestShippedModelsInvariants(t *testing.T) {
	for _, name := range Techs() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if m.NumStates() < 2 {
				t.Fatalf("%d states", m.NumStates())
			}
			for s := State(1); int(s) < m.NumStates(); s++ {
				if m.Power(s) >= m.Power(s-1) {
					t.Errorf("power of %s not below %s", m.StateName(s), m.StateName(s-1))
				}
				if m.WakeLatencyOf(s) <= 0 {
					t.Errorf("wake latency of %s is %v", m.StateName(s), m.WakeLatencyOf(s))
				}
				if s > 1 && m.WakeLatencyOf(s) < m.WakeLatencyOf(s-1) {
					t.Errorf("wake from %s faster than from %s", m.StateName(s), m.StateName(s-1))
				}
				be := breakEvenOf(m, s)
				if round := m.DownTo(s).Time + m.UpFrom(s).Time; be < round {
					t.Errorf("break-even of %s (%v) below the round trip (%v)", m.StateName(s), be, round)
				}
			}
			if mn := m.MicroNap; int(mn) < 1 || int(mn) >= m.NumStates() {
				t.Errorf("micro-nap state %d out of range", mn)
			}
		})
	}
	if n, _ := Lookup("ddr4-2400"); n.NumStates() != 5 {
		t.Errorf("ddr4-2400 has %d states, want 5", n.NumStates())
	}
	if n, _ := Lookup("lpddr4"); n.NumStates() != 3 {
		t.Errorf("lpddr4 has %d states, want 3", n.NumStates())
	}
}

// TestDDRSpecSane holds the DDR400 model to its datasheet shape: slower
// than RDRAM, and its deepest state exits in ~1 us (200 x 5 ns), far
// cheaper than RDRAM's 6 us powerdown exit, with break-evens ordered by
// depth.
func TestDDRSpecSane(t *testing.T) {
	m, err := Lookup("ddr400")
	if err != nil {
		t.Fatal(err)
	}
	if m.Bandwidth >= RDRAM().Bandwidth {
		t.Fatal("DDR400 should be slower than RDRAM")
	}
	if got := m.WakeLatencyOf(Powerdown); got != 1000*sim.Nanosecond {
		t.Fatalf("self-refresh exit = %v, want 1us", got)
	}
	if !(breakEvenOf(m, Standby) < breakEvenOf(m, Nap) &&
		breakEvenOf(m, Nap) < breakEvenOf(m, Powerdown)) {
		t.Fatal("DDR break-even ordering violated")
	}
}

// TestStateIndexAndNames covers the name↔index mapping consumers use
// to resolve StaticMode strings and report keys.
func TestStateIndexAndNames(t *testing.T) {
	m, err := Lookup("ddr4-2400")
	if err != nil {
		t.Fatal(err)
	}
	names := m.StateNames()
	if len(names) != m.NumStates() || names[0] != "active" {
		t.Fatalf("StateNames() = %v", names)
	}
	for i, name := range names {
		s, err := m.StateIndex("  " + strings.ToUpper(name) + " ")
		if err != nil || s != State(i) {
			t.Errorf("StateIndex(%q) = %v, %v; want %d", name, s, err, i)
		}
		if m.StateName(State(i)) != name {
			t.Errorf("StateName(%d) = %q", i, m.StateName(State(i)))
		}
	}
	if _, err := m.StateIndex("nap"); err == nil ||
		!strings.Contains(err.Error(), "self-refresh") {
		t.Errorf("unknown-state error does not enumerate states: %v", err)
	}
	if got := m.StateName(State(42)); got != "State(42)" {
		t.Errorf("out-of-range StateName = %q", got)
	}
}

// TestModelValidateRejections covers the rejection paths one by one,
// so a loosened check fails here and not in a downstream simulation.
func TestModelValidateRejections(t *testing.T) {
	valid := func() *Model { return RDRAM() }
	cases := []struct {
		name string
		mut  func(*Model)
		want string
	}{
		{"no name", func(m *Model) { m.Name = "" }, "without a name"},
		{"bad cycle", func(m *Model) { m.CycleTime = 0 }, "cycle"},
		{"bad bandwidth", func(m *Model) { m.Bandwidth = math.Inf(1) }, "bandwidth"},
		{"one state", func(m *Model) { m.States = m.States[:1] }, "states"},
		{"unnamed state", func(m *Model) { m.States[2].Name = "" }, "no name"},
		{"upper-case state", func(m *Model) { m.States[1].Name = "Standby" }, "lower-case"},
		{"duplicate state", func(m *Model) { m.States[2].Name = "standby" }, "duplicate"},
		{"nan power", func(m *Model) { m.States[1].Power = math.NaN() }, "power"},
		{"non-monotone power", func(m *Model) { m.States[3].Power = 1 }, "not below"},
		{"ragged matrix", func(m *Model) { m.Trans = m.Trans[:2] }, "matrix"},
		{"ragged row", func(m *Model) { m.Trans[1] = m.Trans[1][:2] }, "entries"},
		{"negative transition power", func(m *Model) { m.Trans[0][1].Power = -1 }, "power"},
		{"zero demotion latency", func(m *Model) { m.Trans[0][3].Time = 0 }, "non-positive latency"},
		{"zero wake latency", func(m *Model) { m.Trans[3][0].Time = 0 }, "non-positive latency"},
		{"negative stray latency", func(m *Model) { m.Trans[2][1].Time = -1 }, "negative latency"},
		{"micro-nap active", func(m *Model) { m.MicroNap = Active }, "micro-nap"},
		{"micro-nap deep", func(m *Model) { m.MicroNap = State(9) }, "micro-nap"},
		{"threshold count", func(m *Model) { m.Thresholds = m.Thresholds[:1] }, "thresholds"},
		{"zero threshold", func(m *Model) { m.Thresholds[1] = 0 }, "threshold"},
	}
	for _, tc := range cases {
		m := valid()
		tc.mut(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("control: %v", err)
	}
}

// TestRegisterGuards pins the init-time panics: duplicate names,
// aliases shadowing technologies, and invalid models are refused.
func TestRegisterGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate Register", func() { register("rdram", RDRAM) })
	mustPanic("empty Register", func() { register("  ", RDRAM) })
	mustPanic("invalid model", func() { register("broken", func() *Model { return &Model{} }) })
	mustPanic("alias shadowing tech", func() { registerAlias("rdram", "ddr400") })
	mustPanic("duplicate alias", func() { registerAlias("ddr", "ddr400") })
	mustPanic("alias to unknown", func() { registerAlias("x", "sram") })
	mustPanic("Register over alias", func() { register("ddr", newDDR400Model) })
}

// TestModelAccessorPanics pins the out-of-range panics consumers rely
// on to catch controller bugs immediately rather than silently reading
// a zero transition.
func TestModelAccessorPanics(t *testing.T) {
	m := RDRAM()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Power out of range", func() { m.Power(State(9)) })
	mustPanic("TransitionFor out of range", func() { m.TransitionFor(0, State(9)) })
	mustPanic("DownTo active", func() { m.DownTo(Active) })
	mustPanic("UpFrom active", func() { m.UpFrom(Active) })
	if m.WakeLatencyOf(Active) != 0 || breakEvenOf(m, Active) != 0 {
		t.Fatal("active state has nonzero wake/break-even")
	}
}

// TestChainModelShape pins chainModel's matrix construction: down[j]
// fills every demotion into j (the chain semantics), up[i]
// fills the wake column, everything else stays zero.
func TestChainModelShape(t *testing.T) {
	states := []StateSpec{{"active", 0.4}, {"doze", 0.2}, {"sleep", 0.1}}
	down := []Transition{{}, {Power: 0.2, Time: 10}, {Power: 0.1, Time: 20}}
	up := []Transition{{}, {Power: 0.4, Time: 100}, {Power: 0.4, Time: 200}}
	m := chainModel("toy", sim.Nanosecond, 1e9, states, down, up, 1, []sim.Duration{50, 500})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := Transition{}
			switch {
			case j > i:
				want = down[j]
			case j == 0 && i > 0:
				want = up[i]
			}
			if got := m.Trans[i][j]; got != want {
				t.Errorf("Trans[%d][%d] = %+v, want %+v", i, j, got, want)
			}
		}
	}
}

// breakEvenOf returns the minimum idle period for which entering state
// s from the operating state saves energy under model m, counting
// the down transition, residence and the wake: the idle gap t at which
// Power(Active)*t equals the sleep cost, clamped to at least the
// transition round trip. Classic dynamic policies pick thresholds from
// it; the tests hold each model's numbers against it.
func breakEvenOf(m *Model, s State) sim.Duration {
	if s == Active {
		return 0
	}
	down, up := m.DownTo(s), m.UpFrom(s)
	overheadJ := down.Power*down.Time.Seconds() + up.Power*up.Time.Seconds()
	resid := m.Power(s)
	num := overheadJ - resid*(down.Time.Seconds()+up.Time.Seconds())
	den := m.Power(Active) - resid
	be := sim.FromSeconds(num / den)
	if transit := down.Time + up.Time; be < transit {
		be = transit
	}
	return be
}
