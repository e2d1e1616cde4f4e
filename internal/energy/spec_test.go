package energy

import (
	"testing"
	"testing/quick"

	"dmamem/internal/sim"
)

// chainSpecs returns the two calibrated four-state chain technologies,
// the paper's RDRAM and the DDR400 extension, as the registry builds
// them.
func chainSpecs(t *testing.T) []*Model {
	t.Helper()
	var specs []*Model
	for _, name := range []string{"rdram-1600", "ddr"} {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, m)
	}
	return specs
}

// TestRDRAMSpecMatchesTable1 holds the registered RDRAM technology to
// Table 1 and its break-even horizons to the closed form computed from
// Table 1's literals, with no tolerance.
func TestRDRAMSpecMatchesTable1(t *testing.T) {
	s, err := Lookup("rdram-1600")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Name != "rdram-1600" {
		t.Fatalf("name %q", s.Name)
	}
	if s.Power(Active) != 0.300 || s.Power(Powerdown) != 0.003 {
		t.Fatal("spec powers diverge from Table 1")
	}
	const cycle = 625 * sim.Picosecond
	if s.UpFrom(Powerdown) != (Transition{0.015, 6000 * sim.Nanosecond}) ||
		s.DownTo(Nap) != (Transition{0.160, 8 * cycle}) {
		t.Fatal("spec transitions diverge from Table 1")
	}
	if s.Bandwidth != 3.2e9 || s.CycleTime != cycle {
		t.Fatalf("bandwidth %g cycle %v", s.Bandwidth, s.CycleTime)
	}
	table1 := []struct {
		st       State
		resident float64
		down, up Transition
	}{
		{Standby, 0.180, Transition{0.240, 1 * cycle}, Transition{0.240, 6 * sim.Nanosecond}},
		{Nap, 0.030, Transition{0.160, 8 * cycle}, Transition{0.160, 60 * sim.Nanosecond}},
		{Powerdown, 0.003, Transition{0.015, 8 * cycle}, Transition{0.015, 6000 * sim.Nanosecond}},
	}
	for _, row := range table1 {
		overheadJ := row.down.Power*row.down.Time.Seconds() + row.up.Power*row.up.Time.Seconds()
		num := overheadJ - row.resident*(row.down.Time.Seconds()+row.up.Time.Seconds())
		want := sim.FromSeconds(num / (0.300 - row.resident))
		if transit := row.down.Time + row.up.Time; want < transit {
			want = transit
		}
		if got := breakEvenOf(s, row.st); got != want {
			t.Errorf("break-even of %v = %v, want %v", row.st, got, want)
		}
	}
}

// TestSpecValidateRejectsBadTables checks that Validate refuses each
// calibrated chain technology once its table is broken: no name,
// powers out of depth order, a missing wake transition, no bandwidth.
func TestSpecValidateRejectsBadTables(t *testing.T) {
	for _, name := range []string{"rdram", "ddr400"} {
		fresh := func() *Model {
			m, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		bad := fresh()
		bad.Name = ""
		if bad.Validate() == nil {
			t.Errorf("%s: nameless spec accepted", name)
		}
		bad = fresh()
		bad.States[Nap].Power = bad.States[Standby].Power + 1
		if bad.Validate() == nil {
			t.Errorf("%s: non-monotone powers accepted", name)
		}
		bad = fresh()
		bad.Trans[Nap][Active].Time = 0
		if bad.Validate() == nil {
			t.Errorf("%s: missing transition accepted", name)
		}
		bad = fresh()
		bad.Bandwidth = 0
		if bad.Validate() == nil {
			t.Errorf("%s: zero bandwidth accepted", name)
		}
	}
}

// TestSpecPanics checks that both calibrated chain technologies refuse
// an unknown state's power and a transition into or out of the
// operating state.
func TestSpecPanics(t *testing.T) {
	for _, s := range chainSpecs(t) {
		for _, f := range []func(){
			func() { s.Power(State(9)) },
			func() { s.DownTo(Active) },
			func() { s.UpFrom(Active) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: expected panic", s.Name)
					}
				}()
				f()
			}()
		}
	}
}

// Property: for both calibrated chain technologies, the break-even gap
// covers the transit round trip, and sleeping for it never costs more
// than idling in Active.
func TestQuickSpecBreakEven(t *testing.T) {
	specs := chainSpecs(t)
	f := func(pickSpec, pickState uint8) bool {
		s := specs[int(pickSpec)%len(specs)]
		st := State(1 + pickState%3)
		be := breakEvenOf(s, st)
		idleJ := s.Power(Active) * be.Seconds()
		down, up := s.DownTo(st), s.UpFrom(st)
		resid := be - down.Time - up.Time
		if resid < 0 {
			return false
		}
		sleepJ := down.Power*down.Time.Seconds() +
			s.Power(st)*resid.Seconds() + up.Power*up.Time.Seconds()
		return sleepJ <= idleJ+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
