package policy

import (
	"testing"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// rdramChain is the default dynamic chain of the paper's RDRAM part.
func rdramChain() *Chain { return ChainFor(energy.RDRAM1600().Model()) }

func TestDynamicChain(t *testing.T) {
	d := rdramChain()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		from, next energy.State
		wait       sim.Duration
	}{
		{energy.Active, energy.Standby, 10 * sim.Nanosecond},
		{energy.Standby, energy.Nap, 100 * sim.Nanosecond},
		{energy.Nap, energy.Powerdown, 2 * sim.Microsecond},
	} {
		wait, next, ok := d.NextStep(step.from)
		if !ok || next != step.next || wait != step.wait {
			t.Fatalf("%v step: wait=%v next=%v ok=%v, want %v to %v", step.from, wait, next, ok, step.wait, step.next)
		}
	}
	if _, _, ok := d.NextStep(energy.Powerdown); ok {
		t.Fatal("powerdown should be terminal")
	}
	if d.Name() != "dynamic" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestDynamicChainWalk(t *testing.T) {
	// Walking the chain from Active must terminate in Powerdown in
	// exactly three steps, strictly deepening.
	d := rdramChain()
	s := energy.Active
	steps := 0
	for {
		_, next, ok := d.NextStep(s)
		if !ok {
			break
		}
		if next <= s {
			t.Fatalf("chain does not deepen: %v -> %v", s, next)
		}
		s = next
		steps++
		if steps > 10 {
			t.Fatal("chain does not terminate")
		}
	}
	if s != energy.Powerdown || steps != 3 {
		t.Fatalf("walk ended at %v after %d steps", s, steps)
	}
}

func TestDynamicValidate(t *testing.T) {
	bad := &Chain{Thresholds: []sim.Duration{-1}}
	if bad.Validate() == nil {
		t.Fatal("expected error for negative threshold")
	}
	m := energy.RDRAM1600().Model()
	long := &Chain{Thresholds: make([]sim.Duration, m.NumStates())}
	if long.ValidateForModel(m) == nil {
		t.Fatal("expected error for a chain demoting past the deepest state")
	}
}

func TestStatic(t *testing.T) {
	p := &Static{Mode: energy.Nap}
	wait, next, ok := p.NextStep(energy.Active)
	if !ok || wait != 0 || next != energy.Nap {
		t.Fatalf("static active step: %v %v %v", wait, next, ok)
	}
	if _, _, ok := p.NextStep(energy.Nap); ok {
		t.Fatal("static mode should be terminal")
	}
	if _, _, ok := p.NextStep(energy.Powerdown); ok {
		t.Fatal("other states should be terminal")
	}
	if p.Name() != "static-nap" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestStaticActiveMode(t *testing.T) {
	p := &Static{Mode: energy.Active}
	if _, _, ok := p.NextStep(energy.Active); ok {
		t.Fatal("static-active should never transition")
	}
}

func TestStaticValidate(t *testing.T) {
	for m := energy.Active; m <= energy.Powerdown; m++ {
		if err := (&Static{Mode: m}).Validate(); err != nil {
			t.Errorf("mode %v rejected: %v", m, err)
		}
	}
	if (&Static{Mode: energy.Powerdown + 1}).Validate() == nil {
		t.Error("out-of-range park mode accepted")
	}
}

func TestAlwaysActive(t *testing.T) {
	var p AlwaysActive
	if _, _, ok := p.NextStep(energy.Active); ok {
		t.Fatal("always-active should never transition")
	}
	if p.Name() != "always-active" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestPolicyInterfaceCompliance(t *testing.T) {
	for _, p := range []Policy{rdramChain(), &Static{Mode: energy.Nap}, AlwaysActive{}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}
