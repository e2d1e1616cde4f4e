package policy

import (
	"testing"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// rdramChain is the default dynamic chain of the paper's RDRAM part.
func rdramChain() *Chain { return ChainFor(energy.RDRAM()) }

// models returns every registered technology model.
func models(t *testing.T) []*energy.Model {
	t.Helper()
	var ms []*energy.Model
	for _, name := range energy.Techs() {
		m, err := energy.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

func TestDynamicChain(t *testing.T) {
	d := rdramChain()
	if err := d.Validate(energy.RDRAM()); err != nil {
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
	m := energy.RDRAM()
	bad := &Chain{Thresholds: []sim.Duration{-1}}
	if bad.Validate(m) == nil {
		t.Fatal("expected error for negative threshold")
	}
	long := &Chain{Thresholds: make([]sim.Duration, m.NumStates())}
	if long.Validate(m) == nil {
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
}

func TestStaticActiveMode(t *testing.T) {
	p := &Static{Mode: energy.Active}
	if _, _, ok := p.NextStep(energy.Active); ok {
		t.Fatal("static-active should never transition")
	}
}

// TestStaticValidate checks park modes against each model's own state
// machine: every state of the model is a legal park mode, the index one
// past its deepest state is not.
func TestStaticValidate(t *testing.T) {
	for _, m := range models(t) {
		for s := energy.Active; int(s) < m.NumStates(); s++ {
			if err := (&Static{Mode: s}).Validate(m); err != nil {
				t.Errorf("%s: mode %d rejected: %v", m.Name, s, err)
			}
		}
		if (&Static{Mode: energy.State(m.NumStates())}).Validate(m) == nil {
			t.Errorf("%s: out-of-range park mode accepted", m.Name)
		}
	}
	ddr4, _ := energy.Lookup("ddr4-2400")
	if err := (&Static{Mode: 4}).Validate(ddr4); err != nil {
		t.Errorf("ddr4-2400's fifth state rejected: %v", err)
	}
	lpddr4, _ := energy.Lookup("lpddr4")
	if (&Static{Mode: 3}).Validate(lpddr4) == nil {
		t.Error("lpddr4 accepted park mode 3 of its three states")
	}
}

func TestAlwaysActive(t *testing.T) {
	var p AlwaysActive
	if _, _, ok := p.NextStep(energy.Active); ok {
		t.Fatal("always-active should never transition")
	}
}

// TestPolicyInterfaceCompliance checks that each model accepts the
// policies built for it: its default chain, parking in its deepest
// state, and no power management.
func TestPolicyInterfaceCompliance(t *testing.T) {
	for _, m := range models(t) {
		for _, p := range []Policy{ChainFor(m), &Static{Mode: m.Deepest()}, AlwaysActive{}} {
			if err := p.Validate(m); err != nil {
				t.Errorf("%s rejects %T: %v", m.Name, p, err)
			}
		}
	}
}
