package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

func TestTechExtension(t *testing.T) {
	rows, err := TechExtension(ctx, nil, 20*sim.Millisecond, 1, []string{"rdram", "ddr400"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	rdram, ddr := rows[0], rows[1]
	if rdram.Tech != "rdram" || rdram.Part != "rdram-1600" ||
		ddr.Tech != "ddr400" || ddr.Part != "ddr-400" {
		t.Fatalf("rows: %+v", rows)
	}
	// DDR's lower memory:bus ratio means a higher baseline utilization
	// and smaller savings — Section 5.4's point.
	if ddr.BaselineUF <= rdram.BaselineUF {
		t.Errorf("DDR baseline uf %.2f not above RDRAM %.2f", ddr.BaselineUF, rdram.BaselineUF)
	}
	if ddr.Savings >= rdram.Savings {
		t.Errorf("DDR savings %.1f%% not below RDRAM %.1f%%", 100*ddr.Savings, 100*rdram.Savings)
	}
	if rdram.Savings <= 0 {
		t.Errorf("RDRAM savings %.1f%%", 100*rdram.Savings)
	}
	// Per-state resident energies plus transition and migration recover
	// the system total for every backend.
	for _, r := range rows {
		sum := r.TransitionJ + r.MigrationJ
		for _, st := range r.States {
			sum += st.Joules
		}
		if math.Abs(sum-r.TotalJ) > 1e-9*math.Max(1, math.Abs(r.TotalJ)) {
			t.Errorf("%s: state energies sum to %.12g J, total %.12g J", r.Tech, sum, r.TotalJ)
		}
	}
	if !strings.Contains(FormatTech(rows), "rdram-1600") {
		t.Fatal("format broken")
	}
}

func TestTechExtensionDefaultSweepsRegistry(t *testing.T) {
	rows, err := TechExtension(ctx, NewRunner(4), 5*sim.Millisecond, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(energy.Techs()) {
		t.Fatalf("got %d rows for %d registered technologies", len(rows), len(energy.Techs()))
	}
	for i, name := range energy.Techs() {
		if rows[i].Tech != name {
			t.Errorf("row %d is %q, want %q", i, rows[i].Tech, name)
		}
		if len(rows[i].States) < 2 {
			t.Errorf("%s: only %d states reported", name, len(rows[i].States))
		}
	}
	if _, err := TechExtension(ctx, nil, sim.Millisecond, 1, []string{"sram"}); err == nil {
		t.Fatal("unknown technology accepted")
	}
}

func TestParseTechList(t *testing.T) {
	got, err := ParseTechList(" DDR4-2400, lpddr4 ,rdram")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ddr4-2400", "lpddr4", "rdram"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got, err := ParseTechList("  "); err != nil || got != nil {
		t.Fatalf("blank list: %v, %v", got, err)
	}
	for _, bad := range []string{"ddr4-2400,,lpddr4", "sram", "rdram,rdram", "rdram,rdram-1600"} {
		if _, err := ParseTechList(bad); err == nil {
			t.Errorf("ParseTechList(%q) accepted", bad)
		}
	}
	// The duplicate error names both entries and the backend they share.
	_, err = ParseTechList("rdram,rdram-1600")
	if err == nil || !strings.Contains(err.Error(), "duplicates") {
		t.Fatalf("alias-duplicate error: %v", err)
	}
}
