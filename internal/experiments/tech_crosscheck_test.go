package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// TestRegistryRDRAMBitIdentical proves that naming the registry
// "rdram" backend (Tech = "rdram") reproduces the zero value (paper
// defaults) over the full golden corpus — every Table 2 workload and
// scheme, through RunReport: the two reports must be
// reflect.DeepEqual. Each case runs the rdram spec at the deprecated
// ReportSpec.Workers 0 and 4 against the default spec at 0, so the
// corpus also holds that field inert. energy's TestTable1Constants
// pins the registry model itself to the paper's Table 1.
func TestRegistryRDRAMBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 4} {
		for _, name := range workloadNames {
			for _, scheme := range ReportSchemes() {
				name, scheme, workers := name, scheme, workers
				t.Run(fmt.Sprintf("workers=%d/%s/%s", workers, name, scheme), func(t *testing.T) {
					def := ReportSpec{Workload: name, Scheme: scheme}
					reg := ReportSpec{Workload: name, Scheme: scheme, Tech: "rdram", Workers: workers}
					rr, err := RunReport(ctx, reg)
					if err != nil {
						t.Fatalf("registry run: %v", err)
					}
					dr, err := RunReport(ctx, def)
					if err != nil {
						t.Fatalf("default run: %v", err)
					}
					if !reflect.DeepEqual(dr, rr) {
						t.Errorf("zero-value default drifted from Tech=rdram at Workers %d:\n%s",
							workers, diffFields("", reflect.ValueOf(rr), reflect.ValueOf(dr)))
					}
				})
			}
		}
	}
}

// TestMigrationEnergyUsesModel charges PL page moves at the run's own
// technology: on DDR4-2400 every move reads and writes one page at
// DDR4's active power and chip rate, not RDRAM's.
func TestMigrationEnergyUsesModel(t *testing.T) {
	s := NewSuite(50*sim.Millisecond, 1)
	tr, err := s.workload("OLTP-St")
	if err != nil {
		t.Fatal(err)
	}
	cfg := taConfig(0.10, plConfig(2))
	cfg.Tech = "ddr4-2400"
	res, err := core.RunContext(ctx, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.MigratedPages == 0 {
		t.Fatal("no pages migrated; the check below would be vacuous")
	}
	m, err := energy.Lookup(cfg.Tech)
	if err != nil {
		t.Fatal(err)
	}
	g := memsys.Default()
	g.ChipBandwidth = m.Bandwidth
	want := float64(res.MigratedPages) * 2 * m.Power(energy.Active) *
		g.ServiceTime(int64(g.PageBytes)).Seconds()
	if got := res.Report.Energy[energy.CatMigration]; math.Abs(got-want) > 1e-12*want {
		t.Errorf("%d moves charged %g J, want %g J", res.MigratedPages, got, want)
	}
}

// TestFig10TechAxis exercises the technology dimension of the figure
// 10 grid: the scheme names carry the @tech suffix, the x ratio uses
// each backend's own memory rate, and unknown names fail the whole
// grid before any point runs.
func TestFig10TechAxis(t *testing.T) {
	s := goldenSuite()
	spec := GridSpec{
		Name:      GridFig10,
		Workloads: []string{"Synthetic-St"},
		BusBW:     []float64{1.064e9},
		Techs:     []string{"ddr4-2400", "lpddr4"},
	}
	pts, err := GridRun[SweepPoint](ctx, s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Techs) * len(sweepSchemes); len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		var tech string
		for _, name := range spec.Techs {
			if p.Scheme == "dma-ta@"+name || p.Scheme == "dma-ta-pl@"+name {
				tech = name
			}
		}
		if tech == "" {
			t.Fatalf("point scheme %q carries no @tech suffix", p.Scheme)
		}
		m, err := energy.Lookup(tech)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Bandwidth / 1.064e9; p.X != want {
			t.Errorf("%s: x ratio %g, want %g from the %s rate", p.Scheme, p.X, want, tech)
		}
	}
	bad := spec
	bad.Techs = []string{"sram"}
	if _, err := GridRun[SweepPoint](ctx, s, bad); err == nil {
		t.Fatal("unknown technology accepted by the grid")
	}
}
