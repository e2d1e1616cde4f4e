package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// TestRegistryRDRAMBitIdentical proves that naming the registry
// "rdram" backend (core.Config.Tech = "rdram") reproduces the zero
// value (paper defaults) over the full golden corpus — every Table 2
// workload and scheme — on both the serial engine and the 4-worker
// epoch-barrier engine: the two reports must be reflect.DeepEqual.
// energy's TestRegistryRDRAMIsSpecModel pins the registry model itself
// to the paper's 4-state spec.
func TestRegistryRDRAMBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 4} {
		s := goldenSuite()
		s.Workers = workers
		for _, name := range workloadNames {
			tr, err := s.workload(name)
			if err != nil {
				t.Fatalf("workload %s: %v", name, err)
			}
			window := tr.Duration() + 2*sim.Millisecond
			for _, sc := range goldenSchemes() {
				sc := sc
				t.Run(fmt.Sprintf("workers=%d/%s/%s", workers, name, sc.label), func(t *testing.T) {
					reg := sc.cfg
					reg.Tech = "rdram"
					reg.MeterWindow = window
					def := sc.cfg
					def.MeterWindow = window

					rr, err := s.run(ctx, reg, tr)
					if err != nil {
						t.Fatalf("registry run: %v", err)
					}
					dr, err := s.run(ctx, def, tr)
					if err != nil {
						t.Fatalf("default run: %v", err)
					}
					if !reflect.DeepEqual(dr.Report, rr.Report) {
						t.Errorf("zero-value default drifted from Tech=rdram:\n%s",
							diffFields("", reflect.ValueOf(rr.Report), reflect.ValueOf(dr.Report)))
					}
				})
			}
		}
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
