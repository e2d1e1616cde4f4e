package experiments

import (
	"reflect"
	"testing"

	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// TestSingleChannelTopologyBitIdentical is the cross-backend
// acceptance check for the channel topology: on every Table 2 workload
// and every scheme, a 1-channel memsys.Topology — which engages the
// topology backend (the topology mapper, per-channel gather targets,
// per-channel energy rollup) rather than the legacy code path — must
// produce a report bit-identical to the legacy single-channel Geometry
// path, in the style of TestSchedulerFeederBitIdentical. The
// comparison is reflect.DeepEqual over the whole metrics.Report
// (including the always-populated per-channel energy slice), so a
// single-ulp drift fails.
func TestSingleChannelTopologyBitIdentical(t *testing.T) {
	s := NewSuite(4*sim.Millisecond, 1)
	s.DbDuration = 2 * sim.Millisecond
	schemes := []struct {
		label string
		cfg   core.Config
	}{
		{"baseline", core.Config{}},
		{"dma-ta", taConfig(0.10, nil)},
		{"dma-ta-pl", taConfig(0.10, plConfig(2))},
	}
	topologies := []struct {
		label string
		topo  memsys.Topology
	}{
		{"1ch", memsys.Topology{Channels: 1}},
		{"1ch-stripe1", memsys.Topology{Channels: 1, StripePages: 1}},
		// A per-channel cap at the chip rate never binds with one
		// channel's worth of 3.2 GB/s chips behind 3 PCI-X buses, so the
		// allocator's three-resource path must reproduce the two-resource
		// rates exactly on this config. (With 32 chips on one channel the
		// cap *would* bind under enough concurrency — covered by the
		// multi-channel sweep — so this variant pins only k derivation
		// and mapper identity, not the capped allocator.)
	}
	for _, name := range workloadNames {
		tr, err := s.workload(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		window := tr.Duration() + 2*sim.Millisecond
		for _, sc := range schemes {
			legacy := sc.cfg
			legacy.MeterWindow = window
			ref, err := core.Run(legacy, tr)
			if err != nil {
				t.Fatalf("%s/%s legacy: %v", name, sc.label, err)
			}
			if ref.Report.Events == 0 {
				t.Fatalf("%s/%s: legacy run dispatched no events", name, sc.label)
			}
			if ref.Report.Channels != 1 || len(ref.Report.ChannelEnergy) != 1 {
				t.Fatalf("%s/%s: legacy report has %d channels (%d energy entries), want 1",
					name, sc.label, ref.Report.Channels, len(ref.Report.ChannelEnergy))
			}
			for _, tp := range topologies {
				cfg := sc.cfg
				cfg.MeterWindow = window
				cfg.Topology = tp.topo
				got, err := core.Run(cfg, tr)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, sc.label, tp.label, err)
				}
				if !reflect.DeepEqual(got.Report, ref.Report) {
					t.Errorf("%s/%s: %s report differs from legacy path\ngot: %+v\nref: %+v",
						name, sc.label, tp.label, got.Report, ref.Report)
				}
			}
		}
	}
}

// TestChannelEnergySumsToSystemEnergy pins the per-channel rollup
// contract on a genuinely multi-channel run: the channel breakdowns
// must sum to the system breakdown exactly, except for PL migration
// energy, which is system-level by design.
func TestChannelEnergySumsToSystemEnergy(t *testing.T) {
	s := NewSuite(4*sim.Millisecond, 1)
	tr, err := s.workload("Synthetic-St")
	if err != nil {
		t.Fatal(err)
	}
	for _, channels := range []int{2, 4} {
		cfg := taConfig(0.10, plConfig(2))
		cfg.MeterWindow = tr.Duration() + 2*sim.Millisecond
		cfg.Topology = memsys.Topology{Channels: channels, ChannelBandwidth: 3.2e9}
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%d channels: %v", channels, err)
		}
		r := res.Report
		if r.Channels != channels || len(r.ChannelEnergy) != channels {
			t.Fatalf("%d channels: report says %d (%d energy entries)",
				channels, r.Channels, len(r.ChannelEnergy))
		}
		var sum float64
		anyNonzero := false
		for _, b := range r.ChannelEnergy {
			if b.Total() > 0 {
				anyNonzero = true
			}
			sum += b.Total()
		}
		if !anyNonzero {
			t.Fatalf("%d channels: all channel breakdowns are zero", channels)
		}
		want := r.TotalEnergy() - r.Energy[energy.CatMigration]
		if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%d channels: channel energies sum to %g, system energy minus migration is %g",
				channels, sum, want)
		}
	}
}
