package core

// System-level invariant tests: random but valid traces pushed through
// every scheme must satisfy conservation and ordering properties
// regardless of the workload's shape.

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"dmamem/internal/controller"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// randomTrace builds a structurally valid trace from a seed: Poisson
// DMA arrivals with random sizes/buses plus optional processor
// accesses.
func randomTrace(seed uint64, withProc bool) *trace.Trace {
	rng := synth.NewRNG(seed)
	tr := &trace.Trace{Name: "fuzz"}
	maxPage := memsys.Default().TotalPages()
	now := sim.Time(0)
	n := 50 + rng.Intn(300)
	for i := 0; i < n; i++ {
		now = now.Add(sim.Duration(rng.Exp(10e-6) * 1e12))
		if withProc && rng.Float64() < 0.5 {
			tr.Records = append(tr.Records, trace.Record{
				Time: now, Kind: trace.ProcRead, Source: trace.SrcProcessor,
				Page: memsys.PageID(rng.Intn(maxPage)),
			})
			continue
		}
		pages := 1 + rng.Intn(8)
		page := rng.Intn(maxPage - pages)
		kind := trace.DMARead
		if rng.Float64() < 0.3 {
			kind = trace.DMAWrite
		}
		tr.Records = append(tr.Records, trace.Record{
			Time: now, Kind: kind, Source: trace.SrcNetwork,
			Bus: uint8(rng.Intn(3)), Pages: uint16(pages), Page: memsys.PageID(page),
		})
	}
	tr.Meta.MeanClientResponse = sim.Millisecond
	tr.Meta.TransfersPerClientRequest = 1
	return tr
}

// TestQuickSchemesNeverPanic pushes random traces through baseline,
// DMA-TA and DMA-TA-PL and checks structural invariants of the
// reports.
func TestQuickSchemesNeverPanic(t *testing.T) {
	pl := layout.DefaultConfig()
	pl.Interval = 500 * sim.Microsecond
	schemes := []Config{
		{},
		{TA: controller.DefaultTA(0), CPLimit: 0.10},
		{TA: controller.DefaultTA(0), CPLimit: 0.10, PL: &pl},
	}
	f := func(seed uint64, withProc bool) bool {
		tr := randomTrace(seed, withProc)
		if len(tr.Records) == 0 {
			return true
		}
		st := trace.Analyze(tr)
		for _, cfg := range schemes {
			if cfg.TA != nil && st.DMATransfers == 0 {
				continue // nothing to calibrate against
			}
			res, err := Run(cfg, tr)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			r := res.Report
			// Energy within the physical envelope.
			window := r.SimulatedTime.Seconds()
			floor := 32 * energy.RDRAM().Power(energy.Powerdown) * window
			ceiling := 32 * 0.35 * window // active + micro-nap overhead headroom
			total := r.TotalEnergy()
			if total < floor*0.99 || total > ceiling || math.IsNaN(total) {
				t.Logf("seed %d: energy %g outside [%g, %g]", seed, total, floor, ceiling)
				return false
			}
			// Serving energy matches the bytes moved (sub-byte flow
			// completion residues allow a tiny relative slack).
			wantServing := float64(st.DMAPages) * 8192 / 3.2e9 * energy.RDRAM().Power(energy.Active)
			if math.Abs(r.Energy[energy.CatServing]-wantServing)/wantServing > 1e-4 {
				t.Logf("seed %d: serving %g want %g", seed, r.Energy[energy.CatServing], wantServing)
				return false
			}
			// Every transfer completed.
			if r.Transfers != st.DMATransfers {
				t.Logf("seed %d: %d of %d transfers", seed, r.Transfers, st.DMATransfers)
				return false
			}
			// uf in (0, 1].
			if st.DMATransfers > 0 && (r.UtilizationFactor <= 0 || r.UtilizationFactor > 1.000001) {
				t.Logf("seed %d: uf %g", seed, r.UtilizationFactor)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickProcEnergyConserved checks that processor service energy
// equals exactly accesses x 20 ns x active power under every scheme.
func TestQuickProcEnergyConserved(t *testing.T) {
	pl := layout.DefaultConfig()
	pl.Interval = 500 * sim.Microsecond
	f := func(seed uint64) bool {
		tr := randomTrace(seed, true)
		st := trace.Analyze(tr)
		if st.ProcAccesses == 0 || st.DMATransfers == 0 {
			return true
		}
		want := float64(st.ProcAccesses) * 20e-9 * energy.RDRAM().Power(energy.Active)
		for _, cfg := range []Config{{}, {TA: controller.DefaultTA(0), CPLimit: 0.10, PL: &pl}} {
			res, err := Run(cfg, tr)
			if err != nil {
				return false
			}
			got := res.Report.Energy[energy.CatProcServing]
			if math.Abs(got-want)/want > 1e-6 {
				t.Logf("seed %d: proc %g want %g", seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSchemeOrderingAcrossSeeds verifies the paper's headline ordering
// (baseline >= DMA-TA >= DMA-TA-PL in energy) holds across seeds on
// the synthetic storage workload, not just the default one.
func TestSchemeOrderingAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := synth.DefaultSt()
		cfg.Duration = 15 * sim.Millisecond
		cfg.Seed = seed
		tr, err := synth.GenerateSt(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl := layout.DefaultConfig()
		_, _, sTA, err := RunBaselinePairParallel(context.Background(), Config{},
			Config{TA: controller.DefaultTA(0), CPLimit: 0.10}, tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, _, sPL, err := RunBaselinePairParallel(context.Background(), Config{},
			Config{TA: controller.DefaultTA(0), CPLimit: 0.10, PL: &pl}, tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sPL <= 0 {
			t.Errorf("seed %d: DMA-TA-PL saved %.2f%%", seed, 100*sPL)
		}
		if sPL < sTA-0.01 {
			t.Errorf("seed %d: PL (%.2f%%) below TA (%.2f%%)", seed, 100*sPL, 100*sTA)
		}
	}
}
