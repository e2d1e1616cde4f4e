package exact

// Cross-check: the production fluid controller must agree with this
// request-level golden model on completion times, serving energy and
// utilization for arbitrary baseline micro-scenarios.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dmamem/internal/bus"
	"dmamem/internal/controller"
	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/metrics"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
)

// runFluid executes the same scenario on the production controller and
// returns its report. Every chip but the one the scenario reaches stays
// in powerdown, so the report's active energy and uf are that chip's.
func runFluid(t testing.TB, xs []Transfer) *metrics.Report {
	t.Helper()
	eng := sim.New()
	cfg := controller.Config{
		Geometry:     memsys.Default(),
		Buses:        bus.DefaultConfig(),
		Policy:       policy.ChainFor(energy.RDRAM()),
		Mapper:       sequentialMapper(memsys.Default()),
		InitialState: energy.Powerdown,
	}
	c, err := controller.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		x := xs[i]
		eng.SchedulePrio(x.Arrival, 1, func(*sim.Engine) {
			c.StartTransfer(dma.Transfer{
				ID: int64(x.ID), Arrival: x.Arrival, Bus: x.Bus,
				Page: x.Page, Pages: x.Pages,
			})
		})
	}
	eng.Run()
	return c.Report("fluid", c.Finish(eng.Now()))
}

func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Mapper = sequentialMapper(cfg.Geometry)
	return cfg
}

// TestCrossCheckAggregates compares serving energy, total energy and
// utilization between the golden model and the fluid controller over
// randomized baseline scenarios.
func TestCrossCheckAggregates(t *testing.T) {
	f := func(seed uint64) bool {
		rng := synth.NewRNG(seed)
		n := 1 + rng.Intn(5)
		var xs []Transfer
		for i := 0; i < n; i++ {
			xs = append(xs, Transfer{
				ID:      i,
				Arrival: sim.Time(rng.Intn(40)) * sim.Time(sim.Microsecond),
				Bus:     rng.Intn(3),
				// Chips 0..2 under the sequential mapper.
				Page:  memsys.PageID(rng.Intn(3)*4096 + rng.Intn(512)),
				Pages: 1 + rng.Intn(2),
			})
		}
		golden, err := Run(goldenConfig(), xs)
		if err != nil {
			t.Log(err)
			return false
		}
		eng := sim.New()
		cfg := controller.Config{
			Geometry:     memsys.Default(),
			Buses:        bus.DefaultConfig(),
			Policy:       policy.ChainFor(energy.RDRAM()),
			Mapper:       sequentialMapper(memsys.Default()),
			InitialState: energy.Powerdown,
		}
		c, err := controller.New(eng, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		for i := range xs {
			x := xs[i]
			eng.SchedulePrio(x.Arrival, 1, func(*sim.Engine) {
				c.StartTransfer(dma.Transfer{
					ID: int64(x.ID), Arrival: x.Arrival, Bus: x.Bus,
					Page: x.Page, Pages: x.Pages,
				})
			})
		}
		eng.Run()
		end := c.Finish(eng.Now())
		fluid := c.Report("fluid", end)

		// Serving energy: both models must charge exactly bytes/Rm.
		gServe := golden.Energy[energy.CatServing]
		fServe := fluid.Energy[energy.CatServing]
		if math.Abs(gServe-fServe)/gServe > 1e-4 {
			t.Logf("seed %d: serving golden %g vs fluid %g", seed, gServe, fServe)
			return false
		}
		// Utilization factor within burst-model tolerance. Micro
		// scenarios are noisy: a single overlap that one model's wake
		// timing produces and the other's misses swings uf by a large
		// step, so the randomized bound is loose; the structured tests
		// above pin the canonical cases tightly.
		if math.Abs(golden.UF()-fluid.UtilizationFactor) > 0.12 {
			t.Logf("seed %d: uf golden %.4f vs fluid %.4f", seed, golden.UF(), fluid.UtilizationFactor)
			return false
		}
		// Makespans agree within a beat per transfer plus wake skew.
		var gLast sim.Time
		for _, done := range golden.Completion {
			if done > gLast {
				gLast = done
			}
		}
		fLast := eng.Now()
		diff := float64(gLast - fLast)
		tol := float64(len(xs))*7500 + float64(2*6*sim.Microsecond)
		if math.Abs(diff) > tol {
			t.Logf("seed %d: makespan golden %v vs fluid %v", seed, gLast, fLast)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 60,
		// Fixed source: the tolerance above is calibrated, so keep the
		// scenario population reproducible.
		Rand: rand.New(rand.NewSource(7)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossCheckAlignedEnergy compares total energy for the flagship
// alignment scenario across both models.
func TestCrossCheckAlignedEnergy(t *testing.T) {
	xs := []Transfer{
		{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1},
		{ID: 2, Arrival: 0, Bus: 1, Page: 100, Pages: 1},
		{ID: 3, Arrival: 0, Bus: 2, Page: 200, Pages: 1},
	}
	golden, err := Run(goldenConfig(), xs)
	if err != nil {
		t.Fatal(err)
	}
	fluid := runFluid(t, xs)

	// Active-mode energy (serving + mismatch idle) agrees.
	gActive := golden.Energy[energy.CatServing] + golden.Energy[energy.CatIdleDMA]
	fActive := fluid.Energy[energy.CatServing] + fluid.Energy[energy.CatIdleDMA]
	if math.Abs(gActive-fActive)/gActive > 0.02 {
		t.Fatalf("active energy: golden %g vs fluid %g", gActive, fActive)
	}
	// Both models see a fully utilized chip.
	if golden.UF() < 0.99 || fluid.UtilizationFactor < 0.99 {
		t.Fatalf("uf: golden %.3f fluid %.3f", golden.UF(), fluid.UtilizationFactor)
	}
}
