package controller

// Cross-validation of the fluid service model against exact
// request-level schedules (DESIGN.md's fidelity check): for scenarios
// where every 8-byte DMA-memory request can be enumerated, the fluid
// controller must reproduce the same service times, utilization
// factors and serving energy.

import (
	"math"
	"testing"
	"testing/quick"

	"dmamem/internal/bus"
	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// runAligned drives n same-size transfers from n distinct buses to one
// chip, all arriving at once, and returns the report plus the chip.
func runAligned(t *testing.T, n, pages int) (*Controller, *memsys.Chip) {
	t.Helper()
	cfg := baseConfig()
	cfg.Buses.Count = n
	// Keep each transfer on one chip: sequential layout puts pages
	// 0..4095 on chip 0.
	cfg.Mapper = sequentialMapper(cfg.Geometry)
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x := dma.Transfer{
			ID: int64(i), Bus: i,
			Page: memsys.PageID(i * 32), Pages: pages, // all on chip 0
		}
		eng.SchedulePrio(0, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
	}
	eng.Run()
	c.Finish(eng.Now())
	return c, c.chips[0].chip
}

func TestFluidMatchesExactUtilization(t *testing.T) {
	// k simultaneous streams from distinct buses: the exact schedule's
	// utilization (k/3 for k <= 3) must match the fluid model's.
	for k := 1; k <= 3; k++ {
		exact := dma.ExactSchedule(0, k, 512,
			12*625*sim.Picosecond, 4*625*sim.Picosecond)
		wantUF := dma.UtilizationOf(exact)

		_, chip := runAligned(t, k, 4)
		gotUF := chipUF(chip)
		if math.Abs(gotUF-wantUF) > 0.02 {
			t.Errorf("k=%d: fluid uf %.4f vs exact %.4f", k, gotUF, wantUF)
		}
	}
}

func TestFluidMatchesExactServiceTime(t *testing.T) {
	// A lone 4-page transfer: exact duration = 4096 requests x 7.5 ns
	// (bus-limited), plus the powerdown wake.
	c, _ := runAligned(t, 1, 4)
	wake := energy.RDRAM().UpFrom(energy.Powerdown).Time
	exact := sim.Duration(4*1024) * 7500 * sim.Picosecond
	got := c.xferTimes.Mean()
	want := sim.Duration(wake) + exact
	if diff := got - want; diff < -sim.Nanosecond || diff > 50*sim.Nanosecond {
		t.Errorf("service = %v, want %v", got, want)
	}
}

func TestFluidMatchesExactServingEnergy(t *testing.T) {
	// Serving energy is bytes/Rm x active power, independent of
	// alignment. Check for 1..3 streams.
	for k := 1; k <= 3; k++ {
		_, chip := runAligned(t, k, 2)
		bytes := float64(k) * 2 * 8192
		wantJ := bytes / 3.2e9 * energy.RDRAM().Power(energy.Active)
		gotJ := chip.Meter.Breakdown()[energy.CatServing]
		if math.Abs(gotJ-wantJ)/wantJ > 1e-6 {
			t.Errorf("k=%d: serving %.4g J vs exact %.4g J", k, gotJ, wantJ)
		}
	}
}

func TestFluidSameBusSerialization(t *testing.T) {
	// Two same-bus transfers to one chip: the bus splits beats between
	// them, so the chip still sees one full-rate request stream — the
	// envelope doubles and uf stays 1/3, exactly as beat-interleaving
	// gives.
	cfg := baseConfig()
	cfg.Mapper = sequentialMapper(cfg.Geometry)
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		x := dma.Transfer{ID: int64(i), Bus: 0, Page: memsys.PageID(i * 32), Pages: 2}
		eng.SchedulePrio(0, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
	}
	eng.Run()
	c.Finish(eng.Now())
	chip := c.chips[0].chip
	if uf := chipUF(chip); math.Abs(uf-1.0/3.0) > 0.01 {
		t.Errorf("same-bus uf = %.4f, want 1/3", uf)
	}
	// Envelope = 2 transfers x 2 pages at bus rate.
	want := sim.Duration(2*2*1024) * 7500 * sim.Picosecond
	if got := chip.TransferTime; math.Abs(float64(got-want))/float64(want) > 0.01 {
		t.Errorf("envelope %v, want %v", got, want)
	}
}

func TestFluidCrossChipBusSharing(t *testing.T) {
	// Two same-bus transfers to two different chips: each chip sees a
	// half-rate stream (alternating bursts). Per chip: envelope equals
	// the full span, but half of it is micro-nap, so the transfer
	// envelope (serving + mismatch idle) equals one transfer at full
	// rate and uf stays 1/3.
	cfg := baseConfig()
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		x := dma.Transfer{ID: int64(i), Bus: 0, Page: memsys.PageID(i), Pages: 1} // interleaved: chips 0 and 1
		eng.SchedulePrio(0, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
	}
	eng.Run()
	c.Finish(eng.Now())
	for i := 0; i < 2; i++ {
		chip := c.chips[i].chip
		if uf := chipUF(chip); math.Abs(uf-1.0/3.0) > 0.02 {
			t.Errorf("chip %d uf = %.4f, want 1/3", i, uf)
		}
		// Micro-nap must be present: the half-rate stream leaves
		// burst gaps charged at nap power.
		low := chip.Meter.Breakdown()[energy.CatLowPower]
		if low <= 0 {
			t.Errorf("chip %d has no micro-nap energy", i)
		}
	}
}

// Property: for any number of pages and any k in 1..3, the fluid
// model's chip-0 utilization equals min(1, k/3) within tolerance, and
// total energy is finite and positive.
func TestQuickFluidUtilization(t *testing.T) {
	f := func(k8, pages8 uint8) bool {
		k := 1 + int(k8)%3
		pages := 1 + int(pages8)%6
		cfg := baseConfig()
		cfg.Buses.Count = 3
		cfg.Mapper = sequentialMapper(cfg.Geometry)
		eng := sim.New()
		c, err := New(eng, cfg)
		if err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			x := dma.Transfer{ID: int64(i), Bus: i, Page: memsys.PageID(i * 32), Pages: pages}
			eng.SchedulePrio(0, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
		}
		eng.Run()
		end := c.Finish(eng.Now())
		r := c.Report("x", end)
		want := math.Min(1, float64(k)*bus.PCIXBandwidth/3.2e9)
		if math.Abs(r.UtilizationFactor-want) > 0.02 {
			return false
		}
		return r.TotalEnergy() > 0 && !math.IsNaN(r.TotalEnergy())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is conserved against the power envelope — total
// energy over any run lies between the all-powerdown floor and the
// all-active ceiling for the metered window.
func TestQuickEnergyEnvelope(t *testing.T) {
	f := func(seed uint8, n8 uint8) bool {
		cfg := baseConfig()
		eng := sim.New()
		c, err := New(eng, cfg)
		if err != nil {
			return false
		}
		n := 1 + int(n8)%20
		for i := 0; i < n; i++ {
			at := sim.Time(int(seed)+i*7) * sim.Time(sim.Microsecond)
			x := dma.Transfer{
				ID: int64(i), Bus: i % 3,
				Page: memsys.PageID((i * 13) % 256), Pages: 1 + i%3,
			}
			eng.SchedulePrio(at, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
		}
		eng.Run()
		end := c.Finish(eng.Now())
		r := c.Report("x", end)
		window := sim.Duration(end).Seconds()
		floor := 32 * energy.RDRAM().Power(energy.Powerdown) * window
		ceiling := 32 * (energy.RDRAM().Power(energy.Active) + 0.01) * window
		total := r.TotalEnergy()
		return total >= floor*0.999 && total <= ceiling
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// chipUF is the paper's uf for one chip: serving time over the time a
// transfer was in progress.
func chipUF(c *memsys.Chip) float64 {
	return float64(c.ServingTime) / float64(c.TransferTime)
}

// sequentialMapper fills chips one at a time with consecutive pages:
// a topology of one chip per channel with a chip-sized stripe.
func sequentialMapper(g memsys.Geometry) memsys.Mapper {
	return memsys.Topology{Channels: g.NumChips, StripePages: g.PagesPerChip()}.Mapper(g)
}
