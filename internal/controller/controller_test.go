package controller

import (
	"math"
	"testing"

	"dmamem/internal/bus"
	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

func baseConfig() Config {
	return Config{
		Geometry:     memsys.Default(),
		Buses:        bus.DefaultConfig(),
		Policy:       policy.ChainFor(energy.RDRAM()),
		InitialState: energy.Powerdown,
	}
}

// run schedules the given transfers and processor accesses, runs to
// drain, and returns the report.
func run(t *testing.T, cfg Config, xfers []dma.Transfer, procs []trace.Record) (*Controller, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xfers {
		x := x
		eng.SchedulePrio(x.Arrival, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
	}
	for _, p := range procs {
		p := p
		eng.SchedulePrio(p.Time, prioArrival, func(*sim.Engine) { c.ProcAccess(p.Page) })
	}
	eng.Run()
	return c, eng
}

func TestConfigValidate(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = nil
	if cfg.validate() == nil {
		t.Error("nil policy accepted")
	}
	cfg = baseConfig()
	cfg.TA = &TAConfig{Mu: -1, EpochLength: 1}
	if cfg.validate() == nil {
		t.Error("negative mu accepted")
	}
	cfg = baseConfig()
	cfg.TA = &TAConfig{Mu: 1, EpochLength: 0}
	if cfg.validate() == nil {
		t.Error("zero epoch accepted")
	}
}

func TestSingleTransferBaseline(t *testing.T) {
	cfg := baseConfig()
	x := dma.Transfer{ID: 1, Arrival: sim.Time(10 * sim.Microsecond), Bus: 0, Page: 0, Pages: 1}
	c, eng := run(t, cfg, []dma.Transfer{x}, nil)
	end := c.Finish(eng.Now())
	r := c.Report("baseline", end)

	if r.Transfers != 1 {
		t.Fatalf("transfers = %d", r.Transfers)
	}
	// Service = powerdown wake (6 us) + one 8 KB page at bus rate
	// (7.68 us).
	want := 6*sim.Microsecond + sim.FromSeconds(8192.0/bus.PCIXBandwidth)
	if d := r.MeanServiceTime - want; d < -sim.Nanosecond || d > 10*sim.Nanosecond {
		t.Fatalf("service time = %v, want ~%v", r.MeanServiceTime, want)
	}
	// A lone stream utilizes one third of the chip (Figure 2a).
	if math.Abs(r.UtilizationFactor-1.0/3.0) > 0.001 {
		t.Fatalf("uf = %g, want 1/3", r.UtilizationFactor)
	}
	if r.Wakes != 1 {
		t.Fatalf("wakes = %d", r.Wakes)
	}
	b := r.Energy
	if b[energy.CatServing] <= 0 || b[energy.CatIdleDMA] <= 0 ||
		b[energy.CatTransition] <= 0 || b[energy.CatLowPower] <= 0 {
		t.Fatalf("missing energy categories: %v", b)
	}
	// Idle-DMA is twice the serving energy for a lone stream.
	if ratio := b[energy.CatIdleDMA] / b[energy.CatServing]; math.Abs(ratio-2.0) > 0.01 {
		t.Fatalf("idle/serving = %g, want 2", ratio)
	}
}

func TestThreeBusesSaturateChip(t *testing.T) {
	cfg := baseConfig()
	// Pages 0, 32, 64 all map to chip 0 under interleaving.
	xs := []dma.Transfer{
		{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1},
		{ID: 2, Arrival: 0, Bus: 1, Page: 32, Pages: 1},
		{ID: 3, Arrival: 0, Bus: 2, Page: 64, Pages: 1},
	}
	c, eng := run(t, cfg, xs, nil)
	end := c.Finish(eng.Now())
	r := c.Report("baseline", end)
	// Concurrent streams from three buses exactly saturate the chip.
	if math.Abs(r.UtilizationFactor-1.0) > 0.001 {
		t.Fatalf("uf = %g, want 1.0", r.UtilizationFactor)
	}
	if r.Wakes != 1 {
		t.Fatalf("wakes = %d, want one shared wake", r.Wakes)
	}
}

func TestTAGathersAndAligns(t *testing.T) {
	cfg := baseConfig()
	cfg.TA = DefaultTA(100) // generous slack
	xs := []dma.Transfer{
		{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1},
		{ID: 2, Arrival: sim.Time(1 * sim.Microsecond), Bus: 1, Page: 32, Pages: 1},
		{ID: 3, Arrival: sim.Time(2 * sim.Microsecond), Bus: 2, Page: 64, Pages: 1},
	}
	c, eng := run(t, cfg, xs, nil)
	end := c.Finish(eng.Now())
	r := c.Report("dma-ta", end)

	if math.Abs(r.UtilizationFactor-1.0) > 0.001 {
		t.Fatalf("uf = %g, want 1.0 after alignment", r.UtilizationFactor)
	}
	// The first transfer waited ~2 us for the gather.
	if r.MeanGatherDelay < 500*sim.Nanosecond || r.MeanGatherDelay > 2*sim.Microsecond {
		t.Fatalf("mean gather delay = %v", r.MeanGatherDelay)
	}
	if r.Wakes != 1 {
		t.Fatalf("wakes = %d", r.Wakes)
	}
	if c.GatedCount() != 0 {
		t.Fatal("gated transfers left behind")
	}
}

func TestTASavesEnergyOnStaggeredArrivals(t *testing.T) {
	// Arrivals staggered beyond the baseline's active window: the
	// baseline serves each alone at uf~1/3; TA gathers the later two
	// and aligns them. TA must use less energy.
	mk := func() []dma.Transfer {
		return []dma.Transfer{
			{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 2},
			{ID: 2, Arrival: sim.Time(30 * sim.Microsecond), Bus: 1, Page: 64, Pages: 2},
			{ID: 3, Arrival: sim.Time(60 * sim.Microsecond), Bus: 2, Page: 128, Pages: 2},
		}
	}
	// Meter both over the same fixed window so tail floor energy is
	// identical.
	window := sim.Time(1 * sim.Millisecond)
	cfgB := baseConfig()
	cb, _ := run(t, cfgB, mk(), nil)
	rb := cb.Report("baseline", cb.Finish(window))

	cfgT := baseConfig()
	cfgT.TA = &TAConfig{Mu: 100, EpochLength: 10 * sim.Microsecond, MaxDelay: 100 * sim.Microsecond}
	ct, _ := run(t, cfgT, mk(), nil)
	rt := ct.Report("dma-ta", ct.Finish(window))
	if rt.TotalEnergy() >= rb.TotalEnergy() {
		t.Fatalf("TA used %.3g J >= baseline %.3g J", rt.TotalEnergy(), rb.TotalEnergy())
	}
	if rt.UtilizationFactor <= rb.UtilizationFactor {
		t.Fatalf("TA uf %.3f <= baseline %.3f", rt.UtilizationFactor, rb.UtilizationFactor)
	}
}

func TestTAZeroMuReleasesImmediately(t *testing.T) {
	cfg := baseConfig()
	cfg.TA = DefaultTA(0)
	x := dma.Transfer{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1}
	c, eng := run(t, cfg, []dma.Transfer{x}, nil)
	end := c.Finish(eng.Now())
	r := c.Report("ta0", end)
	// Zero slack: no gather delay beyond the wake itself.
	if r.MeanGatherDelay != 0 {
		t.Fatalf("gather delay = %v with mu=0", r.MeanGatherDelay)
	}
	want := 6*sim.Microsecond + sim.FromSeconds(8192.0/bus.PCIXBandwidth)
	if d := r.MeanServiceTime - want; d < -sim.Nanosecond || d > 10*sim.Nanosecond {
		t.Fatalf("service = %v, want ~%v", r.MeanServiceTime, want)
	}
}

func TestTAEpochReleasesLoneTransfer(t *testing.T) {
	// A lone gated transfer must be released once epochs have drained
	// the slack — within a few epochs, not at the max-delay bound.
	cfg := baseConfig()
	cfg.TA = &TAConfig{Mu: 100, EpochLength: 10 * sim.Microsecond, MaxDelay: 10 * sim.Millisecond}
	x := dma.Transfer{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1}
	c, eng := run(t, cfg, []dma.Transfer{x}, nil)
	end := c.Finish(eng.Now())
	r := c.Report("ta", end)
	if r.MeanGatherDelay < 5*sim.Microsecond || r.MeanGatherDelay > 50*sim.Microsecond {
		t.Fatalf("gather delay = %v, want ~1-2 epochs", r.MeanGatherDelay)
	}
}

func TestTAMaxDelayBound(t *testing.T) {
	// With a huge epoch (no drain), the hard delay bound must fire.
	cfg := baseConfig()
	cfg.TA = &TAConfig{Mu: 1000, EpochLength: 5 * sim.Microsecond, MaxDelay: 30 * sim.Microsecond}
	xs := []dma.Transfer{
		// Seed slack with a served transfer on an active chip first.
		{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 8},
		{ID: 2, Arrival: sim.Time(100 * sim.Microsecond), Bus: 1, Page: 1, Pages: 1},
	}
	c, eng := run(t, cfg, xs, nil)
	end := c.Finish(eng.Now())
	_ = c.Report("ta", end)
	// The second transfer (lone on its chip, slack-rich) must not wait
	// longer than MaxDelay + one epoch.
	if d := c.gatherDelays.Max(); d > 36*sim.Microsecond {
		t.Fatalf("max gather delay = %v exceeds bound", d)
	}
}

func TestProcAccessWakesChip(t *testing.T) {
	cfg := baseConfig()
	procs := []trace.Record{
		{Time: 0, Kind: trace.ProcRead, Page: 5},
		{Time: sim.Time(1 * sim.Microsecond), Kind: trace.ProcRead, Page: 5},
	}
	c, eng := run(t, cfg, nil, procs)
	end := c.Finish(eng.Now())
	r := c.Report("proc", end)
	if c.procAccesses != 2 {
		t.Fatalf("proc accesses = %d", c.procAccesses)
	}
	if r.Energy[energy.CatProcServing] <= 0 {
		t.Fatal("no proc serving energy")
	}
	if r.Wakes < 1 {
		t.Fatal("proc access did not wake the chip")
	}
	// Both accesses land on chip 5 only; other chips stay in powerdown
	// the whole run.
	for i, cs := range c.chips {
		if i == 5 {
			continue
		}
		if cs.chip.Wakes != 0 {
			t.Fatalf("chip %d woke without traffic", i)
		}
	}
}

func TestPolicyDescentWithoutTraffic(t *testing.T) {
	cfg := baseConfig()
	cfg.InitialState = energy.Active
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run() // policy chain drains: every chip descends to powerdown
	end := c.Finish(sim.Time(100 * sim.Microsecond))
	r := c.Report("idle", end)
	// One entry into each state of the chain: the transition energy is
	// the three down hops, summed in the order they are charged.
	m := energy.RDRAM()
	var hops float64
	for _, hop := range [][2]energy.State{{energy.Active, energy.Standby}, {energy.Standby, energy.Nap}, {energy.Nap, energy.Powerdown}} {
		tr := m.TransitionFor(hop[0], hop[1])
		hops += tr.Power * tr.Time.Seconds()
	}
	for i, cs := range c.chips {
		ch := cs.chip
		if ch.State() != energy.Powerdown {
			t.Fatalf("chip %d ended in %v", i, ch.State())
		}
		if b := ch.Meter.Breakdown(); b[energy.CatTransition] != hops {
			t.Fatalf("chip %d sleep chain wrong: transition energy %g J, want %g J", i, b[energy.CatTransition], hops)
		}
	}
	// Low-power residence dominates the window.
	if r.Energy.Fraction(energy.CatLowPower) < 0.5 {
		t.Fatalf("low-power fraction = %g", r.Energy.Fraction(energy.CatLowPower))
	}
	if r.Energy[energy.CatIdleThreshold] <= 0 {
		t.Fatal("no threshold idle recorded")
	}
}

func TestMultiPageTransferCrossesChips(t *testing.T) {
	cfg := baseConfig()
	// 4 pages interleaved over 32 chips: chips 0..3 in sequence.
	x := dma.Transfer{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 4}
	c, eng := run(t, cfg, []dma.Transfer{x}, nil)
	end := c.Finish(eng.Now())
	r := c.Report("multi", end)
	if r.Wakes != 4 {
		t.Fatalf("wakes = %d, want 4 chips touched in sequence", r.Wakes)
	}
	// Service: 4 wakes + 4 pages at bus rate.
	want := 4*(6*sim.Microsecond) + 4*sim.FromSeconds(8192.0/bus.PCIXBandwidth)
	if d := r.MeanServiceTime - want; d < -sim.Nanosecond || d > 40*sim.Nanosecond {
		t.Fatalf("service = %v, want ~%v", r.MeanServiceTime, want)
	}
}

func TestSequentialMapperSingleWake(t *testing.T) {
	cfg := baseConfig()
	cfg.Mapper = sequentialMapper(cfg.Geometry)
	x := dma.Transfer{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 4}
	c, eng := run(t, cfg, []dma.Transfer{x}, nil)
	end := c.Finish(eng.Now())
	r := c.Report("seq", end)
	if r.Wakes != 1 {
		t.Fatalf("wakes = %d, want 1 under sequential layout", r.Wakes)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() (*Controller, *sim.Engine) {
		cfg := baseConfig()
		cfg.TA = DefaultTA(10)
		var xs []dma.Transfer
		for i := 0; i < 50; i++ {
			xs = append(xs, dma.Transfer{
				ID: int64(i), Arrival: sim.Time(i * 3 * int(sim.Microsecond)),
				Bus: i % 3, Page: memsys.PageID((i * 7) % 256), Pages: 1 + i%4,
			})
		}
		eng := sim.New()
		c, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			x := x
			eng.SchedulePrio(x.Arrival, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
		}
		eng.Run()
		return c, eng
	}
	c1, e1 := mk()
	r1 := c1.Report("a", c1.Finish(e1.Now()))
	c2, e2 := mk()
	r2 := c2.Report("a", c2.Finish(e2.Now()))
	if r1.TotalEnergy() != r2.TotalEnergy() {
		t.Fatalf("energy differs: %v vs %v", r1.TotalEnergy(), r2.TotalEnergy())
	}
	if r1.MeanServiceTime != r2.MeanServiceTime {
		t.Fatalf("service differs: %v vs %v", r1.MeanServiceTime, r2.MeanServiceTime)
	}
}

func TestFinishExtendsWindow(t *testing.T) {
	cfg := baseConfig()
	x := dma.Transfer{ID: 1, Arrival: 0, Bus: 0, Page: 0, Pages: 1}
	c, _ := run(t, cfg, []dma.Transfer{x}, nil)
	floor := sim.Time(1 * sim.Millisecond)
	end := c.Finish(floor)
	if end != floor {
		t.Fatalf("end = %v, want floor %v", end, floor)
	}
	r := c.Report("x", end)
	// ~1 ms of 32 chips in powerdown floors the energy at ~96 uJ.
	if r.Energy[energy.CatLowPower] < 80e-6 {
		t.Fatalf("low-power energy = %g, window not extended", r.Energy[energy.CatLowPower])
	}
}

func TestEnergyAccountingClosed(t *testing.T) {
	// Total energy must match an independent power integral: with all
	// 32 chips in powerdown for exactly 1 ms and no traffic at all.
	cfg := baseConfig()
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	end := c.Finish(sim.Time(1 * sim.Millisecond))
	r := c.Report("floor", end)
	want := 32 * energy.RDRAM().Power(energy.Powerdown) * 1e-3
	if math.Abs(r.TotalEnergy()-want)/want > 1e-9 {
		t.Fatalf("energy = %g, want %g", r.TotalEnergy(), want)
	}
}

func TestBadBusPanics(t *testing.T) {
	cfg := baseConfig()
	c, err := New(sim.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad bus accepted")
		}
	}()
	c.StartTransfer(dma.Transfer{ID: 1, Bus: 7, Page: 0, Pages: 1})
}
