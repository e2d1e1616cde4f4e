package memsys

import (
	"math"
	"testing"
	"testing/quick"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

func TestDefaultGeometry(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumChips != 32 {
		t.Errorf("NumChips = %d, want 32", g.NumChips)
	}
	if g.ChipBytes*int64(g.NumChips) != 1<<30 {
		t.Errorf("capacity = %d, want 1 GiB", g.ChipBytes*int64(g.NumChips))
	}
	if g.PagesPerChip() != 4096 {
		t.Errorf("PagesPerChip = %d, want 4096", g.PagesPerChip())
	}
	if g.TotalPages() != 131072 {
		t.Errorf("TotalPages = %d, want 131072", g.TotalPages())
	}
	// One 8-byte request takes 4 memory cycles = 2.5 ns at 3.2 GB/s.
	if got := g.RequestServiceTime(); got != 2500*sim.Picosecond {
		t.Errorf("RequestServiceTime = %v, want 2500ps", got)
	}
	// A 64-byte cache line takes 20 ns.
	if got := g.CacheLineServiceTime(); got != 20*sim.Nanosecond {
		t.Errorf("CacheLineServiceTime = %v, want 20ns", got)
	}
	// An 8 KB page takes 2.56 us.
	if got := g.ServiceTime(8 << 10); got != 2_560*sim.Nanosecond {
		t.Errorf("page ServiceTime = %v, want 2.56us", got)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{NumChips: 0, ChipBytes: 1, PageBytes: 1, ChipBandwidth: 1},
		{NumChips: 1, ChipBytes: 0, PageBytes: 1, ChipBandwidth: 1},
		{NumChips: 1, ChipBytes: 1, PageBytes: 0, ChipBandwidth: 1},
		{NumChips: 1, ChipBytes: 4, PageBytes: 8, ChipBandwidth: 1},
		{NumChips: 1, ChipBytes: 8, PageBytes: 8, ChipBandwidth: 0},
		// ChipBytes not a whole number of pages: PagesPerChip would
		// silently truncate and lose the tail of every chip.
		{NumChips: 1, ChipBytes: 12, PageBytes: 8, ChipBandwidth: 1},
		{NumChips: 32, ChipBytes: 32<<20 + 1, PageBytes: 8 << 10, ChipBandwidth: 3.2e9},
		// Non-finite bandwidth: NaN slips through a plain <= 0 check.
		{NumChips: 1, ChipBytes: 8, PageBytes: 8, ChipBandwidth: math.NaN()},
		{NumChips: 1, ChipBytes: 8, PageBytes: 8, ChipBandwidth: math.Inf(1)},
		{NumChips: 1, ChipBytes: 8, PageBytes: 8, ChipBandwidth: -1},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d: expected error for %+v", i, g)
		}
	}
	good := []Geometry{
		Default(),
		{NumChips: 1, ChipBytes: 8, PageBytes: 8, ChipBandwidth: 1},
		{NumChips: 16, ChipBytes: 64 << 10, PageBytes: 8 << 10, ChipBandwidth: 2.1e9},
	}
	for i, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("good case %d: unexpected error %v for %+v", i, err, g)
		}
	}
}

func TestMappers(t *testing.T) {
	im := InterleavedMapper{Chips: 4}
	if im.ChipOf(0) != 0 || im.ChipOf(1) != 1 || im.ChipOf(4) != 0 || im.ChipOf(7) != 3 {
		t.Error("interleaved mapping wrong")
	}
	// One chip per channel and a chip-sized stripe fill chips one at a
	// time with consecutive pages.
	sm := topologyMapper{Channels: 4, ChipsPerChannel: 1, StripePages: 10}
	if sm.ChipOf(0) != 0 || sm.ChipOf(9) != 0 || sm.ChipOf(10) != 1 || sm.ChipOf(25) != 2 {
		t.Error("sequential mapping wrong")
	}
}

// Property: both baseline mappers keep every page on a valid chip and
// are balanced to within one page.
func TestQuickMapperBalance(t *testing.T) {
	f := func(chips8, pages16 uint8) bool {
		chips := 1 + int(chips8)%16
		pagesPer := 1 + int(pages16)%64
		total := chips * pagesPer
		im := InterleavedMapper{Chips: chips}
		sm := topologyMapper{Channels: chips, ChipsPerChannel: 1, StripePages: pagesPer}
		countI := make([]int, chips)
		countS := make([]int, chips)
		for p := 0; p < total; p++ {
			ci, cs := im.ChipOf(PageID(p)), sm.ChipOf(PageID(p))
			if ci < 0 || ci >= chips || cs < 0 || cs >= chips {
				return false
			}
			countI[ci]++
			countS[cs]++
		}
		for c := 0; c < chips; c++ {
			if countI[c] != pagesPer || countS[c] != pagesPer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-15
}

func TestChipWakeSleepAccounting(t *testing.T) {
	c := NewChip(0, energy.Nap, 0, energy.RDRAM())
	// Stay in nap for 1 us, then wake.
	ready := c.BeginWake(sim.Time(1 * sim.Microsecond))
	if ready != sim.Time(1*sim.Microsecond+60*sim.Nanosecond) {
		t.Fatalf("wake ready at %v", ready)
	}
	c.CompleteWake(ready)
	if c.State() != energy.Active || !c.Resident() {
		t.Fatal("chip should be resident active")
	}
	// Serve for 3 us: 1 us serving, 0.5 us proc, rest idle-in-transfer.
	end := ready.Add(3 * sim.Microsecond)
	c.AccountActive(end, 1*sim.Microsecond, 500*sim.Nanosecond, true)
	// Idle 2 us waiting for threshold.
	end2 := end.Add(2 * sim.Microsecond)
	c.AccountActive(end2, 0, 0, false)
	// Sleep to nap.
	done := c.BeginSleep(energy.Nap, end2)
	c.CompleteSleep(done)
	c.Close(done.Add(10 * sim.Microsecond))

	b := c.Meter.Breakdown()
	if !approx(b[energy.CatLowPower], 0.030*(1e-6+10e-6)) {
		t.Errorf("low-power = %g", b[energy.CatLowPower])
	}
	wantTrans := 0.160*60e-9 + 0.160*8*625e-12
	if !approx(b[energy.CatTransition], wantTrans) {
		t.Errorf("transition = %g, want %g", b[energy.CatTransition], wantTrans)
	}
	if !approx(b[energy.CatServing], 0.300*1e-6) {
		t.Errorf("serving = %g", b[energy.CatServing])
	}
	if !approx(b[energy.CatProcServing], 0.300*0.5e-6) {
		t.Errorf("proc = %g", b[energy.CatProcServing])
	}
	if !approx(b[energy.CatIdleDMA], 0.300*1.5e-6) {
		t.Errorf("idle-dma = %g", b[energy.CatIdleDMA])
	}
	if !approx(b[energy.CatIdleThreshold], 0.300*2e-6) {
		t.Errorf("idle-threshold = %g", b[energy.CatIdleThreshold])
	}
	if c.Wakes != 1 {
		t.Errorf("wakes=%d", c.Wakes)
	}
	// uf = serving / (serving + DMA idle) = 1us / 2.5us; processor
	// service time is not part of the transfer envelope.
	if uf := float64(c.ServingTime) / float64(c.TransferTime); !approx(uf, 0.4) {
		t.Errorf("uf = %g", uf)
	}
}

func TestChipDeepen(t *testing.T) {
	c := NewChip(1, energy.Standby, 0, energy.RDRAM())
	done := c.Deepen(energy.Nap, sim.Time(100*sim.Nanosecond))
	c.CompleteSleep(done)
	if c.State() != energy.Nap {
		t.Fatalf("state = %v", c.State())
	}
	done2 := c.Deepen(energy.Powerdown, done.Add(1*sim.Microsecond))
	c.CompleteSleep(done2)
	if c.State() != energy.Powerdown {
		t.Fatalf("state = %v", c.State())
	}
	b := c.Meter.Breakdown()
	wantLow := 0.180*100e-9 + 0.030*1e-6
	if !approx(b[energy.CatLowPower], wantLow) {
		t.Errorf("low-power = %g, want %g", b[energy.CatLowPower], wantLow)
	}
	// One entry into each deeper state: the two down hops.
	m := energy.RDRAM()
	toNap, toPD := m.TransitionFor(energy.Standby, energy.Nap), m.TransitionFor(energy.Nap, energy.Powerdown)
	if want := toNap.Power*toNap.Time.Seconds() + toPD.Power*toPD.Time.Seconds(); !approx(b[energy.CatTransition], want) {
		t.Errorf("transition = %g, want %g", b[energy.CatTransition], want)
	}
}

func TestChipCloseWhileActive(t *testing.T) {
	c := NewChip(0, energy.Powerdown, 0, energy.RDRAM())
	ready := c.BeginWake(0)
	c.CompleteWake(ready)
	c.Close(ready.Add(5 * sim.Microsecond))
	b := c.Meter.Breakdown()
	if !approx(b[energy.CatIdleThreshold], 0.300*5e-6) {
		t.Errorf("close while active: idle-threshold = %g", b[energy.CatIdleThreshold])
	}
}

func TestChipCloseWhileTransitioning(t *testing.T) {
	c := NewChip(0, energy.Powerdown, 0, energy.RDRAM())
	c.BeginWake(0)
	// Close before the wake completes: transition energy was charged
	// eagerly, so Close must not double-charge or panic.
	c.Close(sim.Time(1 * sim.Nanosecond))
	b := c.Meter.Breakdown()
	if !approx(b[energy.CatTransition], 0.015*6000e-9) {
		t.Errorf("transition = %g", b[energy.CatTransition])
	}
}

func TestChipPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"wake while active", func() {
			c := NewChip(0, energy.Active, 0, energy.RDRAM())
			c.BeginWake(0)
		}},
		{"sleep while napping", func() {
			c := NewChip(0, energy.Nap, 0, energy.RDRAM())
			c.BeginSleep(energy.Powerdown, 0)
		}},
		{"sleep to active", func() {
			c := NewChip(0, energy.Active, 0, energy.RDRAM())
			c.BeginSleep(energy.Active, 0)
		}},
		{"account backwards", func() {
			c := NewChip(0, energy.Active, 100, energy.RDRAM())
			c.AccountActive(50, 0, 0, false)
		}},
		{"overfull span", func() {
			c := NewChip(0, energy.Active, 0, energy.RDRAM())
			c.AccountActive(10, 20, 0, true)
		}},
		{"deepen shallower", func() {
			c := NewChip(0, energy.Powerdown, 0, energy.RDRAM())
			c.Deepen(energy.Nap, 0)
		}},
		{"unaccounted sleep", func() {
			c := NewChip(0, energy.Active, 0, energy.RDRAM())
			c.BeginSleep(energy.Nap, 100) // active span [0,100) never accounted
		}},
		{"complete wake early", func() {
			c := NewChip(0, energy.Nap, 0, energy.RDRAM())
			c.BeginWake(0)
			c.CompleteWake(1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.f()
		})
	}
}

// Property: total metered energy equals a hand-computed integral for a
// random walk of the state machine.
func TestQuickChipConservation(t *testing.T) {
	m := energy.RDRAM()
	down, up := m.DownTo(energy.Powerdown), m.UpFrom(energy.Powerdown)
	f := func(steps []uint8) bool {
		c := NewChip(0, energy.Powerdown, 0, m)
		now := sim.Time(0)
		var want float64
		for _, s := range steps {
			dwell := sim.Duration(1+int(s%100)) * sim.Microsecond
			if c.State() == energy.Powerdown {
				want += m.Power(energy.Powerdown) * dwell.Seconds()
				now = now.Add(dwell)
				ready := c.BeginWake(now)
				want += up.Power * up.Time.Seconds()
				now = ready
				c.CompleteWake(now)
			} else {
				now = now.Add(dwell)
				serving := dwell / 3
				c.AccountActive(now, serving, 0, true)
				want += m.Power(energy.Active) * dwell.Seconds()
				done := c.BeginSleep(energy.Powerdown, now)
				want += down.Power * down.Time.Seconds()
				now = done
				c.CompleteSleep(now)
			}
		}
		c.Close(now)
		b := c.Meter.Breakdown()
		return approx(b.Total(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
