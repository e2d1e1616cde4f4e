package controller

import (
	"math"
	"testing"

	"dmamem/internal/bus"
	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// manyBusConfig returns a configuration with more buses than the 64
// the old fixed-size accounting arrays silently assumed.
func manyBusConfig() Config {
	cfg := baseConfig()
	cfg.Buses = bus.Config{Count: 80, Bandwidth: bus.PCIXBandwidth}
	return cfg
}

// TestManyBusesBaseline is the regression test for the fixed-size
// [64]float64 per-bus rate array in accountChip: a transfer on bus 70
// of an 80-bus system panicked with index-out-of-range before the
// array became a slice sized from the config.
func TestManyBusesBaseline(t *testing.T) {
	cfg := manyBusConfig()
	cfg.InitialState = energy.Active
	x := dma.Transfer{ID: 1, Arrival: sim.Time(sim.Microsecond), Bus: 70, Page: 0, Pages: 1}
	c, eng := run(t, cfg, []dma.Transfer{x}, nil)
	end := c.Finish(eng.Now())
	r := c.Report("baseline", end)
	if r.Transfers != 1 {
		t.Fatalf("transfers = %d, want 1", r.Transfers)
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
}

// TestManyBusesGated drives the DMA-TA gating bookkeeping
// (distinctGatedBuses / maxPerBus) with a bus index above 64, which
// overran their fixed-size scratch arrays before they were sized from
// the config.
func TestManyBusesGated(t *testing.T) {
	cfg := manyBusConfig()
	cfg.TA = DefaultTA(2.0)
	xs := []dma.Transfer{
		{ID: 1, Arrival: sim.Time(sim.Microsecond), Bus: 70, Page: 0, Pages: 1},
		{ID: 2, Arrival: sim.Time(2 * sim.Microsecond), Bus: 79, Page: 8, Pages: 1},
	}
	c, eng := run(t, cfg, xs, nil)
	end := c.Finish(eng.Now())
	r := c.Report("dma-ta", end)
	if r.Transfers != 2 {
		t.Fatalf("transfers = %d, want 2", r.Transfers)
	}
}

// TestCompletionDelay covers the guard on the remaining/rate division:
// the allocator can only produce positive rates, so a non-positive or
// NaN rate must panic with a diagnostic instead of converting +Inf to
// an implementation-defined int64.
func TestCompletionDelay(t *testing.T) {
	if got := completionDelay(8.0, 2.0); got != 4000*sim.Millisecond {
		t.Fatalf("completionDelay = %v, want 4s", got)
	}
	if got := completionDelay(0, 1); got != 1 {
		t.Fatalf("zero remaining: %v, want the 1ps floor", got)
	}
	for _, rate := range []float64{0, -1, math.NaN()} {
		rate := rate
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("completionDelay(1, %g) did not panic", rate)
				}
			}()
			completionDelay(1, rate)
		}()
	}
}

// TestClampedProcSpansReported drives the processor-work clamp — more
// pending processor service than the accounting span can absorb — and
// checks the previously write-only counter now reaches the report.
func TestClampedProcSpansReported(t *testing.T) {
	cfg := baseConfig()
	cfg.InitialState = energy.Active
	// 500 same-instant accesses to chip 0 pile up ~10 us of pending
	// service; the transfer arriving 1 ns later bounds the accounting
	// span at 1 ns, forcing the clamp to spill the rest.
	var procs []trace.Record
	for i := 0; i < 500; i++ {
		procs = append(procs, trace.Record{Time: sim.Time(sim.Microsecond), Page: 0})
	}
	x := dma.Transfer{ID: 1, Arrival: sim.Time(sim.Microsecond + sim.Nanosecond), Bus: 0, Page: 1, Pages: 1}
	c, eng := run(t, cfg, []dma.Transfer{x}, procs)
	end := c.Finish(eng.Now())
	r := c.Report("baseline", end)
	if r.ClampedProcSpans <= 0 {
		t.Fatalf("ClampedProcSpans = %d, want > 0", r.ClampedProcSpans)
	}
}

// TestControllerSteadyStateZeroAlloc is the allocation guard for the
// controller hot path: with a standing flow, the per-event work —
// dirty-set accounting, rate reallocation, completion rescheduling,
// processor-access bookkeeping — must not allocate once the scratch
// buffers are warm.
func TestControllerSteadyStateZeroAlloc(t *testing.T) {
	cfg := baseConfig()
	cfg.InitialState = energy.Active
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := dma.Transfer{ID: 1, Arrival: sim.Time(sim.Microsecond), Bus: 0, Page: 0, Pages: 64}
	eng.SchedulePrio(x.Arrival, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
	eng.RunUntil(sim.Time(2 * sim.Microsecond))
	if len(c.allFlows) == 0 {
		t.Fatal("no standing flow to measure against")
	}

	now := eng.Now()
	allocs := testing.AllocsPerRun(200, func() {
		now = now.Add(100 * sim.Nanosecond)
		c.ProcAccess(0)
		c.accountAll(now)
		c.recompute(now)
	})
	if allocs != 0 {
		t.Fatalf("controller steady state allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestTransferLifecycleZeroAlloc extends the allocation guard to whole
// transfers: arrival, issue (or gating and release under DMA-TA),
// wake, rate reallocation and completion. Flows and transfer records
// come from the controller's free lists, so once a warm-up has grown
// them to the peak in-flight count a lifecycle allocates nothing. The
// only growth left is the amortized append of each finished
// transfer's times to the report statistics, which the per-op average
// absorbs.
func TestTransferLifecycleZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		ta   bool
	}{{"baseline", false}, {"dma-ta", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			if tc.ta {
				cfg.TA = DefaultTA(2.0)
			}
			eng := sim.New()
			c, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Three transfers from three buses to chip 0 per cycle: the
			// gather target under DMA-TA, plain sharing in the baseline.
			// The handlers are built once so scheduling allocates no
			// closure.
			var xs [3]dma.Transfer
			var arrive [3]sim.Handler
			for i := range xs {
				i := i
				arrive[i] = func(*sim.Engine) { c.StartTransfer(xs[i]) }
			}
			cycle := func() {
				base := eng.Now().Add(50 * sim.Microsecond)
				for i := range xs {
					c.nextXferID++
					xs[i] = dma.Transfer{ID: c.nextXferID, Bus: i, Page: 0, Pages: 2,
						Arrival: base.Add(sim.Duration(i) * sim.Microsecond)}
					eng.SchedulePrio(xs[i].Arrival, prioArrival, arrive[i])
				}
				eng.Run()
			}
			for i := 0; i < 64; i++ {
				cycle()
			}
			if c.transfers != 64*3 || c.xferTimes.Count() != 64*3 {
				t.Fatalf("warm-up finished %d of %d started transfers, want 192 of 192",
					c.xferTimes.Count(), c.transfers)
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("transfer lifecycle allocated %.1f allocs/op, want 0", allocs)
			}
			if tc.ta && c.RelGathered+c.RelSlack+c.RelMaxDelay+c.RelDrain == 0 {
				t.Fatal("DMA-TA never gated a transfer; the gated path went unmeasured")
			}
		})
	}
}

// TestProcWakeLifecycleZeroAlloc is the allocation guard for the
// processor-access wake path and the power-step event model. Each
// cycle, an access wakes the chip from powerdown (settling the
// powerdown entry the last cycle left unsettled); the chip serves it
// and steps down; a second access lands while the standby entry is in
// flight (the wake waits for a sleep-completion event); a third lands
// after the next standby entry completed (the wake settles it); then
// the chip steps down the whole chain again. Once the engine's event
// pool is warm, a cycle allocates nothing.
func TestProcWakeLifecycleZeroAlloc(t *testing.T) {
	const ns = sim.Nanosecond
	eng := sim.New()
	c, err := New(eng, stepConfig())
	if err != nil {
		t.Fatal(err)
	}
	chip := c.chips[0].chip
	var midTransition, afterReady int
	access := func(*sim.Engine) {
		if chip.Phase() == memsys.PhaseSleeping {
			switch now := eng.Now(); {
			case now < chip.ReadyAt():
				midTransition++
			case now > chip.ReadyAt():
				afterReady++
			}
		}
		c.ProcAccess(0)
	}
	// Hand-computed from stepConfig: a wake from powerdown takes 6 us
	// and from standby 6 ns; each access is 20 ns of service, followed
	// by 100 ns of idleness before the 625 ps standby entry.
	cycle := func() {
		base := eng.Now().Add(10 * sim.Microsecond)
		step1 := base.Add(6*sim.Microsecond + 120*ns)
		ready1 := step1.Add(625 * sim.Picosecond)
		ready2 := ready1.Add(6*ns + 120*ns + 625*sim.Picosecond)
		eng.SchedulePrio(base, prioArrival, access)
		eng.SchedulePrio(step1.Add(300*sim.Picosecond), prioArrival, access)
		eng.SchedulePrio(ready2.Add(50*ns), prioArrival, access)
		eng.Run()
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	midTransition, afterReady = 0, 0
	wakes := chip.Wakes
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("wake lifecycle allocated %.1f allocs/op, want 0", allocs)
	}
	// AllocsPerRun runs the function once more than asked, to warm up.
	if runs := 201; midTransition != runs || afterReady != 2*runs || chip.Wakes-wakes != 3*int64(runs) {
		t.Fatalf("%d runs: %d accesses mid-transition, %d after readyAt, %d wakes; want %d, %d, %d",
			runs, midTransition, afterReady, chip.Wakes-wakes, runs, 2*runs, 3*runs)
	}
	if chip.State() != energy.Powerdown {
		t.Fatalf("chip ends a cycle in %v, want powerdown", chip.State())
	}
}

// TestProcWakeKeepsCompletion pins recompute's shortcut: a processor
// access wakes chip 1 while a transfer drains on chip 0, and the wake's
// completion recomputes the rates of an unchanged flow set. The drain
// instant does not move, so the pending completion event must survive
// with its EventID; rescheduling it would cost an event for nothing.
func TestProcWakeKeepsCompletion(t *testing.T) {
	eng := sim.New()
	c, err := New(eng, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	page := memsys.PageID(0)
	for c.mapper.ChipOf(page) != 1 {
		page++
	}
	var before, after sim.EventID
	var beforeAt sim.Time
	var woken energy.State
	flows, pending := 0, false
	eng.SchedulePrio(sim.Time(sim.Microsecond), prioArrival, func(*sim.Engine) {
		c.StartTransfer(dma.Transfer{ID: 1, Bus: 0, Page: 0, Pages: 1})
	})
	// Chip 0 wakes from powerdown by 7 us; its one-page flow then drains
	// for about 7.7 us at PCI-X speed, past chip 1's wake at 14 us.
	eng.SchedulePrio(sim.Time(8*sim.Microsecond), prioArrival, func(e *sim.Engine) {
		c.ProcAccess(page)
		ready := c.chips[1].chip.ReadyAt()
		e.SchedulePrio(ready, prioArrival, func(*sim.Engine) {
			before, beforeAt, flows = c.complEvt, c.complAt, len(c.allFlows)
			pending = before.Valid()
		})
		e.SchedulePrio(ready, prioEpoch+1, func(*sim.Engine) {
			after, woken = c.complEvt, c.chips[1].chip.State()
		})
	})
	eng.Run()
	if flows != 1 || !pending {
		t.Fatalf("%d flows in flight at the wake (completion pending: %v), want 1", flows, pending)
	}
	if woken != energy.Active {
		t.Fatalf("chip 1 is %v after its wake, want active", woken)
	}
	if after != before {
		t.Fatalf("the wake rescheduled the completion at %v", beforeAt)
	}
	if c.transfers != 1 || len(c.allFlows) != 0 {
		t.Fatalf("%d transfers, %d flows left; want the transfer done", c.transfers, len(c.allFlows))
	}
}
