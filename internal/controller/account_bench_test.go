package controller

import (
	"testing"

	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// BenchmarkAccountChip times the per-event energy accounting of one
// chip with a standing flow on every bus and a processor access
// pending: draining flow remainders, sizing the burst envelope from
// the chip's coverage, absorbing processor work into the gaps and
// charging the chip's active span. It is what accountAll runs for each
// dirty chip with flows on every event.
func BenchmarkAccountChip(b *testing.B) {
	cfg := baseConfig()
	cfg.InitialState = energy.Active
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for bus := 0; bus < cfg.Buses.Count; bus++ {
		x := dma.Transfer{ID: int64(bus), Arrival: sim.Time(sim.Microsecond), Bus: bus, Page: 0, Pages: 64}
		eng.SchedulePrio(x.Arrival, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
	}
	eng.RunUntil(sim.Time(2 * sim.Microsecond))
	cs := c.chips[0]
	if len(cs.flows) != cfg.Buses.Count {
		b.Fatalf("chip 0 has %d flows, want one per bus (%d)", len(cs.flows), cfg.Buses.Count)
	}
	now := cs.chip.Cursor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(100 * sim.Nanosecond)
		c.ProcAccess(0)
		c.accountChip(cs, now)
	}
}
