package controller

import (
	"testing"

	"dmamem/internal/bus"
	"dmamem/internal/dma"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// BenchmarkMergeReports merges the reports of four channel-partitioned
// controllers, each drained after a few hundred transfers on its own
// chips: the per-run report merge the parallel engine ends with.
func BenchmarkMergeReports(b *testing.B) {
	const channels = 4
	topo := memsys.Topology{Channels: channels}
	ctls := make([]*Controller, channels)
	var end sim.Time
	for ch := range ctls {
		cfg := baseConfig()
		cfg.Topology = topo
		caps := make([]float64, cfg.Buses.Count)
		for i := range caps {
			caps[i] = bus.DefaultConfig().Bandwidth / channels
		}
		cfg.Partition = &Partition{Channel: ch, BusCaps: caps}
		eng := sim.New()
		c, err := New(eng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			// Stripe-1 channel interleaving: page p lives on channel p%4.
			x := dma.Transfer{ID: int64(i), Arrival: sim.Time(i) * sim.Time(sim.Microsecond),
				Bus: i % cfg.Buses.Count, Page: memsys.PageID(channels*(i%97) + ch), Pages: 1}
			eng.SchedulePrio(x.Arrival, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
		}
		eng.Run()
		if e := c.Finish(0); e > end {
			end = e
		}
		ctls[ch] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := MergeReports("bench", end, ctls...); r.Transfers != channels*300 {
			b.Fatalf("merged %d transfers, want %d", r.Transfers, channels*300)
		}
	}
}
