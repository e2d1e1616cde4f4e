package memsys

import (
	"testing"
)

// FuzzGeometryValidate drives Validate with arbitrary field values and
// checks the contract the rest of the simulator builds on: whatever
// Validate accepts must have a positive whole number of pages per
// chip, exact page coverage of every chip, and an in-range interleaved
// mapping — and Validate itself must never panic, whatever it is fed.
func FuzzGeometryValidate(f *testing.F) {
	d := Default()
	f.Add(d.NumChips, d.ChipBytes, d.PageBytes, d.ChipBandwidth)
	f.Add(1, int64(8), 8, 1.0)
	f.Add(0, int64(0), 0, 0.0)
	f.Add(1, int64(12), 8, 1.0) // non-divisible
	f.Add(16, int64(1<<62), 1, 2.1e9)
	f.Add(-3, int64(-8), -8, -1.0)
	f.Fuzz(func(t *testing.T, numChips int, chipBytes int64, pageBytes int, chipBW float64) {
		g := Geometry{NumChips: numChips, ChipBytes: chipBytes, PageBytes: pageBytes, ChipBandwidth: chipBW}
		if g.Validate() != nil {
			return
		}
		per := g.PagesPerChip()
		if per <= 0 {
			t.Fatalf("valid geometry %+v has %d pages per chip", g, per)
		}
		if int64(per)*int64(g.PageBytes) != g.ChipBytes {
			t.Fatalf("valid geometry %+v: %d pages x %d B != %d chip bytes", g, per, g.PageBytes, g.ChipBytes)
		}
		if g.TotalPages() != per*g.NumChips {
			t.Fatalf("valid geometry %+v: TotalPages %d != %d x %d", g, g.TotalPages(), per, g.NumChips)
		}
		if g.RequestServiceTime() < 0 || g.CacheLineServiceTime() < 0 {
			t.Fatalf("valid geometry %+v yields negative service time", g)
		}
		m := InterleavedMapper{Chips: g.NumChips}
		probe := g.TotalPages()
		if probe > 1<<12 {
			probe = 1 << 12
		}
		for p := 0; p < probe; p++ {
			if c := m.ChipOf(PageID(p)); c < 0 || c >= g.NumChips {
				t.Fatalf("valid geometry %+v maps page %d to chip %d", g, p, c)
			}
		}
	})
}

// FuzzTopologyValidate drives Topology.Validate against small
// geometries and checks that every accepted topology yields a
// consistent partition: a channel count that divides the chips, a
// mapper that keeps every page on an in-range chip, and channel
// assignments that agree between the mapper and ChannelOfChip.
func FuzzTopologyValidate(f *testing.F) {
	f.Add(32, 1, 1, 0.0)
	f.Add(32, 4, 8, 3.2e9)
	f.Add(32, 0, 0, 0.0)
	f.Add(8, 8, 2, 1e9)
	f.Add(32, 5, 1, 0.0) // does not divide
	f.Add(32, -1, -1, -1.0)
	f.Add(4, 2, 1000, 2.1e9)
	f.Fuzz(func(t *testing.T, numChips, channels, stripePages int, channelBW float64) {
		if numChips < 1 || numChips > 256 {
			return // keep the page walk bounded
		}
		g := Geometry{NumChips: numChips, ChipBytes: 16 * 8, PageBytes: 8, ChipBandwidth: 1}
		if g.Validate() != nil {
			return
		}
		topo := Topology{Channels: channels, StripePages: stripePages, ChannelBandwidth: channelBW}
		if topo.Validate(g) != nil {
			return
		}
		nch := topo.NumChannels()
		if nch < 1 || nch > g.NumChips || g.NumChips%nch != 0 {
			t.Fatalf("valid topology %+v on %d chips has %d channels", topo, g.NumChips, nch)
		}
		if topo.chipsPerChannel(g)*nch != g.NumChips {
			t.Fatalf("valid topology %+v: %d chips/channel x %d channels != %d chips",
				topo, topo.chipsPerChannel(g), nch, g.NumChips)
		}
		stripe := topo.effectiveStripePages()
		if stripe < 1 {
			t.Fatalf("valid topology %+v has stripe %d", topo, stripe)
		}
		m := topo.Mapper(g)
		for p := 0; p < g.TotalPages(); p++ {
			chip := m.ChipOf(PageID(p))
			if chip < 0 || chip >= g.NumChips {
				t.Fatalf("valid topology %+v maps page %d to chip %d of %d", topo, p, chip, g.NumChips)
			}
			ch := topo.ChannelOfChip(g, chip)
			if ch < 0 || ch >= nch {
				t.Fatalf("valid topology %+v puts chip %d on channel %d of %d", topo, chip, ch, nch)
			}
			if topo.Enabled() && ch != (p/stripe)%nch {
				t.Fatalf("valid topology %+v: page %d (stripe %d) landed on channel %d, want %d",
					topo, p, p/stripe, ch, (p/stripe)%nch)
			}
		}
	})
}
