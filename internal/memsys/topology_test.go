package memsys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTopologyZeroValue(t *testing.T) {
	g := Default()
	var topo Topology
	if topo.Enabled() {
		t.Fatal("zero topology reports enabled")
	}
	if err := topo.Validate(g); err != nil {
		t.Fatalf("zero topology must validate: %v", err)
	}
	if topo.NumChannels() != 1 {
		t.Errorf("NumChannels = %d, want 1", topo.NumChannels())
	}
	if topo.chipsPerChannel(g) != g.NumChips {
		t.Errorf("ChipsPerChannel = %d, want %d", topo.chipsPerChannel(g), g.NumChips)
	}
	for chip := 0; chip < g.NumChips; chip++ {
		if topo.ChannelOfChip(g, chip) != 0 {
			t.Fatalf("chip %d on channel %d, want 0", chip, topo.ChannelOfChip(g, chip))
		}
	}
	// The disabled topology hands back the legacy interleaved mapper.
	if _, ok := topo.Mapper(g).(InterleavedMapper); !ok {
		t.Errorf("disabled topology mapper is %T, want InterleavedMapper", topo.Mapper(g))
	}
}

func TestTopologyValidate(t *testing.T) {
	g := Default() // 32 chips
	bad := []Topology{
		{Channels: -1},
		{Channels: 33},                      // more channels than chips
		{Channels: 5},                       // does not divide 32
		{Channels: 2, StripePages: -1},      //
		{Channels: 2, ChannelBandwidth: -1}, //
		{Channels: 2, ChannelBandwidth: math.NaN()},
		{Channels: 2, ChannelBandwidth: math.Inf(1)},
		{StripePages: -4}, // enabled by a single bad field
	}
	for i, topo := range bad {
		if topo.Validate(g) == nil {
			t.Errorf("case %d: expected error for %+v", i, topo)
		}
	}
	good := []Topology{
		{},
		{Channels: 1},
		{Channels: 2},
		{Channels: 4, StripePages: 8},
		{Channels: 32},
		{Channels: 8, ChannelBandwidth: 3.2e9},
		{StripePages: 4}, // channel count defaulted to 1
	}
	for i, topo := range good {
		if err := topo.Validate(g); err != nil {
			t.Errorf("good case %d: unexpected error %v for %+v", i, err, topo)
		}
	}
}

// A 1-channel stripe-1 topology must map pages exactly like the legacy
// interleaved layout: this is the foundation of the cross-backend
// bit-identity proof in internal/experiments.
func TestTopologyMapperSingleChannelMatchesInterleaved(t *testing.T) {
	g := Default()
	topo := Topology{Channels: 1}
	m := topo.Mapper(g)
	im := InterleavedMapper{Chips: g.NumChips}
	for p := 0; p < g.TotalPages(); p++ {
		if got, want := m.ChipOf(PageID(p)), im.ChipOf(PageID(p)); got != want {
			t.Fatalf("page %d: topology chip %d, interleaved chip %d", p, got, want)
		}
	}
}

func TestTopologyMapperStriping(t *testing.T) {
	g := Geometry{NumChips: 8, ChipBytes: 64, PageBytes: 8, ChipBandwidth: 1}
	topo := Topology{Channels: 4, StripePages: 2}
	if err := topo.Validate(g); err != nil {
		t.Fatal(err)
	}
	m := topo.Mapper(g)
	// Stripe s of 2 pages lands on channel s%4; chips 2c and 2c+1
	// belong to channel c.
	for p := 0; p < g.TotalPages(); p++ {
		chip := m.ChipOf(PageID(p))
		wantCh := (p / 2) % 4
		if gotCh := topo.ChannelOfChip(g, chip); gotCh != wantCh {
			t.Fatalf("page %d: chip %d on channel %d, want channel %d", p, chip, gotCh, wantCh)
		}
	}
	// Consecutive pages of one stripe stay on the same channel.
	if topo.ChannelOfChip(g, m.ChipOf(0)) != topo.ChannelOfChip(g, m.ChipOf(1)) {
		t.Error("pages 0 and 1 split across channels despite StripePages=2")
	}
}

// Property: every valid topology maps every page to an in-range chip,
// keeps whole stripes on one channel, and balances pages across
// channels exactly.
func TestQuickTopologyMapper(t *testing.T) {
	f := func(chanSel, stripeSel, chipSel uint8) bool {
		divisors := []int{1, 2, 4, 8}
		channels := divisors[int(chanSel)%len(divisors)]
		stripe := 1 + int(stripeSel)%8
		chipsPer := 1 + int(chipSel)%4
		g := Geometry{
			NumChips:      channels * chipsPer,
			ChipBytes:     int64(64 * 8),
			PageBytes:     8,
			ChipBandwidth: 1,
		}
		topo := Topology{Channels: channels, StripePages: stripe}
		if err := topo.Validate(g); err != nil {
			return false
		}
		m := topo.Mapper(g)
		perChannel := make([]int, channels)
		for p := 0; p < g.TotalPages(); p++ {
			chip := m.ChipOf(PageID(p))
			if chip < 0 || chip >= g.NumChips {
				return false
			}
			ch := topo.ChannelOfChip(g, chip)
			if ch != (p/stripe)%channels {
				return false
			}
			perChannel[ch]++
		}
		// Total pages divide evenly across channels whenever whole
		// stripes do.
		if g.TotalPages()%(channels*stripe) == 0 {
			for _, n := range perChannel {
				if n != g.TotalPages()/channels {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
