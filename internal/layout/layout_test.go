package layout

import (
	"math"
	"testing"
	"testing/quick"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
)

// smallGeo: 8 chips x 16 pages = 128 pages, fast to exercise.
func smallGeo() memsys.Geometry {
	return memsys.Geometry{NumChips: 8, ChipBytes: 16 * 8192, PageBytes: 8192, ChipBandwidth: 3.2e9}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Groups: 1, HotShare: 0.6, Interval: 1, AgeShift: 1},
		{Groups: 2, HotShare: 0, Interval: 1, AgeShift: 1},
		{Groups: 2, HotShare: 1, Interval: 1, AgeShift: 1},
		{Groups: 2, HotShare: 0.6, Interval: 0, AgeShift: 1},
		{Groups: 2, HotShare: 0.6, Interval: 1, AgeShift: 40},
		{Groups: 2, HotShare: math.NaN(), Interval: 1, AgeShift: 1},
		{Groups: MaxGroups + 1, HotShare: 0.6, Interval: 1, AgeShift: 1},
		{Groups: 200, HotShare: 0.6, Interval: 1, AgeShift: 1},
	}
	for i, c := range cases {
		if c.validate() == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

// TestMaxGroupsMigrates pins the Groups bound from the accepting side:
// at MaxGroups the last hot group's index still fits the target byte,
// so PL migrates pages instead of treating every target as none.
func TestMaxGroupsMigrates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Groups = MaxGroups
	m, err := New(smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p++ {
		for i := 0; i < 90; i++ {
			m.Observe(memsys.PageID(p))
		}
	}
	if moves := m.Rebalance(nil); moves == 0 {
		t.Fatal("no page migrated at Groups = MaxGroups")
	}
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewStartsInterleaved(t *testing.T) {
	m, err := New(smallGeo(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 128; p++ {
		if m.ChipOf(memsys.PageID(p)) != p%8 {
			t.Fatalf("page %d on chip %d, want interleaved", p, m.ChipOf(memsys.PageID(p)))
		}
	}
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		if m.groupOfChip[c] != 1 {
			t.Fatal("chips should start cold")
		}
	}
}

func TestNewErrors(t *testing.T) {
	bad := smallGeo()
	bad.NumChips = 1
	if _, err := New(bad, DefaultConfig()); err == nil {
		t.Error("single-chip geometry accepted")
	}
	cfg := DefaultConfig()
	cfg.Groups = 0
	if _, err := New(smallGeo(), cfg); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRebalanceConcentratesHotPages(t *testing.T) {
	m, _ := New(smallGeo(), DefaultConfig())
	// Pages 0..15 are hot (spread over all chips by interleaving);
	// they receive 90% of accesses.
	for p := 0; p < 16; p++ {
		for i := 0; i < 90; i++ {
			m.Observe(memsys.PageID(p))
		}
	}
	for p := 16; p < 128; p++ {
		m.Observe(memsys.PageID(p))
	}
	moves := m.Rebalance(nil)
	if moves == 0 {
		t.Fatal("no migration despite skew")
	}
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// The 16 hot pages cover 90% > 60% of accesses; they need exactly
	// one 16-page chip, so chip 0 is the hot group.
	if m.groupOfChip[0] != 0 {
		t.Fatal("chip 0 should be hot")
	}
	// The hot set is the smallest prefix covering HotShare (60%) of
	// accesses — 11 of the 16 popular pages here; all of it must land
	// on the hot chip.
	hot := 0
	for p := 0; p < 16; p++ {
		if m.ChipOf(memsys.PageID(p)) == 0 {
			hot++
		}
	}
	if hot < 11 {
		t.Fatalf("only %d of 16 hot pages on the hot chip", hot)
	}
	if m.MigratedPages == 0 {
		t.Fatal("migrations not counted")
	}
}

func TestRebalanceStableSecondPass(t *testing.T) {
	m, _ := New(smallGeo(), DefaultConfig())
	observe := func() {
		for p := 0; p < 16; p++ {
			for i := 0; i < 90; i++ {
				m.Observe(memsys.PageID(p))
			}
		}
		for p := 16; p < 128; p++ {
			m.Observe(memsys.PageID(p))
		}
	}
	observe()
	m.Rebalance(nil)
	observe()
	moves := m.Rebalance(nil)
	if moves != 0 {
		t.Fatalf("steady workload caused %d moves on second rebalance", moves)
	}
}

func TestRebalanceNoTraffic(t *testing.T) {
	m, _ := New(smallGeo(), DefaultConfig())
	if moves := m.Rebalance(nil); moves != 0 {
		t.Fatalf("rebalance with no traffic moved %d pages", moves)
	}
}

func TestRebalanceBusyPagesSkipped(t *testing.T) {
	m, _ := New(smallGeo(), DefaultConfig())
	for p := 0; p < 16; p++ {
		for i := 0; i < 90; i++ {
			m.Observe(memsys.PageID(p))
		}
	}
	for p := 16; p < 128; p++ {
		m.Observe(memsys.PageID(p))
	}
	busy := func(p memsys.PageID) bool { return p == 3 }
	before := m.ChipOf(3)
	m.Rebalance(busy)
	if m.ChipOf(3) != before {
		t.Fatal("busy page moved")
	}
	if m.SkippedBusy == 0 {
		t.Fatal("busy skip not recorded")
	}
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAging(t *testing.T) {
	m, _ := New(smallGeo(), DefaultConfig())
	for i := 0; i < 8; i++ {
		m.Observe(0)
	}
	m.Rebalance(nil) // ages by 1 shift: count 8 -> 4
	if m.counts[0] != 4 {
		t.Fatalf("count after aging = %d, want 4", m.counts[0])
	}
}

func TestAdaptationToWorkloadShift(t *testing.T) {
	// Hot set moves from pages 0..15 to pages 112..127; after a few
	// intervals the new hot set must own the hot chip.
	m, _ := New(smallGeo(), DefaultConfig())
	for p := 0; p < 16; p++ {
		for i := 0; i < 90; i++ {
			m.Observe(memsys.PageID(p))
		}
	}
	m.Rebalance(nil)
	for round := 0; round < 6; round++ {
		for p := 112; p < 128; p++ {
			for i := 0; i < 90; i++ {
				m.Observe(memsys.PageID(p))
			}
		}
		m.Rebalance(nil)
	}
	moved := 0
	for p := 112; p < 128; p++ {
		if m.groupOfChip[m.ChipOf(memsys.PageID(p))] == 0 {
			moved++
		}
	}
	if moved < 11 {
		t.Fatalf("only %d of 16 new hot pages reached the hot group", moved)
	}
}

func TestGroupSizesExponential(t *testing.T) {
	geo := memsys.Geometry{NumChips: 32, ChipBytes: 16 * 8192, PageBytes: 8192, ChipBandwidth: 3.2e9}
	cfg := DefaultConfig()
	cfg.Groups = 4
	m, err := New(geo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := m.groupSizes(8)
	// 3 hot groups over 8 chips: 1, 2, 5, then 24 cold.
	want := []int{1, 2, 5, 24}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	// Tight case: 3 hot chips for 3 hot groups -> 1 each.
	sizes = m.groupSizes(3)
	want = []int{1, 1, 1, 29}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("tight sizes = %v, want %v", sizes, want)
		}
	}
}

func TestMoreGroupsDiluteHotSet(t *testing.T) {
	// The effect behind Figure 5's 6-group penalty: a deeper group
	// structure spreads the hot set over more chips (each hot group
	// needs at least one), which dilutes per-chip arrival rates and
	// weakens temporal alignment — while migration traffic does not
	// shrink.
	run := func(groups int) (hotChipsUsed int, migrated int64) {
		geo := memsys.Geometry{NumChips: 32, ChipBytes: 64 * 8192, PageBytes: 8192, ChipBandwidth: 3.2e9}
		cfg := DefaultConfig()
		cfg.Groups = groups
		m, err := New(geo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := synth.NewRNG(1)
		zipf := synth.NewZipf(geo.TotalPages(), 1.0)
		perm := rng.Perm(geo.TotalPages())
		hotPages := map[memsys.PageID]bool{}
		for round := 0; round < 8; round++ {
			for i := 0; i < 20000; i++ {
				p := memsys.PageID(perm[zipf.Sample(rng)])
				m.Observe(p)
				hotPages[p] = true
			}
			m.Rebalance(nil)
			if err := m.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		chips := map[int]bool{}
		for p := range hotPages {
			if m.groupOfChip[m.ChipOf(p)] < groups-1 { // on a hot chip
				chips[m.ChipOf(p)] = true
			}
		}
		return len(chips), m.MigratedPages
	}
	chips2, mig2 := run(2)
	chips6, mig6 := run(6)
	if chips6 <= chips2 {
		t.Fatalf("6 groups used %d hot chips, 2 groups %d; want dilution", chips6, chips2)
	}
	if mig6 < mig2/2 {
		t.Fatalf("6 groups migrated %d pages vs %d; churn should not collapse", mig6, mig2)
	}
}

func TestResetCosts(t *testing.T) {
	m, _ := New(smallGeo(), DefaultConfig())
	for p := 0; p < 16; p++ {
		for i := 0; i < 90; i++ {
			m.Observe(memsys.PageID(p))
		}
	}
	m.Rebalance(nil)
	if m.MigratedPages == 0 {
		t.Fatal("expected migrations")
	}
	m.ResetCosts()
	if m.MigratedPages != 0 || m.Rebalances != 0 {
		t.Fatal("costs not reset")
	}
}

// Property: rebalancing under arbitrary popularity and busy sets
// preserves the chip-occupancy bijection.
func TestQuickRebalanceInvariants(t *testing.T) {
	f := func(seed uint64, groups8, rounds8 uint8) bool {
		geo := smallGeo()
		cfg := DefaultConfig()
		cfg.Groups = 2 + int(groups8)%4
		m, err := New(geo, cfg)
		if err != nil {
			return false
		}
		rng := synth.NewRNG(seed)
		zipf := synth.NewZipf(geo.TotalPages(), 1.0)
		rounds := 1 + int(rounds8)%5
		for r := 0; r < rounds; r++ {
			for i := 0; i < 500; i++ {
				m.Observe(memsys.PageID(zipf.Sample(rng)))
			}
			busyPage := memsys.PageID(rng.Intn(geo.TotalPages()))
			m.Rebalance(func(p memsys.PageID) bool { return p == busyPage })
			if m.checkInvariants() != nil {
				return false
			}
			// Every page on a valid chip.
			for p := 0; p < geo.TotalPages(); p++ {
				c := m.ChipOf(memsys.PageID(p))
				if c < 0 || c >= geo.NumChips {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalAccessor(t *testing.T) {
	m, _ := New(smallGeo(), DefaultConfig())
	if m.Interval() != 20*sim.Millisecond {
		t.Fatalf("interval = %v", m.Interval())
	}
}
