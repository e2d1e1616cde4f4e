package layout

import (
	"math/rand"
	"testing"

	"dmamem/internal/memsys"
)

// driveBoth runs the same Observe/Rebalance schedule through an
// adaptive manager and a FullScan reference manager and fails on the
// first divergence in moves, placement, counters, or group maps.
func driveBoth(t *testing.T, cfg Config, geo memsys.Geometry, seed int64, epochs int, withBusy bool) {
	t.Helper()
	adaptive, err := New(geo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := cfg
	ref.FullScan = true
	full, err := New(geo, ref)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pages := geo.TotalPages()
	for epoch := 0; epoch < epochs; epoch++ {
		// A drifting skewed workload: most references go to a window of
		// pages that shifts every epoch, so the hot set keeps churning
		// and every rebalance has real decisions to make.
		base := (epoch * 37) % pages
		n := 50 + rng.Intn(300)
		for i := 0; i < n; i++ {
			var p int
			if rng.Intn(10) < 8 {
				p = (base + rng.Intn(20)) % pages
			} else {
				p = rng.Intn(pages)
			}
			adaptive.Observe(memsys.PageID(p))
			full.Observe(memsys.PageID(p))
		}
		var busy func(memsys.PageID) bool
		if withBusy {
			// Both managers must see the same busy set; derive it from
			// the page ID and epoch, not from the rng stream.
			e := epoch
			busy = func(p memsys.PageID) bool { return (int(p)+e)%7 == 0 }
		}
		ma := adaptive.Rebalance(busy)
		mf := full.Rebalance(busy)
		if ma != mf {
			t.Fatalf("epoch %d: adaptive moved %d pages, full scan %d", epoch, ma, mf)
		}
		for p := 0; p < pages; p++ {
			if adaptive.loc[p] != full.loc[p] {
				t.Fatalf("epoch %d: page %d on chip %d (adaptive) vs %d (full)",
					epoch, p, adaptive.loc[p], full.loc[p])
			}
			if adaptive.counts[p] != full.counts[p] {
				t.Fatalf("epoch %d: page %d count %d (adaptive) vs %d (full)",
					epoch, p, adaptive.counts[p], full.counts[p])
			}
		}
		for c := 0; c < geo.NumChips; c++ {
			if adaptive.GroupOfChip(c) != full.GroupOfChip(c) {
				t.Fatalf("epoch %d: chip %d group %d (adaptive) vs %d (full)",
					epoch, c, adaptive.GroupOfChip(c), full.GroupOfChip(c))
			}
		}
		if err := adaptive.checkInvariants(); err != nil {
			t.Fatalf("epoch %d: adaptive invariants: %v", epoch, err)
		}
		if err := full.checkInvariants(); err != nil {
			t.Fatalf("epoch %d: full-scan invariants: %v", epoch, err)
		}
	}
	if adaptive.MigratedPages != full.MigratedPages || adaptive.SkippedBusy != full.SkippedBusy {
		t.Fatalf("stats diverged: adaptive moved %d skipped %d, full moved %d skipped %d",
			adaptive.MigratedPages, adaptive.SkippedBusy, full.MigratedPages, full.SkippedBusy)
	}
}

// TestAdaptiveMatchesFullScan is the dirty-set contract: across many
// epochs of a drifting workload, the adaptive scan makes exactly the
// moves the full reference scan makes.
func TestAdaptiveMatchesFullScan(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		busy bool
	}{
		{"default", func(*Config) {}, false},
		{"busy pages", func(*Config) {}, true},
		{"hysteresis", func(c *Config) { c.MigrateRatio = 2 }, true},
		{"three groups", func(c *Config) { c.Groups = 3 }, false},
		{"six groups busy", func(c *Config) { c.Groups = 6 }, true},
		{"no aging", func(c *Config) { c.AgeShift = 0 }, false},
		{"deep aging", func(c *Config) { c.AgeShift = 3; c.MinHotCount = 1 }, true},
		{"tiny hot share", func(c *Config) { c.HotShare = 0.05 }, false},
		{"huge hot share", func(c *Config) { c.HotShare = 0.95 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			for seed := int64(1); seed <= 4; seed++ {
				driveBoth(t, cfg, smallGeo(), seed, 30, tc.busy)
			}
		})
	}
}

// TestAdaptiveSkipsCleanChips checks the point of the exercise: with
// traffic confined to pages of a few chips, rebalances stop reading
// the untouched chips at all.
func TestAdaptiveSkipsCleanChips(t *testing.T) {
	m, err := New(smallGeo(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved start: pages 0 and 1 sit on chips 0 and 1, so the
	// whole workload touches two of the eight chips.
	const epochs = 10
	for e := 0; e < epochs; e++ {
		for i := 0; i < 12; i++ {
			m.Observe(memsys.PageID(0))
			m.Observe(memsys.PageID(1))
		}
		m.Rebalance(nil)
	}
	if m.ScannedChips >= int64(epochs*m.geo.NumChips) {
		t.Fatalf("ScannedChips = %d, expected well under %d (no skipping happened)",
			m.ScannedChips, epochs*m.geo.NumChips)
	}
	// Two resident chips at most, possibly one after the hot pages
	// migrate together.
	if m.ScannedChips > int64(epochs*3) {
		t.Errorf("ScannedChips = %d for a 2-chip workload over %d epochs", m.ScannedChips, epochs)
	}
}

// TestObserveDoesNotAllocate guards the hot-path contract: tracking a
// page in the live set must stay within the preallocated lists.
func TestObserveDoesNotAllocate(t *testing.T) {
	m, err := New(smallGeo(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pages := m.geo.TotalPages()
	for epoch := 0; epoch < 5; epoch++ {
		allocs := testing.AllocsPerRun(200, func() {
			m.Observe(memsys.PageID(rng.Intn(pages)))
		})
		if allocs != 0 {
			t.Fatalf("epoch %d: Observe allocated %.1f times per call", epoch, allocs)
		}
		m.Rebalance(nil)
		if err := m.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRebalanceZeroAlloc guards the rebalance hot path: once a drifting
// workload has grown the exchange scratch to its largest epoch, a
// rebalance — sorting, target assignment, the exchange with busy
// pages, hysteresis and trimming — allocates nothing.
func TestRebalanceZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"hysteresis", func(c *Config) { c.MigrateRatio = 1.5 }},
		{"groups4", func(c *Config) { c.Groups = 4; c.HotShare = 0.8 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			geo := smallGeo()
			m, err := New(geo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A fixed cycle of drifting epochs, replayed so the measured
			// rebalances face the same exchanges as the warm-up.
			rng := rand.New(rand.NewSource(3))
			pages := geo.TotalPages()
			epochs := make([][]memsys.PageID, 16)
			for e := range epochs {
				base := (e * 37) % pages
				for i := 0; i < 50+rng.Intn(300); i++ {
					p := rng.Intn(pages)
					if rng.Intn(10) < 8 {
						p = (base + rng.Intn(20)) % pages
					}
					epochs[e] = append(epochs[e], memsys.PageID(p))
				}
			}
			busy := func(p memsys.PageID) bool { return p%7 == 0 }
			e := 0
			epoch := func() {
				for _, p := range epochs[e%len(epochs)] {
					m.Observe(p)
				}
				m.Rebalance(busy)
				e++
			}
			for i := 0; i < 4*len(epochs); i++ {
				epoch()
			}
			if m.MigratedPages == 0 {
				t.Fatal("warm-up migrated nothing; the exchange went unmeasured")
			}
			if allocs := testing.AllocsPerRun(100, epoch); allocs != 0 {
				t.Fatalf("Rebalance allocated %.1f allocs/op, want 0", allocs)
			}
			if err := m.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
