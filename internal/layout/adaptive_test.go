package layout

import (
	"math/rand"
	"slices"
	"testing"

	"dmamem/internal/memsys"
)

// fullOrder sorts every page by popularity (ties by page ID) and
// returns the prefix with nonzero counts: the order a scan of the
// whole page population would hand the rebalance, and the reference
// the adaptive live-set scan is checked against.
func (m *Manager) fullOrder() []int32 {
	order := make([]int32, len(m.counts))
	for i := range order {
		order[i] = int32(i)
	}
	sortByPopularity(order, m.counts)
	n := len(order)
	for n > 0 && m.counts[order[n-1]] == 0 {
		n--
	}
	return order[:n]
}

// driveChecked runs an Observe/Rebalance schedule through one manager
// and, before every rebalance, fails unless the popularity-sorted live
// set equals the full popularity order of the nonzero-count pages —
// the one input of Rebalance a full-population scan would change.
func driveChecked(t *testing.T, cfg Config, geo memsys.Geometry, seed int64, epochs int, withBusy bool) {
	t.Helper()
	m, err := New(geo, cfg)
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
			m.Observe(memsys.PageID(p))
		}

		// Gather the live set as Rebalance will, then put it back:
		// rebuildLive is how Rebalance itself refills the drained lists.
		want := m.fullOrder()
		scanned := m.ScannedChips
		live := m.gatherLive()
		sortByPopularity(live, m.counts)
		if !slices.Equal(live, want) {
			t.Fatalf("epoch %d: sorted live set (%d pages) differs from the full popularity order of the nonzero-count pages (%d pages)\nlive: %v\nfull: %v",
				epoch, len(live), len(want), live, want)
		}
		m.rebuildLive(live)
		m.ScannedChips = scanned

		var busy func(memsys.PageID) bool
		if withBusy {
			e := epoch
			busy = func(p memsys.PageID) bool { return (int(p)+e)%7 == 0 }
		}
		m.Rebalance(busy)
		if err := m.checkInvariants(); err != nil {
			t.Fatalf("epoch %d: invariants: %v", epoch, err)
		}
	}
	if m.MigratedPages == 0 {
		t.Fatal("no page migrated; the schedule made no layout decision")
	}
}

// TestAdaptiveMatchesFullScan is the live-set contract: across many
// epochs of a drifting workload, the adaptive scan hands Rebalance
// exactly the page order a scan of every page would.
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
				driveChecked(t, cfg, smallGeo(), seed, 30, tc.busy)
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
