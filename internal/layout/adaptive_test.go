package layout

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"dmamem/internal/memsys"
)

// refSortByPopularity is the comparison sort the radix-sorted keys of
// sortByCount must agree with: count descending, page ID ascending.
func refSortByPopularity(pages []int32, counts []uint32) {
	slices.SortFunc(pages, func(a, b int32) int {
		if counts[a] != counts[b] {
			return cmp.Compare(counts[b], counts[a])
		}
		return cmp.Compare(a, b)
	})
}

// TestSortByCountMatchesComparisonSort checks the radix sort in both
// directions against the comparison sort, on page subsets whose counts
// span from a few bits (most key bytes constant and skipped) to the
// full 31-bit saturation range.
func TestSortByCountMatchesComparisonSort(t *testing.T) {
	m, err := New(memsys.Default(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, maxCount := range []int64{2, 300, 70000, 1 << 31} {
		for _, n := range []int{0, 1, 2, 17, 850, 4484} {
			for p := range m.counts {
				m.counts[p] = uint32(rng.Int63n(maxCount))
			}
			pages := make([]int32, n)
			for i, p := range rng.Perm(len(m.counts))[:n] {
				pages[i] = int32(p)
			}

			hot := slices.Clone(pages)
			m.sortByCount(hot, true)
			want := slices.Clone(pages)
			refSortByPopularity(want, m.counts)
			if !slices.Equal(hot, want) {
				t.Fatalf("counts < %d, %d pages: hottest-first order differs from the comparison sort", maxCount, len(pages))
			}
			cold := slices.Clone(pages)
			m.sortByCount(cold, false)
			slices.SortFunc(want, func(a, b int32) int {
				return cmp.Or(cmp.Compare(m.counts[a], m.counts[b]), cmp.Compare(a, b))
			})
			if !slices.Equal(cold, want) {
				t.Fatalf("counts < %d, %d pages: coldest-first order differs from the comparison sort", maxCount, len(pages))
			}
		}
	}
}

// fullOrder sorts every page by popularity (ties by page ID) and
// returns the prefix with nonzero counts: the order a scan of the
// whole page population would hand the rebalance, and the reference
// the adaptive live-set scan is checked against.
func (m *Manager) fullOrder() []int32 {
	order := make([]int32, len(m.counts))
	for i := range order {
		order[i] = int32(i)
	}
	refSortByPopularity(order, m.counts)
	n := len(order)
	for n > 0 && m.counts[order[n-1]] == 0 {
		n--
	}
	return order[:n]
}

// evictTopDown is the reference eviction walk the hot-resident index
// replaced: for each hot group it tests every page ID from the top of
// the dataset down, zero-count pages on any chip included, then falls
// back to the live pages in reverse popularity order.
func evictTopDown(m *Manager, g, deficit int, liveOrder []int32, busy func(memsys.PageID) bool) {
	for p := int32(len(m.counts)) - 1; p >= 0 && deficit > 0; p-- {
		if m.counts[p] == 0 && m.tryEvict(p, g, busy) {
			deficit--
		}
	}
	for i := len(liveOrder) - 1; i >= 0 && deficit > 0; i-- {
		if m.tryEvict(liveOrder[i], g, busy) {
			deficit--
		}
	}
}

// driveChecked runs an Observe/Rebalance schedule through one manager
// and, before every rebalance, fails unless the popularity-sorted live
// set equals the full popularity order of the nonzero-count pages —
// the one input of Rebalance a full-population scan would change. A
// second manager replays the schedule with the reference top-down
// eviction walk; after every rebalance both must have placed every
// page on the same chip.
func driveChecked(t *testing.T, cfg Config, geo memsys.Geometry, seed int64, epochs int, withBusy bool) {
	t.Helper()
	m, err := New(geo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(geo, cfg)
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
			ref.Observe(memsys.PageID(p))
		}

		// Gather the live set as Rebalance will, then put it back:
		// rebuildLive is how Rebalance itself refills the drained lists.
		want := m.fullOrder()
		scanned := m.ScannedChips
		live := m.gatherLive()
		m.sortByCount(live, true)
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
		moves := m.Rebalance(busy)
		if err := m.checkInvariants(); err != nil {
			t.Fatalf("epoch %d: invariants: %v", epoch, err)
		}
		if refMoves := ref.rebalance(busy, evictTopDown); refMoves != moves {
			t.Fatalf("epoch %d: indexed eviction moved %d pages, reference walk %d", epoch, moves, refMoves)
		}
		for p := range m.loc {
			if m.loc[p] != ref.loc[p] {
				t.Fatalf("epoch %d: page %d on chip %d, reference walk put it on chip %d", epoch, p, m.loc[p], ref.loc[p])
			}
		}
	}
	if m.MigratedPages == 0 {
		t.Fatal("no page migrated; the schedule made no layout decision")
	}
}

// TestAdaptiveMatchesFullScan is the live-set contract: across many
// epochs of a drifting workload, the adaptive scan hands Rebalance
// exactly the page order a scan of every page would, and the eviction
// walk over the hot-resident index places every page where the
// top-down reference walk does.
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

// BenchmarkRebalance times one rebalance at the default geometry (32
// chips x 4,096 pages) under a drifting hot set: each interval sends
// 80% of about 2,000 references to a 1,024-page window that shifts by
// 509 pages per interval, the rest uniformly over the dataset. The
// Observe calls that precede each rebalance run with the timer
// stopped, so ns/op and allocs/op are per rebalance.
func BenchmarkRebalance(b *testing.B) {
	geo := memsys.Default()
	m, err := New(geo, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pages := geo.TotalPages()
	epochs := make([][]memsys.PageID, 32)
	for e := range epochs {
		base := e * 509
		n := 1500 + rng.Intn(1000)
		for i := 0; i < n; i++ {
			p := rng.Intn(pages)
			if rng.Intn(10) < 8 {
				p = (base + rng.Intn(1024)) % pages
			}
			epochs[e] = append(epochs[e], memsys.PageID(p))
		}
	}
	observe := func(e int) {
		for _, p := range epochs[e%len(epochs)] {
			m.Observe(p)
		}
	}
	for e := 0; e < 2*len(epochs); e++ { // grow the scratch to the cycle's largest exchange
		observe(e)
		m.Rebalance(nil)
	}
	m.ResetCosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		observe(i)
		b.StartTimer()
		m.Rebalance(nil)
	}
	b.StopTimer()
	if m.MigratedPages == 0 && b.N >= len(epochs) {
		b.Fatal("no page migrated; the benchmark timed no exchange")
	}
	b.ReportMetric(float64(m.MigratedPages)/float64(b.N), "moves/op")
}
