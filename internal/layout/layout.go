// Package layout implements the paper's Popularity-based Layout (PL):
// pages are placed on chips by DMA popularity so that hot chips
// receive enough concurrent transfers for temporal alignment to work
// and cold chips sleep longer.
//
// The manager keeps an aged DMA reference count per page. At interval
// boundaries it recomputes the grouping: the hottest pages, covering a
// HotShare fraction p of recent DMA requests, claim ceil(hotPages /
// pagesPerChip) "hot" chips; with Groups > 2 the hot chips are
// subdivided into exponentially sized groups (G1 = 1 chip, G2 = 2,
// G3 = 4, ...) per Section 4.2.1. Pages found in the wrong group are
// migrated into slots freed by pages leaving that group, so the number
// of moves is bounded by the number of misplaced pages. The manager
// only counts the moves (MigratedPages); the controller, which holds
// the technology model, charges each its copy energy.
//
// A rebalance costs the live set and the pages it moves, not the page
// population. It sorts only the pages with a nonzero aged count, as
// radix-sorted integer keys. A hot group that must make room finds its
// zero-count residents through a bitmap of the pages on hot chips, read
// a word at a time from the top, instead of testing every page ID.
package layout

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// Config parameterizes PL.
type Config struct {
	// Groups is the total number of groups K including the cold group.
	// The paper's default, and best, setting is 2 (one hot + cold).
	Groups int
	// HotShare is p: hot chips are sized to absorb this fraction of
	// the DMA requests observed in the last interval.
	HotShare float64
	// Interval between layout recomputations.
	Interval sim.Duration
	// AgeShift right-shifts the reference counters at each interval
	// (the paper's aging), adapting to workload change.
	AgeShift uint
	// MigrateRatio is the hysteresis threshold: a page is only swapped
	// into a hotter group if its count is at least MigrateRatio times
	// the count of the page it displaces. This implements the paper's
	// observation that "pages accessed 8 times are not necessarily
	// 'hotter' than pages that have been accessed 10 times" — without
	// it, boundary pages ping-pong between groups and migration energy
	// swamps the layout benefit. Values <= 1 disable hysteresis.
	MigrateRatio float64
	// MinHotCount is the popularity floor: pages with fewer aged
	// references never qualify for a hot group. Zero means 1.
	MinHotCount uint32
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{Groups: 2, HotShare: 0.6, Interval: 20 * sim.Millisecond,
		AgeShift: 1, MigrateRatio: 1, MinHotCount: 2}
}

// MaxGroups is the largest Groups value: a rebalance records each hot
// page's target group in one signed byte, so the hot-group indices
// 0..Groups-2 must not exceed math.MaxInt8.
const MaxGroups = math.MaxInt8 + 2

// validate reports a descriptive error for unusable configs.
func (c Config) validate() error {
	switch {
	case c.Groups < 2 || c.Groups > MaxGroups:
		return fmt.Errorf("layout: Groups = %d, need 2..%d", c.Groups, MaxGroups)
	case !(c.HotShare > 0 && c.HotShare < 1):
		return fmt.Errorf("layout: HotShare = %g outside (0,1)", c.HotShare)
	case c.Interval <= 0:
		return fmt.Errorf("layout: Interval = %v", c.Interval)
	case c.AgeShift > 31:
		return fmt.Errorf("layout: AgeShift = %d", c.AgeShift)
	}
	return nil
}

// Manager tracks popularity and owns the page -> chip mapping. It
// satisfies memsys.Mapper.
type Manager struct {
	geo memsys.Geometry
	cfg Config

	loc    []uint16 // page -> chip
	counts []uint32 // aged DMA reference count per page

	// groupOfChip is the group index of each chip (0 = hottest,
	// Groups-1 = cold): all cold before the first rebalance, and each
	// rebalance assigns it afresh before it moves any page.
	groupOfChip []int

	// Adaptive dirty-set accounting. tracked[p] says page p sits in
	// exactly one of the live lists; counts[p] > 0 implies tracked[p].
	// live[c] holds the tracked pages resident on chip c as of the last
	// rebalance (plus pages first observed on c since), so a chip with
	// an empty list held no popular page all epoch and the rebalance
	// scan skips it outright. Lists are rebuilt from current locations
	// each rebalance, which keeps every list within its PagesPerChip
	// capacity — Observe never reallocates.
	tracked     []bool
	live        [][]int32
	liveScratch []int32

	// Hot-resident index: bit p of hot is set iff page p sits on one of
	// the chips [0, hotBound), the hot chips of the last rebalance that
	// ran. Every move updates its page's bit, and the bitmap is rebuilt
	// from loc only when a rebalance changes the hot-chip count, so a
	// hot group making room reads its zero-count residents a word at a
	// time without testing the pages of cold chips.
	hot      []uint64
	hotBound int

	// Rebalance scratch, reused so a rebalance allocates nothing once
	// the buffers have grown to the run's largest exchange. target and
	// the moving/dropped page flags are all-clear between rebalances:
	// Rebalance resets exactly the entries it set.
	target      []int8 // page -> hot group it should occupy, or noTarget
	moving      []bool // page already chosen to enter some group
	dropped     []bool // exchange cancelled by hysteresis or trimming
	sizes       []int
	entering    [][]int32
	leaving     [][]int32
	freed       [][]uint16
	inScratch   []int32
	outScratch  []int32
	sortScratch []int32 // sortByCount's scatter buffer

	// Costs and statistics.
	Rebalances    int64
	MigratedPages int64
	SkippedBusy   int64
	// ScannedChips counts chips whose live lists were visited across
	// all rebalances; Rebalances*NumChips minus it is how many chip
	// scans the dirty-set accounting skipped.
	ScannedChips int64
}

// New returns a manager with the interleaved baseline layout.
func New(geo memsys.Geometry, cfg Config) (*Manager, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if geo.NumChips < 2 {
		return nil, fmt.Errorf("layout: PL needs >= 2 chips, got %d", geo.NumChips)
	}
	if geo.NumChips > 1<<16 {
		return nil, fmt.Errorf("layout: %d chips exceed mapping width", geo.NumChips)
	}
	m := &Manager{
		geo:         geo,
		cfg:         cfg,
		loc:         make([]uint16, geo.TotalPages()),
		counts:      make([]uint32, geo.TotalPages()),
		groupOfChip: make([]int, geo.NumChips),
		tracked:     make([]bool, geo.TotalPages()),
		live:        make([][]int32, geo.NumChips),
		hot:         make([]uint64, (geo.TotalPages()+63)/64),
		target:      make([]int8, geo.TotalPages()),
		moving:      make([]bool, geo.TotalPages()),
		dropped:     make([]bool, geo.TotalPages()),
		sizes:       make([]int, 0, cfg.Groups),
		entering:    make([][]int32, cfg.Groups),
		leaving:     make([][]int32, cfg.Groups),
		freed:       make([][]uint16, cfg.Groups),
	}
	for c := range m.live {
		m.live[c] = make([]int32, 0, geo.PagesPerChip())
	}
	// Fill target with noTarget and interleave loc (page p on chip p mod
	// NumChips) by doubling copies: a store and a division per page were
	// most of New's cost. Each copied prefix is a whole number of
	// NumChips-page rounds, so the pattern continues.
	m.target[0] = noTarget
	for n := 1; n < len(m.target); n *= 2 {
		copy(m.target[n:], m.target[:n])
	}
	for c := 0; c < geo.NumChips; c++ {
		m.loc[c] = uint16(c)
	}
	for n := geo.NumChips; n < len(m.loc); n *= 2 {
		copy(m.loc[n:], m.loc[:n])
	}
	for c := range m.groupOfChip {
		m.groupOfChip[c] = cfg.Groups - 1 // everything cold until first rebalance
	}
	return m, nil
}

// ChipOf implements memsys.Mapper.
func (m *Manager) ChipOf(p memsys.PageID) int { return int(m.loc[p]) }

// Observe counts one DMA-memory reference burst to a page. The
// controller calls it once per page per transfer, matching the paper's
// "DMA reference counts". A page entering the live set is added to its
// chip's list, which is what lets Rebalance skip chips no popular page
// touched; the append stays within the list's preallocated capacity,
// so Observe never allocates.
func (m *Manager) Observe(p memsys.PageID) {
	if m.counts[p] < 1<<31 {
		m.counts[p]++
	}
	if !m.tracked[p] {
		m.tracked[p] = true
		m.live[m.loc[p]] = append(m.live[m.loc[p]], int32(p))
	}
}

// NumPages returns the number of pages the manager maps; page IDs
// range over [0, NumPages).
func (m *Manager) NumPages() int { return len(m.loc) }

// Interval returns the configured rebalance period.
func (m *Manager) Interval() sim.Duration { return m.cfg.Interval }

// ResetCosts zeroes the accumulated migration statistics; the core
// uses it after an uncharged warm-up rebalance that models a server
// already in popularity steady state.
func (m *Manager) ResetCosts() {
	m.MigratedPages = 0
	m.Rebalances = 0
	m.SkippedBusy = 0
	m.ScannedChips = 0
}

// groupSizes splits hotChips into the exponential hot-group sizes plus
// the cold group: [1, 2, 4, ..., remainder, cold]. The slice is
// scratch, valid until the next call.
func (m *Manager) groupSizes(hotChips int) []int {
	cold := m.geo.NumChips - hotChips
	hotGroups := m.cfg.Groups - 1
	sizes := m.sizes[:0]
	remaining := hotChips
	for g := 0; g < hotGroups; g++ {
		var s int
		if g == hotGroups-1 {
			s = remaining
		} else {
			s = 1 << g
			if s > remaining-(hotGroups-1-g) { // leave at least 1 chip per later group
				s = remaining - (hotGroups - 1 - g)
			}
			if s < 0 {
				s = 0
			}
		}
		sizes = append(sizes, s)
		remaining -= s
	}
	m.sizes = append(sizes, cold)
	return m.sizes
}

// gatherLive drains the per-chip live lists into one slice of pages
// with nonzero counts, dropping pages whose counts aged to zero.
// Chips with empty lists — no popular page all epoch — are skipped
// without being read, which is the adaptive scan's whole point: work
// scales with the live set, not the page population. The lists are
// left empty for rebuildLive to repopulate from post-move locations.
func (m *Manager) gatherLive() []int32 {
	tracked := 0
	for _, l := range m.live {
		tracked += len(l)
	}
	out := slices.Grow(m.liveScratch[:0], tracked)
	for c := range m.live {
		if len(m.live[c]) == 0 {
			continue
		}
		m.ScannedChips++
		for _, p := range m.live[c] {
			if m.counts[p] == 0 {
				m.tracked[p] = false
				continue
			}
			out = append(out, p)
		}
		m.live[c] = m.live[c][:0]
	}
	m.liveScratch = out
	return out
}

// rebuildLive reindexes the live pages by their current (post-move)
// chip. Each chip's list then holds only actual residents, so the
// per-chip capacity bounds future Observe appends.
func (m *Manager) rebuildLive(liveOrder []int32) {
	for _, p := range liveOrder {
		m.live[m.loc[p]] = append(m.live[m.loc[p]], p)
	}
}

// sortByCount orders pages by count, ties by ascending page ID. With
// hottestFirst the count descends: that is the popularity order every
// layout decision derives from. It is a least-significant-digit radix
// sort, a byte per pass, of each page's integer key (see sortKey). A
// byte equal in every key leaves the order unchanged and is skipped:
// page IDs and counts rarely fill their 32 bits, so a sort takes a few
// passes.
func (m *Manager) sortByCount(pages []int32, hottestFirst bool) {
	if len(pages) < 2 {
		return
	}
	flip := uint32(0)
	if hottestFirst {
		flip = ^uint32(0)
	}
	var offsets [8][256]int32
	and, or := ^uint64(0), uint64(0)
	for _, p := range pages {
		k := m.sortKey(p, flip)
		and &= k
		or |= k
		for b := range offsets {
			offsets[b][byte(k>>(8*b))]++
		}
	}
	m.sortScratch = slices.Grow(m.sortScratch[:0], len(pages))[:len(pages)]
	src, dst := pages, m.sortScratch
	passes := 0
	for b := range offsets {
		shift := 8 * uint(b)
		if byte((and^or)>>shift) == 0 {
			continue
		}
		sum := int32(0)
		for d, n := range offsets[b] {
			offsets[b][d] = sum
			sum += n
		}
		for _, p := range src {
			d := byte(m.sortKey(p, flip) >> shift)
			dst[offsets[b][d]] = p
			offsets[b][d]++
		}
		src, dst = dst, src
		passes++
	}
	if passes%2 == 1 {
		copy(pages, src)
	}
}

// sortKey packs page p's count, XORed with flip, above its ID, so
// ascending keys are ascending (or, with flip all ones, descending)
// counts with ties broken by ascending ID.
func (m *Manager) sortKey(p int32, flip uint32) uint64 {
	return uint64(m.counts[p]^flip)<<32 | uint64(uint32(p))
}

// noTarget marks a page outside the hot set in Manager.target.
const noTarget = int8(-1)

// Rebalance recomputes the layout from the current counters and
// migrates misplaced pages, skipping pages for which busy returns true
// (in-flight DMA targets). It returns the number of pages moved and
// then ages the counters.
//
// Only the live set — pages referenced recently enough to hold a
// nonzero aged count — is gathered and sorted, and chips with no live
// page are skipped entirely. Pages outside the live set can neither
// enter the hot region (the popularity floor is at least 1) nor sort
// anywhere but the tail of the order a sort of every page would give,
// so the decisions are those of that full sort; a test checks the
// sorted live set against it before every rebalance. The rest of the
// work is the exchange, whose evictions read the hot-resident index
// (see evictColdest), so a rebalance costs the live set plus the pages
// it moves.
func (m *Manager) Rebalance(busy func(memsys.PageID) bool) int {
	return m.rebalance(busy, (*Manager).evictColdest)
}

// evictFunc makes room in hot group g: it evicts up to deficit of the
// group's coldest uninvolved, non-busy residents to the cold group.
type evictFunc func(m *Manager, g, deficit int, liveOrder []int32, busy func(memsys.PageID) bool)

// rebalance is Rebalance with the eviction walk as a parameter, so that
// a test can replay a schedule with a reference walk.
func (m *Manager) rebalance(busy func(memsys.PageID) bool, evict evictFunc) int {
	m.Rebalances++
	liveOrder := m.gatherLive()
	total := uint64(0)
	for _, p := range liveOrder {
		total += uint64(m.counts[p])
	}
	if total == 0 {
		return 0
	}
	m.sortByCount(liveOrder, true)

	// Size the hot region: smallest prefix of pages covering HotShare
	// of the requests. Pages below the popularity floor never qualify:
	// one-hit wonders are not worth a migration.
	perChip := m.geo.PagesPerChip()
	threshold := uint64(m.cfg.HotShare * float64(total))
	minHot := m.cfg.MinHotCount
	if minHot < 1 {
		minHot = 1
	}
	cum := uint64(0)
	hotPages := 0
	for _, p := range liveOrder {
		if cum >= threshold || m.counts[p] < minHot {
			break
		}
		cum += uint64(m.counts[p])
		hotPages++
	}
	if hotPages == 0 {
		hotPages = 1
	}
	hotChips := (hotPages + perChip - 1) / perChip
	if m.cfg.Groups > 2 && hotChips < m.cfg.Groups-1 {
		// Every hot group needs at least one chip; deeper group
		// structures therefore spread the hot set over more chips.
		hotChips = m.cfg.Groups - 1
	}
	if hotChips > m.geo.NumChips-1 {
		hotChips = m.geo.NumChips - 1
	}
	sizes := m.groupSizes(hotChips)
	m.indexHot(hotChips)

	// Assign chips to groups: chip ranges in order, so the assignment
	// is stable while the hot set is stable.
	chip := 0
	for g, s := range sizes {
		for i := 0; i < s; i++ {
			m.groupOfChip[chip] = g
			chip++
		}
	}

	// Target group per hot page: the hottest pages fill the hottest
	// groups. Pages outside the hot set have no target — they stay
	// wherever they are unless evicted to make room, which is what
	// keeps steady-state migration traffic proportional to actual
	// popularity change rather than to group capacity.
	target := m.target
	rank := 0
	hotGroups := len(sizes) - 1
	for g := 0; g < hotGroups && rank < hotPages; g++ {
		capacity := sizes[g] * perChip
		// Below the capacity bound, spread the hot set over the group
		// structure in proportion to group size (the paper's popularity
		// ordering across G1 > G2 > ...); the last hot group absorbs
		// the remainder.
		if g < hotGroups-1 && hotChips > 0 {
			share := (hotPages*sizes[g] + hotChips - 1) / hotChips
			if share < capacity {
				capacity = share
			}
		}
		for i := 0; i < capacity && rank < hotPages; i++ {
			target[liveOrder[rank]] = int8(g)
			rank++
		}
	}

	moves := m.executeMoves(liveOrder, busy, evict)
	for _, p := range liveOrder[:rank] {
		target[p] = noTarget
	}
	m.rebuildLive(liveOrder)
	m.age(liveOrder)
	return moves
}

// indexHot makes the hot-resident index describe chips [0, hotChips),
// rebuilding it from loc when the hot-chip count has changed. Between
// such changes, the moves keep it current (see executeMoves).
func (m *Manager) indexHot(hotChips int) {
	if hotChips == m.hotBound {
		return
	}
	m.hotBound = hotChips
	clear(m.hot)
	for p, c := range m.loc {
		if int(c) < hotChips {
			m.hot[p>>6] |= 1 << (p & 63)
		}
	}
}

// evictColdest walks hot group g's candidates from coldest to hottest,
// the order of a popularity sort of every page read back to front:
// first the zero-count pages by descending ID, then the live pages in
// reverse popularity order. Zero-count pages off the hot chips can
// never leave a hot group, so the first phase reads only the
// hot-resident index, a word at a time from the top; the live tail is
// the popularity-sorted live set. Each hot group restarts from the
// very coldest page.
func (m *Manager) evictColdest(g, deficit int, liveOrder []int32, busy func(memsys.PageID) bool) {
	for w := len(m.hot) - 1; w >= 0 && deficit > 0; w-- {
		for word := m.hot[w]; word != 0 && deficit > 0; {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << b
			p := int32(w<<6 | b)
			if m.counts[p] == 0 && m.tryEvict(p, g, busy) {
				deficit--
			}
		}
	}
	for i := len(liveOrder) - 1; i >= 0 && deficit > 0; i-- {
		if m.tryEvict(liveOrder[i], g, busy) {
			deficit--
		}
	}
}

// tryEvict moves page p out of hot group g into the cold group, unless
// p is in the hot set, already moving, resident outside g (by the new
// grouping in m.groupOfChip), or busy. It reports whether p was evicted.
func (m *Manager) tryEvict(p int32, g int, busy func(memsys.PageID) bool) bool {
	if m.target[p] >= 0 || m.moving[p] {
		return false
	}
	if m.groupOfChip[m.loc[p]] != g {
		return false
	}
	if busy != nil && busy(memsys.PageID(p)) {
		return false
	}
	cold := m.cfg.Groups - 1
	m.entering[cold] = append(m.entering[cold], p)
	m.leaving[g] = append(m.leaving[g], p)
	m.moving[p] = true
	return true
}

// executeMoves migrates hot-set pages into the target groups Rebalance
// assigned (m.target, over the chip grouping in m.groupOfChip) and has
// evict pick just enough cold pages to make room. Pages outside the
// hot set (target < 0) stay put unless evicted, so steady-state
// migration traffic tracks popularity change, not group capacity.
// Because every executed mover both frees its old slot and consumes a
// freed one, per-chip occupancy is preserved. Busy pages stay put; their
// counterparts are trimmed so that |entering| == |leaving| for every
// group.
func (m *Manager) executeMoves(liveOrder []int32, busy func(memsys.PageID) bool, evict evictFunc) int {
	k := m.cfg.Groups
	cold := k - 1
	entering := m.entering // pages wanting in, hottest first
	leaving := m.leaving   // pages wanting out (their chips free slots)
	for g := 0; g < k; g++ {
		entering[g] = entering[g][:0]
		leaving[g] = leaving[g][:0]
	}
	moving, dropped := m.moving, m.dropped

	// Hot-set movers, hottest first (liveOrder is popularity-sorted
	// and targets were assigned along its prefix).
	for _, p := range liveOrder {
		tgt := m.target[p]
		if tgt < 0 {
			break // end of the hot prefix
		}
		cur := m.groupOfChip[m.loc[p]]
		if int(tgt) == cur {
			continue
		}
		if busy != nil && busy(memsys.PageID(p)) {
			m.SkippedBusy++
			continue
		}
		entering[tgt] = append(entering[tgt], p)
		leaving[cur] = append(leaving[cur], p)
		moving[p] = true
	}

	// Room-making evictions: a hot group receiving more pages than it
	// loses evicts its coldest uninvolved residents to the cold group.
	for g := 0; g < cold; g++ {
		if deficit := len(entering[g]) - len(leaving[g]); deficit > 0 {
			evict(m, g, deficit, liveOrder, busy)
		}
	}

	// Hysteresis: for each hot group, cancel marginal swaps. The
	// least-popular would-be enterer and the most-popular would-be
	// leaver are a swap pair; if the enterer is not clearly hotter
	// (count < MigrateRatio * leaver count), keep both where they are.
	if m.cfg.MigrateRatio > 1 {
		for g := 0; g < k-1; g++ {
			in := append(m.inScratch[:0], entering[g]...)
			out := append(m.outScratch[:0], leaving[g]...)
			m.inScratch, m.outScratch = in, out
			m.sortByCount(in, false) // coldest enterer first
			m.sortByCount(out, true) // hottest leaver first
			i := 0
			for i < len(in) && i < len(out) {
				if float64(m.counts[in[i]]) < m.cfg.MigrateRatio*float64(m.counts[out[i]]) {
					dropped[in[i]] = true
					dropped[out[i]] = true
					i++
					continue
				}
				break
			}
		}
	}

	// Trim to a consistent exchange: drop excess enterers (coldest
	// first) until every group has |entering| <= |leaving|; dropping an
	// enterer also removes it from its home group's leavers, so
	// iterate to a fixpoint.
	for changed := true; changed; {
		changed = false
		for g := 0; g < k; g++ {
			live := 0
			for _, p := range leaving[g] {
				if !dropped[p] {
					live++
				}
			}
			in := entering[g]
			liveIn := 0
			for _, p := range in {
				if !dropped[p] {
					liveIn++
				}
			}
			for liveIn > live {
				// Drop the least popular live enterer (they are in
				// popularity order only incidentally; scan from the
				// back).
				for i := len(in) - 1; i >= 0; i-- {
					if !dropped[in[i]] {
						dropped[in[i]] = true
						liveIn--
						changed = true
						break
					}
				}
			}
		}
	}

	// Snapshot the freed slots of every group before any page moves,
	// so a leaver that has already been reassigned still frees its old
	// chip.
	freed := m.freed
	for g := 0; g < k; g++ {
		freed[g] = freed[g][:0]
		for _, p := range leaving[g] {
			if !dropped[p] {
				freed[g] = append(freed[g], m.loc[p])
			}
		}
	}

	// Execute: pair each live enterer of g with a slot freed by a live
	// leaver of g, keeping the hot-resident index current.
	moves := 0
	for g := 0; g < k; g++ {
		slots := freed[g]
		si := 0
		for _, p := range entering[g] {
			if dropped[p] {
				continue
			}
			if si >= len(slots) {
				panic("layout: exchange imbalance after trimming")
			}
			m.loc[p] = slots[si]
			if bit := uint64(1) << (p & 63); int(slots[si]) < m.hotBound {
				m.hot[p>>6] |= bit
			} else {
				m.hot[p>>6] &^= bit
			}
			si++
			moves++
		}
	}
	m.MigratedPages += int64(moves)
	// Every flagged page sits on some entering list (a leaver is always
	// also an enterer elsewhere), so clearing through those lists
	// leaves both bitmaps all-false for the next rebalance.
	for g := 0; g < k; g++ {
		for _, p := range entering[g] {
			moving[p] = false
			dropped[p] = false
		}
	}
	return moves
}

// age shifts the counters of the live pages; every other page already
// counts zero, so touching only the live set matches the reference
// behavior of shifting the whole array.
func (m *Manager) age(liveOrder []int32) {
	if m.cfg.AgeShift == 0 {
		return
	}
	for _, p := range liveOrder {
		m.counts[p] >>= m.cfg.AgeShift
	}
}

// checkInvariants verifies that every chip holds exactly PagesPerChip
// pages and that the live-set index is consistent: tracked marks
// exactly the listed pages, every nonzero count is tracked, no list
// outgrows its chip, no page is listed twice, the hot-resident index
// marks exactly the pages on chips [0, hotBound), and the per-page
// rebalance scratch is all-clear; tests call it.
func (m *Manager) checkInvariants() error {
	occ := make([]int, m.geo.NumChips)
	for _, c := range m.loc {
		occ[c]++
	}
	per := m.geo.PagesPerChip()
	for c, n := range occ {
		if n != per {
			return fmt.Errorf("chip %d holds %d pages, want %d", c, n, per)
		}
	}
	listed := make([]bool, len(m.counts))
	for c := range m.live {
		if len(m.live[c]) > per {
			return fmt.Errorf("chip %d live list holds %d entries, cap %d", c, len(m.live[c]), per)
		}
		if cap(m.live[c]) != per {
			return fmt.Errorf("chip %d live list capacity %d, want %d (Observe must not reallocate)", c, cap(m.live[c]), per)
		}
		for _, p := range m.live[c] {
			if listed[p] {
				return fmt.Errorf("page %d listed twice", p)
			}
			listed[p] = true
			if !m.tracked[p] {
				return fmt.Errorf("page %d listed but not tracked", p)
			}
		}
	}
	for p := range m.counts {
		if m.target[p] != noTarget || m.moving[p] || m.dropped[p] {
			return fmt.Errorf("page %d rebalance scratch not cleared (target %d moving %v dropped %v)",
				p, m.target[p], m.moving[p], m.dropped[p])
		}
		if m.tracked[p] && !listed[p] {
			return fmt.Errorf("page %d tracked but unlisted", p)
		}
		if m.counts[p] > 0 && !m.tracked[p] {
			return fmt.Errorf("page %d has count %d but is untracked", p, m.counts[p])
		}
		if indexed, onHot := m.hot[p>>6]>>(p&63)&1 == 1, int(m.loc[p]) < m.hotBound; indexed != onHot {
			return fmt.Errorf("page %d on chip %d: hot-resident bit %v, hot chips [0,%d)", p, m.loc[p], indexed, m.hotBound)
		}
	}
	return nil
}
