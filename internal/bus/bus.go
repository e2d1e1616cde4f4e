// Package bus models the I/O buses of a data server and the way
// concurrent DMA streams share bus and memory-chip bandwidth.
//
// The paper's default configuration is three 133 MHz, 64-bit PCI-X
// buses (1.064 GB/s each) attached to a memory bus whose chips each
// sustain 3.2 GB/s. A DMA engine on a bus emits one 8-byte DMA-memory
// request per bus beat; several engines on one bus time-share it, and
// several buses can deliver requests to the same chip concurrently —
// the concurrency DMA-TA exploits.
//
// Rates of concurrent streams are computed with a max-min fair
// (progressive-filling) allocation subject to two capacity constraints
// per stream: its bus and its destination chip. This mirrors
// round-robin arbitration on both resources.
package bus

import (
	"fmt"
	"math"

	"dmamem/internal/sim"
)

// PCIXBandwidth is the peak transfer rate of one 133 MHz 64-bit PCI-X
// bus in bytes/s. 133 MHz x 8 B = 1.064 GB/s; the paper rounds the
// memory:I/O ratio to 3 with 3.2 GB/s RDRAM, because one 8-byte request
// is served in 4 memory cycles and the next arrives 12 cycles after the
// previous one (Figure 2a).
const PCIXBandwidth = 8.0 / (7500e-12) // exactly one 8 B beat per 12 memory cycles

// Config describes the I/O subsystem.
type Config struct {
	Count     int     // number of I/O buses
	Bandwidth float64 // per-bus bandwidth, bytes/s
}

// DefaultConfig returns the paper's three-PCI-X-bus setup.
func DefaultConfig() Config { return Config{Count: 3, Bandwidth: PCIXBandwidth} }

// Validate reports a descriptive error for nonsensical configs.
func (c Config) Validate() error {
	if c.Count <= 0 {
		return fmt.Errorf("bus: Count must be positive, got %d", c.Count)
	}
	if !(c.Bandwidth > 0) || math.IsInf(c.Bandwidth, 0) {
		return fmt.Errorf("bus: Bandwidth must be positive and finite, got %g", c.Bandwidth)
	}
	return nil
}

// BeatGap is the inter-arrival time of successive 8-byte DMA-memory
// requests of a single stream using the full bus.
func (c Config) BeatGap() sim.Duration {
	return sim.FromSeconds(8.0 / c.Bandwidth)
}

// GatherTarget is the paper's k = ceil(Rm/Rb): the number of distinct
// buses whose combined delivery rate saturates one chip.
func GatherTarget(chipBW, busBW float64) int {
	if chipBW <= 0 || busBW <= 0 {
		panic(fmt.Sprintf("bus: nonpositive bandwidth chip=%g bus=%g", chipBW, busBW))
	}
	k := int(chipBW / busBW)
	if float64(k)*busBW < chipBW {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Flow identifies one DMA stream for rate allocation: it runs over Bus
// and targets Chip.
type Flow struct {
	Bus  int
	Chip int
}

// Allocator computes max-min fair rates for a set of flows. It reuses
// scratch buffers across calls, so a single Allocator must not be used
// concurrently. It remembers its last input: a call that passes the
// same flows as the one before, with no capacity change in between,
// returns the same rates without recomputing them.
type Allocator struct {
	busCap  []float64
	chipCap float64

	// Optional third resource: per-channel capacity. When channelOf is
	// nil the allocator behaves exactly as the two-resource original.
	channelOf  []int // chip -> channel
	channelCap []float64

	// scratch. remChip and chipCount are dense, indexed by chip and
	// grown on demand; only the chips listed in touched (those the
	// current call's flows reference) hold live values, so a call
	// resets and scans those chips alone. The reset matters after the
	// stall fallback or a panic, which leave counts nonzero.
	remBus    []float64
	remChip   []float64
	busCount  []int
	chipCount []int
	touched   []int
	remChan   []float64
	chanCount []int
	rates     []float64
	// slots keeps, per flow, the call's input and its progressive-
	// filling state, so remembering the input costs no scratch of its
	// own. After a call, slots[:nLast] is that call's input and cached
	// says rates still holds its answer; SetChannels clears cached.
	slots  []flowSlot
	nLast  int
	cached bool
}

// flowSlot is one flow's entry in the allocator's per-flow scratch.
type flowSlot struct {
	flow   Flow
	frozen bool
}

// NewAllocator builds an allocator for buses with the given capacities
// (bytes/s) and a uniform per-chip capacity.
func NewAllocator(busCap []float64, chipCap float64) *Allocator {
	if len(busCap) == 0 {
		panic("bus: allocator needs at least one bus")
	}
	for i, c := range busCap {
		if c <= 0 {
			panic(fmt.Sprintf("bus: bus %d capacity %g", i, c))
		}
	}
	if chipCap <= 0 {
		panic(fmt.Sprintf("bus: chip capacity %g", chipCap))
	}
	return &Allocator{
		busCap:   busCap,
		chipCap:  chipCap,
		remBus:   make([]float64, len(busCap)),
		busCount: make([]int, len(busCap)),
	}
}

// SetChannels adds a per-channel capacity constraint: flow rates into
// the chips of channel c additionally satisfy sum <= channelCap[c],
// with channelOf mapping each chip index to its channel. Passing a nil
// channelOf removes the constraint. The slices are retained, not
// copied: a caller that changes them must call SetChannels again.
func (a *Allocator) SetChannels(channelOf []int, channelCap []float64) {
	a.cached = false
	if channelOf == nil {
		a.channelOf, a.channelCap = nil, nil
		return
	}
	for i, c := range channelCap {
		if c <= 0 {
			panic(fmt.Sprintf("bus: channel %d capacity %g", i, c))
		}
	}
	for chip, ch := range channelOf {
		if ch < 0 || ch >= len(channelCap) {
			panic(fmt.Sprintf("bus: chip %d maps to channel %d of %d", chip, ch, len(channelCap)))
		}
	}
	a.channelOf = channelOf
	a.channelCap = channelCap
	if cap(a.remChan) < len(channelCap) {
		a.remChan = make([]float64, len(channelCap))
		a.chanCount = make([]int, len(channelCap))
	}
}

// Allocate returns the max-min fair rate of each flow, in bytes/s,
// subject to sum(rates on bus b) <= busCap[b] and sum(rates into chip
// c) <= chipCap. The result slice is valid until the next call, and
// the caller must not modify it: it is also the cached answer.
func (a *Allocator) Allocate(flows []Flow) []float64 {
	if a.sameAsLast(flows) {
		return a.rates[:len(flows)]
	}
	a.cached = false
	if cap(a.rates) < len(flows) {
		a.rates = make([]float64, len(flows))
		a.slots = make([]flowSlot, len(flows))
	}
	rates := a.rates[:len(flows)]
	for i := range rates {
		rates[i] = 0
	}
	if len(flows) == 0 {
		return rates
	}
	copy(a.remBus, a.busCap)
	for i := range a.busCount {
		a.busCount[i] = 0
	}
	for _, c := range a.touched {
		a.chipCount[c] = 0
	}
	a.touched = a.touched[:0]
	channels := a.channelOf != nil
	if channels {
		remChan := a.remChan[:len(a.channelCap)]
		chanCount := a.chanCount[:len(a.channelCap)]
		copy(remChan, a.channelCap)
		for i := range chanCount {
			chanCount[i] = 0
		}
	}
	for _, f := range flows {
		if f.Bus < 0 || f.Bus >= len(a.busCap) {
			panic(fmt.Sprintf("bus: flow references bus %d of %d", f.Bus, len(a.busCap)))
		}
		if f.Chip < 0 {
			panic(fmt.Sprintf("bus: flow references chip %d", f.Chip))
		}
		if f.Chip >= len(a.chipCount) {
			a.growChips(f.Chip + 1)
		}
		a.busCount[f.Bus]++
		if a.chipCount[f.Chip] == 0 {
			a.touched = append(a.touched, f.Chip)
			a.remChip[f.Chip] = a.chipCap
		}
		a.chipCount[f.Chip]++
		if channels {
			a.chanCount[a.channelOf[f.Chip]]++
		}
	}
	slots := a.slots[:len(flows)]
	for i, f := range flows {
		slots[i] = flowSlot{flow: f}
	}
	remaining := len(flows)

	for remaining > 0 {
		// Find the bottleneck resource: the one whose equal share among
		// its unfrozen flows is smallest.
		share := -1.0
		for b, n := range a.busCount {
			if n == 0 {
				continue
			}
			s := a.remBus[b] / float64(n)
			if share < 0 || s < share {
				share = s
			}
		}
		for _, c := range a.touched {
			n := a.chipCount[c]
			if n == 0 {
				continue
			}
			s := a.remChip[c] / float64(n)
			if share < 0 || s < share {
				share = s
			}
		}
		if channels {
			for c, n := range a.chanCount[:len(a.channelCap)] {
				if n == 0 {
					continue
				}
				s := a.remChan[c] / float64(n)
				if share < 0 || s < share {
					share = s
				}
			}
		}
		if share < 0 {
			panic("bus: unfrozen flows but no active resource")
		}
		// Freeze every unfrozen flow on a saturated resource at the
		// bottleneck share; give the share to all others provisionally
		// by reducing remaining capacity.
		progressed := false
		for i, f := range flows {
			if slots[i].frozen {
				continue
			}
			rates[i] += share
			a.remBus[f.Bus] -= share
			a.remChip[f.Chip] -= share
			if channels {
				a.remChan[a.channelOf[f.Chip]] -= share
			}
		}
		// Capacities are ~1e9 bytes/s, so every subtraction above rounds
		// at ~5e-7, and the bottleneck's remainder can land several ulps
		// away from zero after one share per flow. The threshold must sit
		// far above that accumulated error — otherwise the saturated
		// resource is missed and the stall fallback flat-freezes every
		// flow below its fair rate — while staying physically negligible
		// (1e-3 B/s against GB/s capacities).
		const eps = 1e-3
		for i, f := range flows {
			if slots[i].frozen {
				continue
			}
			if a.remBus[f.Bus] <= eps || a.remChip[f.Chip] <= eps ||
				(channels && a.remChan[a.channelOf[f.Chip]] <= eps) {
				slots[i].frozen = true
				remaining--
				a.busCount[f.Bus]--
				a.chipCount[f.Chip]--
				if channels {
					a.chanCount[a.channelOf[f.Chip]]--
				}
				progressed = true
			}
		}
		if !progressed {
			// Numerical stall: freeze everything at current rates.
			for i := range flows {
				if !slots[i].frozen {
					slots[i].frozen = true
					remaining--
				}
			}
		}
	}
	a.nLast = len(flows)
	a.cached = true
	return rates
}

// sameAsLast reports whether rates still answers flows: nothing
// changed since a call with the same input.
func (a *Allocator) sameAsLast(flows []Flow) bool {
	if !a.cached || len(flows) != a.nLast {
		return false
	}
	for i, f := range flows {
		if a.slots[i].flow != f {
			return false
		}
	}
	return true
}

// growChips extends the per-chip scratch to cover chips [0, n). It
// at least doubles, so a run's chip IDs settle the size after a few
// calls.
func (a *Allocator) growChips(n int) {
	if n < 2*len(a.chipCount) {
		n = 2 * len(a.chipCount)
	}
	remChip := make([]float64, n)
	copy(remChip, a.remChip)
	chipCount := make([]int, n)
	copy(chipCount, a.chipCount)
	a.remChip, a.chipCount = remChip, chipCount
}
