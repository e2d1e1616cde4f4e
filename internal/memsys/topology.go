package memsys

import (
	"fmt"
	"math"
)

// Topology groups the chips of a Geometry into independently clocked
// DDR-style channels. Pages are striped across channels at a
// configurable granularity, and each channel contributes its own
// bandwidth ceiling and power-state domain.
//
// The zero value selects the legacy single-channel RDRAM behavior and
// is always valid: every chip shares one implicit channel, pages are
// round-robin interleaved across all chips, and no per-channel
// bandwidth cap applies. Setting any field engages the topology
// backend, which must validate against the Geometry it partitions.
type Topology struct {
	// Channels is the number of independently clocked channels the
	// chips are split into. 0 means "topology disabled" (legacy
	// single-channel path); otherwise it must divide Geometry.NumChips.
	Channels int
	// StripePages is the number of consecutive pages placed on one
	// channel before the mapping advances to the next channel.
	// 0 means 1 (page-granular interleaving).
	StripePages int
	// ChannelBandwidth caps the aggregate delivery rate into one
	// channel, bytes/s. 0 means "no per-channel cap": chips remain
	// limited only by their own bandwidth and the I/O buses.
	ChannelBandwidth float64
}

// Enabled reports whether any field departs from the legacy
// single-channel zero value.
func (t Topology) Enabled() bool {
	return t.Channels != 0 || t.StripePages != 0 || t.ChannelBandwidth != 0
}

// Validate reports a descriptive error when the topology cannot
// partition the given geometry. The zero value always validates.
func (t Topology) Validate(g Geometry) error {
	if !t.Enabled() {
		return nil
	}
	switch {
	case t.Channels < 0:
		return fmt.Errorf("memsys: Topology.Channels must be nonnegative, got %d", t.Channels)
	case t.Channels > g.NumChips:
		return fmt.Errorf("memsys: Topology.Channels (%d) exceeds NumChips (%d)", t.Channels, g.NumChips)
	case t.Channels > 0 && g.NumChips%t.Channels != 0:
		return fmt.Errorf("memsys: Topology.Channels (%d) must divide NumChips (%d)", t.Channels, g.NumChips)
	case t.StripePages < 0:
		return fmt.Errorf("memsys: Topology.StripePages must be nonnegative, got %d", t.StripePages)
	case t.ChannelBandwidth < 0 || math.IsNaN(t.ChannelBandwidth) || math.IsInf(t.ChannelBandwidth, 0):
		return fmt.Errorf("memsys: Topology.ChannelBandwidth must be finite and nonnegative, got %g", t.ChannelBandwidth)
	}
	return nil
}

// NumChannels returns the effective channel count (1 when the field is
// unset or the topology is disabled).
func (t Topology) NumChannels() int {
	if t.Channels <= 0 {
		return 1
	}
	return t.Channels
}

// effectiveStripePages returns the stripe granularity with the zero
// default applied.
func (t Topology) effectiveStripePages() int {
	if t.StripePages <= 0 {
		return 1
	}
	return t.StripePages
}

// chipsPerChannel returns how many chips each channel owns under g.
func (t Topology) chipsPerChannel(g Geometry) int {
	return g.NumChips / t.NumChannels()
}

// ChannelOfChip returns the channel owning the given chip. Chips are
// assigned to channels in contiguous blocks: channel c owns chips
// [c*ChipsPerChannel, (c+1)*ChipsPerChannel).
func (t Topology) ChannelOfChip(g Geometry, chip int) int {
	return chip / t.chipsPerChannel(g)
}

// Mapper returns the page-to-chip mapping induced by the topology: the
// channel-interleaved topologyMapper when enabled, or the legacy
// InterleavedMapper otherwise.
func (t Topology) Mapper(g Geometry) Mapper {
	if !t.Enabled() {
		return InterleavedMapper{Chips: g.NumChips}
	}
	return topologyMapper{
		Channels:        t.NumChannels(),
		ChipsPerChannel: t.chipsPerChannel(g),
		StripePages:     t.effectiveStripePages(),
	}
}

// topologyMapper stripes runs of StripePages consecutive pages across
// channels round-robin, then round-robins the stripes owned by one
// channel across that channel's chips. With Channels=1 and
// StripePages=1 it reduces exactly to InterleavedMapper over all chips.
type topologyMapper struct {
	Channels        int
	ChipsPerChannel int
	StripePages     int
}

// ChipOf implements Mapper.
func (m topologyMapper) ChipOf(p PageID) int {
	stripe := int(p) / m.StripePages
	ch := stripe % m.Channels
	// Index of the page within its channel's page sequence.
	idx := (stripe/m.Channels)*m.StripePages + int(p)%m.StripePages
	return ch*m.ChipsPerChannel + idx%m.ChipsPerChannel
}
