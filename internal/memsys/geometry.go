// Package memsys models the main-memory subsystem of a data server: a
// set of independently power-managed RDRAM chips, the geometry that
// maps pages onto them, and the per-chip power state machine with
// energy accounting.
package memsys

import (
	"fmt"
	"math"

	"dmamem/internal/sim"
)

// RequestBytes is the size of one DMA-memory request: the width of a
// 64-bit PCI-X bus beat (Section 3 of the paper).
const RequestBytes = 8

// CacheLineBytes is the size of a processor-initiated access.
const CacheLineBytes = 64

// Geometry describes the simulated memory system. The paper's default
// is 32 chips of 32 MB (1 GB total) of 512 Mb 1600 MHz RDRAM with a
// 3.2 GB/s per-chip transfer rate and 8 KB pages.
type Geometry struct {
	NumChips      int     // number of independently managed chips
	ChipBytes     int64   // capacity of one chip in bytes
	PageBytes     int     // OS page size in bytes
	ChipBandwidth float64 // sustained transfer rate of one chip, bytes/s
}

// Default returns the paper's evaluation configuration.
func Default() Geometry {
	return Geometry{
		NumChips:      32,
		ChipBytes:     32 << 20,
		PageBytes:     8 << 10,
		ChipBandwidth: 3.2e9,
	}
}

// Validate reports a descriptive error for nonsensical geometries.
func (g Geometry) Validate() error {
	switch {
	case g.NumChips <= 0:
		return fmt.Errorf("memsys: NumChips must be positive, got %d", g.NumChips)
	case g.ChipBytes <= 0:
		return fmt.Errorf("memsys: ChipBytes must be positive, got %d", g.ChipBytes)
	case g.PageBytes <= 0:
		return fmt.Errorf("memsys: PageBytes must be positive, got %d", g.PageBytes)
	case int64(g.PageBytes) > g.ChipBytes:
		return fmt.Errorf("memsys: page (%d B) larger than chip (%d B)", g.PageBytes, g.ChipBytes)
	case g.ChipBytes%int64(g.PageBytes) != 0:
		return fmt.Errorf("memsys: ChipBytes (%d) must be a multiple of PageBytes (%d)", g.ChipBytes, g.PageBytes)
	case g.ChipBandwidth <= 0 || math.IsNaN(g.ChipBandwidth) || math.IsInf(g.ChipBandwidth, 0):
		return fmt.Errorf("memsys: ChipBandwidth must be positive and finite, got %g", g.ChipBandwidth)
	}
	return nil
}

// PagesPerChip returns how many pages fit on one chip.
func (g Geometry) PagesPerChip() int { return int(g.ChipBytes / int64(g.PageBytes)) }

// TotalPages returns the number of physical pages in the system.
func (g Geometry) TotalPages() int { return g.PagesPerChip() * g.NumChips }

// ServiceTime returns the time one chip needs to transfer n bytes at
// its sustained rate.
func (g Geometry) ServiceTime(n int64) sim.Duration {
	return sim.FromSeconds(float64(n) / g.ChipBandwidth)
}

// RequestServiceTime is the chip-side service time of a single 8-byte
// DMA-memory request (4 memory cycles = 2.5 ns at the default rate).
func (g Geometry) RequestServiceTime() sim.Duration {
	return g.ServiceTime(RequestBytes)
}

// CacheLineServiceTime is the service time of one processor access.
func (g Geometry) CacheLineServiceTime() sim.Duration {
	return g.ServiceTime(CacheLineBytes)
}

// PageID names a physical page.
type PageID int32

// Mapper maps physical pages to chips. The baseline layouts live here;
// the popularity-based layout in internal/layout also satisfies it.
type Mapper interface {
	// ChipOf returns the chip currently holding the page.
	ChipOf(p PageID) int
}

// InterleavedMapper stripes consecutive pages round-robin across chips,
// the usual bandwidth-oriented layout and our baseline.
type InterleavedMapper struct{ Chips int }

// ChipOf implements Mapper.
func (m InterleavedMapper) ChipOf(p PageID) int { return int(p) % m.Chips }
