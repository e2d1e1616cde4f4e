package trace

import (
	"fmt"
	"math"
	"sort"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// Stats summarizes a trace the way Table 2 and Figure 4 of the paper
// do: per-source DMA rates, processor-access intensity, and the page
// popularity distribution of DMA accesses.
type Stats struct {
	Duration sim.Duration

	DMATransfers   int64
	NetTransfers   int64
	DiskTransfers  int64
	DMAPages       int64
	ProcAccesses   int64
	DistinctPages  int
	pagePopularity map[memsys.PageID]int64
	dmaArrivals    []sim.Time
}

// Analyze computes statistics over a trace. Page popularity counts one
// hit per page per DMA transfer (multi-page transfers touch each of
// their pages), matching the "DMA reference counts" PL maintains.
func Analyze(t *Trace) *Stats {
	s := &Stats{
		Duration:       t.Duration(),
		pagePopularity: make(map[memsys.PageID]int64),
	}
	for _, r := range t.Records {
		if r.Kind.IsDMA() {
			s.DMATransfers++
			s.DMAPages += int64(r.Pages)
			s.dmaArrivals = append(s.dmaArrivals, r.Time)
			switch r.Source {
			case SrcNetwork:
				s.NetTransfers++
			case SrcDisk:
				s.DiskTransfers++
			}
			for p := 0; p < int(r.Pages); p++ {
				s.pagePopularity[r.Page+memsys.PageID(p)]++
			}
		} else {
			s.ProcAccesses++
		}
	}
	s.DistinctPages = len(s.pagePopularity)
	return s
}

// ProcAccessesPerMs returns the average processor access rate.
func (s *Stats) ProcAccessesPerMs() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.ProcAccesses) / (s.Duration.Seconds() * 1e3)
}

// ProcAccessesPerTransfer returns the paper's Figure 9 x-axis metric.
func (s *Stats) ProcAccessesPerTransfer() float64 {
	if s.DMATransfers == 0 {
		return 0
	}
	return float64(s.ProcAccesses) / float64(s.DMATransfers)
}

// meanTransferPages returns the average DMA transfer size in pages.
func (s *Stats) meanTransferPages() float64 {
	if s.DMATransfers == 0 {
		return 0
	}
	return float64(s.DMAPages) / float64(s.DMATransfers)
}

// CDFPoint is one point of the Figure 4 curve: the most popular X
// fraction of pages receives Y fraction of the DMA accesses.
type CDFPoint struct{ PageFrac, AccessFrac float64 }

// PopularityCDF computes the Figure 4 curve with pages sorted from
// most to least popular, sampled at n evenly spaced page fractions
// (plus the endpoint).
func (s *Stats) PopularityCDF(n int) []CDFPoint {
	counts := make([]int64, 0, len(s.pagePopularity))
	var total int64
	for _, c := range s.pagePopularity {
		counts = append(counts, c)
		total += c
	}
	if len(counts) == 0 || total == 0 {
		return nil
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	if n < 1 {
		n = 1
	}
	pts := make([]CDFPoint, 0, n+1)
	var cum int64
	next := 1
	for i, c := range counts {
		cum += c
		for next <= n && i+1 >= (next*len(counts)+n-1)/n {
			pts = append(pts, CDFPoint{
				PageFrac:   float64(i+1) / float64(len(counts)),
				AccessFrac: float64(cum) / float64(total),
			})
			next++
		}
	}
	return pts
}

// String renders a Table 2 style one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"dur=%.1fms dma=%d (net %.1f/ms, disk %.1f/ms, %.2f pages/xfer) proc=%d (%.0f/ms, %.0f/xfer) pages=%d",
		s.Duration.Seconds()*1e3, s.DMATransfers, transfersPerMs(s.NetTransfers, s.Duration),
		transfersPerMs(s.DiskTransfers, s.Duration), s.meanTransferPages(),
		s.ProcAccesses, s.ProcAccessesPerMs(), s.ProcAccessesPerTransfer(), s.DistinctPages)
}

func transfersPerMs(n int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / (d.Seconds() * 1e3)
}

// InterArrivalCV returns the coefficient of variation of the DMA
// transfer inter-arrival times: 1 for a Poisson process, above 1 for
// bursty arrivals, below for smooth pacing.
func (s *Stats) InterArrivalCV() float64 {
	if len(s.dmaArrivals) < 3 {
		return 0
	}
	var gaps []float64
	for i := 1; i < len(s.dmaArrivals); i++ {
		gaps = append(gaps, float64(s.dmaArrivals[i]-s.dmaArrivals[i-1]))
	}
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	if mean == 0 {
		return 0
	}
	var varsum float64
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	return math.Sqrt(varsum/float64(len(gaps))) / mean
}

// ChipLoadCV returns the coefficient of variation of per-chip DMA page
// counts under page-interleaved placement over the given chip count —
// a measure of the natural chip-level skew a layout-oblivious system
// would see.
func (s *Stats) ChipLoadCV(chips int) float64 {
	if chips <= 0 {
		panic(fmt.Sprintf("trace: ChipLoadCV over %d chips", chips))
	}
	load := make([]float64, chips)
	var total float64
	for p, c := range s.pagePopularity {
		load[int(p)%chips] += float64(c)
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	mean := total / float64(chips)
	var varsum float64
	for _, l := range load {
		varsum += (l - mean) * (l - mean)
	}
	return math.Sqrt(varsum/float64(chips)) / mean
}
