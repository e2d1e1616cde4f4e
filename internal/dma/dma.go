// Package dma models DMA transfers and their decomposition into
// DMA-memory requests.
//
// A transfer moves whole pages between a device (disk or NIC) and main
// memory over one I/O bus. The bus emits one 8-byte DMA-memory request
// per beat; the chip serves each request in pageBytes/chipRate time and
// then idles until the next beat — the bandwidth-mismatch waste of
// Figure 2(a). The simulator core treats flowing transfers as fluid
// streams; this package supplies the transfer/segment bookkeeping and
// an exact request-level schedule used by the timeline tool and by
// cross-validation tests of the fluid model.
package dma

import (
	"fmt"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// Transfer is one DMA operation from a trace record.
type Transfer struct {
	ID      int64
	Arrival sim.Time
	Kind    trace.Kind
	Source  trace.Source
	Bus     int
	Page    memsys.PageID
	Pages   int
}

// FromRecord builds a Transfer from a DMA trace record.
func FromRecord(id int64, r trace.Record) Transfer {
	if !r.Kind.IsDMA() {
		panic(fmt.Sprintf("dma: record %v is not a DMA", r.Kind))
	}
	return Transfer{
		ID:      id,
		Arrival: r.Time,
		Kind:    r.Kind,
		Source:  r.Source,
		Bus:     int(r.Bus),
		Page:    r.Page,
		Pages:   int(r.Pages),
	}
}

// Segment is a maximal run of consecutive pages of one transfer that
// live on the same chip under the current layout. A transfer crosses
// its segments in order; each segment is the unit the memory
// controller gates and serves, and the controller resolves each one as
// the transfer reaches it.
type Segment struct {
	Chip  int
	Page  memsys.PageID // first page of the run
	Pages int
}

// RequestEvent is one DMA-memory request of the exact schedule: the
// beat at which it reaches the chip and the span during which the chip
// serves it.
type RequestEvent struct {
	Arrive sim.Time
	Start  sim.Time // == Arrive once the chip is caught up
	Done   sim.Time
}

// ExactSchedule computes the request-level timeline of n interleaved
// streams that all start at time start and target one chip, each
// delivering one reqBytes request per beatGap. The chip serves each
// request in serve time, FIFO across streams. It returns one slice of
// events per stream and is used to validate the fluid model and to
// draw Figures 2(a) and 3.
func ExactSchedule(start sim.Time, streams int, reqsPerStream int,
	beatGap, serve sim.Duration) [][]RequestEvent {
	if streams <= 0 || reqsPerStream <= 0 {
		panic(fmt.Sprintf("dma: ExactSchedule(%d streams, %d reqs)", streams, reqsPerStream))
	}
	if beatGap <= 0 || serve <= 0 {
		panic(fmt.Sprintf("dma: ExactSchedule gap %v serve %v", beatGap, serve))
	}
	out := make([][]RequestEvent, streams)
	for s := range out {
		out[s] = make([]RequestEvent, reqsPerStream)
	}
	chipFree := start
	// Requests arrive in beat order; streams are offset by their index
	// within a beat (bus arbitration order), which produces exactly the
	// lockstep interleaving of Figure 3.
	for r := 0; r < reqsPerStream; r++ {
		beat := start.Add(sim.Duration(r) * beatGap)
		for s := 0; s < streams; s++ {
			arrive := beat
			st := arrive
			if chipFree > st {
				st = chipFree
			}
			done := st.Add(serve)
			out[s][r] = RequestEvent{Arrive: arrive, Start: st, Done: done}
			chipFree = done
		}
	}
	return out
}

// UtilizationOf computes the utilization factor of an exact schedule:
// the fraction of the busy envelope (first arrival to last completion)
// during which the chip is serving.
func UtilizationOf(sched [][]RequestEvent) float64 {
	var first, last sim.Time
	var busy sim.Duration
	set := false
	for _, stream := range sched {
		for _, ev := range stream {
			if !set || ev.Arrive < first {
				first = ev.Arrive
				set = true
			}
			if ev.Done > last {
				last = ev.Done
			}
			busy += ev.Done.Sub(ev.Start)
		}
	}
	if !set || last == first {
		return 0
	}
	return float64(busy) / float64(last.Sub(first))
}
