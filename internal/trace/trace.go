// Package trace defines the memory-access trace model that drives the
// simulator, its on-disk .dmt container and summary statistics.
//
// A trace is a time-ordered sequence of records of two families:
// DMA transfers (network or disk, one or more whole pages) and
// processor accesses (single 64-byte cache lines). This mirrors the
// paper's Table 2: storage-server traces contain network and disk DMAs
// only; database-server traces add processor accesses.
package trace

import (
	"fmt"
	"sort"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// Kind distinguishes record families and directions.
type Kind uint8

const (
	// DMARead moves data from memory to a device (e.g. network send).
	DMARead Kind = iota
	// DMAWrite moves data from a device into memory (e.g. disk fill).
	DMAWrite
	// ProcRead is a processor load of one cache line.
	ProcRead
	// ProcWrite is a processor store of one cache line.
	ProcWrite
	numKinds
)

var kindNames = [numKinds]string{"dma-read", "dma-write", "proc-read", "proc-write"}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsDMA reports whether the record is a DMA transfer.
func (k Kind) IsDMA() bool { return k == DMARead || k == DMAWrite }

// Source identifies which device class initiated a DMA.
type Source uint8

const (
	SrcNetwork Source = iota
	SrcDisk
	SrcProcessor
	numSources
)

var sourceNames = [numSources]string{"net", "disk", "proc"}

func (s Source) String() string {
	if s < numSources {
		return sourceNames[s]
	}
	return fmt.Sprintf("Source(%d)", uint8(s))
}

// Record is one trace entry. For DMA kinds, Pages consecutive pages
// starting at Page are transferred over I/O bus Bus. For processor
// kinds, a single cache line within Page is accessed and Pages/Bus are
// ignored.
type Record struct {
	Time   sim.Time
	Kind   Kind
	Source Source
	Bus    uint8
	Pages  uint16
	Page   memsys.PageID
}

// Bytes returns the number of bytes the record moves, given the page
// size.
func (r Record) Bytes(pageBytes int) int64 {
	if r.Kind.IsDMA() {
		return int64(r.Pages) * int64(pageBytes)
	}
	return memsys.CacheLineBytes
}

// Meta carries workload-level context alongside a trace, stored in the
// .dmt footer; it exists so generators can hand the CP-Limit
// calibration (Section 5.1's off-line CP-Limit -> mu transform) the
// client-level quantities it needs.
type Meta struct {
	// MeanClientResponse is the average client-perceived response time
	// of the workload that produced this trace (0 when unknown).
	MeanClientResponse sim.Duration
	// TransfersPerClientRequest is the average number of DMA transfers
	// on the critical path of one client request (0 when unknown).
	TransfersPerClientRequest float64
}

// Trace is an in-memory, time-ordered sequence of records.
type Trace struct {
	Name    string
	Meta    Meta
	Records []Record
}

// checkRecord checks time ordering and structural sanity of record i
// of the trace called name, whose predecessor arrived at last (zero for
// the first).
func checkRecord(name string, i int64, r Record, last sim.Time) error {
	if r.Time < last {
		return fmt.Errorf("trace %q: record %d at %v before predecessor at %v", name, i, r.Time, last)
	}
	if r.Kind >= numKinds {
		return fmt.Errorf("trace %q: record %d has invalid kind %d", name, i, r.Kind)
	}
	if r.Kind.IsDMA() && r.Pages == 0 {
		return fmt.Errorf("trace %q: record %d is a zero-page DMA", name, i)
	}
	if r.Page < 0 {
		return fmt.Errorf("trace %q: record %d has negative page", name, i)
	}
	return nil
}

// Duration returns the span covered by the trace.
func (t *Trace) Duration() sim.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return sim.Duration(t.Records[len(t.Records)-1].Time)
}

// SortByTime stably sorts records by timestamp, preserving the relative
// order of simultaneous records (generators emit logically ordered
// streams).
//
// It is a bottom-up merge sort through one buffer of len(Records):
// O(n log n) moves where an in-place stable sort (symmerge) does
// O(n log² n). A merge whose halves are already in order is a copy,
// which keeps the nearly sorted output of the generators cheap. Any
// stable sort on Time gives the same order.
func (t *Trace) SortByTime() {
	rs := t.Records
	const block = 32
	for lo := 0; lo < len(rs); lo += block {
		insertionSortByTime(rs[lo:min(lo+block, len(rs))])
	}
	if len(rs) <= block {
		return
	}
	src, dst := rs, make([]Record, len(rs))
	for width := block; width < len(rs); width *= 2 {
		for lo := 0; lo < len(rs); lo += 2 * width {
			mid, hi := min(lo+width, len(rs)), min(lo+2*width, len(rs))
			mergeByTime(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &rs[0] {
		copy(rs, src)
	}
}

func insertionSortByTime(rs []Record) {
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		j := i
		for ; j > 0 && rs[j-1].Time > r.Time; j-- {
			rs[j] = rs[j-1]
		}
		rs[j] = r
	}
}

// mergeByTime merges the sorted runs a and b into dst, taking from a
// on equal times (stability).
func mergeByTime(dst, a, b []Record) {
	if len(b) == 0 || a[len(a)-1].Time <= b[0].Time {
		copy(dst[copy(dst, a):], b)
		return
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Time < a[i].Time {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Clip returns a shallow copy containing only records with Time < end.
func (t *Trace) Clip(end sim.Time) *Trace {
	i := sort.Search(len(t.Records), func(i int) bool { return t.Records[i].Time >= end })
	return &Trace{Name: t.Name, Records: t.Records[:i]}
}
