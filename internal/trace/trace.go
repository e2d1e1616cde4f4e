// Package trace defines the memory-access trace model that drives the
// simulator, with binary and text codecs and summary statistics.
//
// A trace is a time-ordered sequence of records of two families:
// DMA transfers (network or disk, one or more whole pages) and
// processor accesses (single 64-byte cache lines). This mirrors the
// paper's Table 2: storage-server traces contain network and disk DMAs
// only; database-server traces add processor accesses.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// Meta carries workload-level context alongside a trace. The binary
// and text codecs do not serialize it; it exists so generators can hand
// the CP-Limit calibration (Section 5.1's off-line CP-Limit -> mu
// transform) the client-level quantities it needs.
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

// Validate checks time ordering and structural sanity.
func (t *Trace) Validate() error {
	var last sim.Time
	for i, r := range t.Records {
		if err := CheckRecord(t.Name, int64(i), r, last); err != nil {
			return err
		}
		last = r.Time
	}
	return nil
}

// CheckRecord applies Validate's checks to record i of the trace
// called name, whose predecessor arrived at last (zero for the first),
// so a streaming scan reports violations in Validate's words.
func CheckRecord(name string, i int64, r Record, last sim.Time) error {
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

// Merge combines several traces into one time-ordered trace.
func Merge(name string, traces ...*Trace) *Trace {
	out := &Trace{Name: name}
	n := 0
	for _, tr := range traces {
		n += len(tr.Records)
	}
	out.Records = make([]Record, 0, n)
	for _, tr := range traces {
		out.Records = append(out.Records, tr.Records...)
	}
	out.SortByTime()
	return out
}

// Clip returns a shallow copy containing only records with Time < end.
func (t *Trace) Clip(end sim.Time) *Trace {
	i := sort.Search(len(t.Records), func(i int) bool { return t.Records[i].Time >= end })
	return &Trace{Name: t.Name, Records: t.Records[:i]}
}

const (
	binaryMagic   = uint32(0x444d4154) // "DMAT"
	binaryVersion = uint16(1)
	recordSize    = 8 + 1 + 1 + 1 + 2 + 4 // Time,Kind,Source,Bus,Pages,Page
)

// WriteBinary encodes the trace in the compact binary format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [14]byte
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[6:], uint64(len(t.Records)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [recordSize]byte
	for _, r := range t.Records {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Time))
		buf[8] = byte(r.Kind)
		buf[9] = byte(r.Source)
		buf[10] = r.Bus
		binary.LittleEndian.PutUint16(buf[11:], r.Pages)
		binary.LittleEndian.PutUint32(buf[13:], uint32(r.Page))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var hdr [14]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != binaryMagic {
		return nil, errors.New("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[6:])
	const maxRecords = 1 << 31
	if n > maxRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", n)
	}
	tr := &Trace{Records: make([]Record, n)}
	var buf [recordSize]byte
	for i := range tr.Records {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		tr.Records[i] = Record{
			Time:   sim.Time(binary.LittleEndian.Uint64(buf[0:])),
			Kind:   Kind(buf[8]),
			Source: Source(buf[9]),
			Bus:    buf[10],
			Pages:  binary.LittleEndian.Uint16(buf[11:]),
			Page:   memsys.PageID(binary.LittleEndian.Uint32(buf[13:])),
		}
	}
	return tr, nil
}

// WriteText encodes the trace as one whitespace-separated line per
// record: time_ps kind source bus pages page.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(bw, "%d %s %s %d %d %d\n",
			int64(r.Time), r.Kind, r.Source, r.Bus, r.Pages, int32(r.Page)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes the format written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		var (
			ts                int64
			kindS, srcS       string
			busV, pagesV, pgV int64
		)
		if _, err := fmt.Sscanf(line, "%d %s %s %d %d %d",
			&ts, &kindS, &srcS, &busV, &pagesV, &pgV); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		k, err := parseKind(kindS)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		s, err := parseSource(srcS)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		tr.Records = append(tr.Records, Record{
			Time: sim.Time(ts), Kind: k, Source: s,
			Bus: uint8(busV), Pages: uint16(pagesV), Page: memsys.PageID(pgV),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

func parseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

func parseSource(s string) (Source, error) {
	for src := Source(0); src < numSources; src++ {
		if sourceNames[src] == s {
			return src, nil
		}
	}
	return 0, fmt.Errorf("unknown source %q", s)
}
