// The .dmt container: a compact binary columnar trace format for
// hour-scale traces that never fit in memory. docs/TRACE_FORMAT.md is
// the normative byte-level specification; this file is its reference
// implementation. The format is designed around two constraints:
//
//   - Writers stream. A generator appends records one at a time to a
//     plain io.Writer and only ever holds one chunk of records; totals
//     live in a footer, so nothing is patched retroactively and the
//     sink never needs to seek.
//   - Readers stream. A Cursor decodes one chunk at a time into a
//     reused buffer (one raw chunk block plus one decoded chunk are
//     resident, never more), so replaying a 100x-longer trace costs
//     the same memory as a short one.
//
// Records are stored column-wise per chunk: arrival times as uvarint
// deltas (the dominant column compresses from 8 bytes to typically 2-3
// per record), the remaining fields as fixed-width little-endian
// columns. A CRC-32C over everything before the footer and per-field
// range checks make truncated, corrupted and version-skewed files loud
// errors rather than quiet misreads.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// Container-level constants. See docs/TRACE_FORMAT.md for the
// normative layout; the decoder and the document must agree byte for
// byte (TestDMTSpecExample pins the worked example from the doc).
const (
	// defaultChunkRecords is the writer's default chunk capacity:
	// 65536 records per chunk is ~0.8 MB encoded, small enough that
	// two resident chunk buffers are negligible and large enough that
	// chunk framing overhead vanishes.
	defaultChunkRecords = 1 << 16
	// MaxChunkRecords bounds the per-chunk record count a reader will
	// accept, which in turn bounds the decode buffer a hostile header
	// can demand.
	MaxChunkRecords = 1 << 22
	// maxTraceName bounds the trace name carried in the header.
	maxTraceName = 1 << 12

	dmtVersion     = 1
	dmtHeaderFixed = 14 // magic + version + headerLen + chunkRecords + nameLen
	dmtChunkHeader = 16 // count + payloadLen + baseTime
	dmtFooterSize  = 64

	// Encoded bytes per record: the five fixed-width columns cost
	// 1+1+1+2+4 = 9 bytes, the time delta 1..10 varint bytes.
	dmtMinRecordBytes = 9 + 1
	dmtMaxRecordBytes = 9 + binary.MaxVarintLen64
)

var (
	dmtMagic   = [4]byte{'D', 'M', 'T', 'c'} // "DMA Memory Trace, columnar"
	dmtTrailer = [4]byte{'c', 'T', 'M', 'D'} // footer end marker (magic reversed)

	// crcTable is the CRC-32C (Castagnoli) table the container's
	// integrity checksum uses.
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// errDMTFormat is wrapped by every malformed-container error the .dmt
// decoder returns, so callers can distinguish "this is not a valid
// .dmt file" from I/O failures with errors.Is.
var errDMTFormat = errors.New("malformed .dmt container")

func dmtErrf(format string, args ...any) error {
	return fmt.Errorf("trace: %w: "+format, append([]any{errDMTFormat}, args...)...)
}

// isDMT reports whether b begins with the .dmt container magic. Four
// bytes suffice; shorter prefixes report false.
func isDMT(b []byte) bool {
	return len(b) >= 4 && b[0] == dmtMagic[0] && b[1] == dmtMagic[1] &&
		b[2] == dmtMagic[2] && b[3] == dmtMagic[3]
}

// FileSummary is the .dmt container's self-description: the header's
// identity fields plus the footer's totals. Reading it costs two small
// reads at the ends of the file, never a scan, so tooling can describe
// an hour-scale trace instantly and the simulator can size its run
// (meter window, warm-up split, CP-Limit calibration) before streaming
// a single record.
type FileSummary struct {
	// Name is the trace label carried in the header.
	Name string
	// ChunkRecords is the writer's chunk capacity: every chunk but the
	// last holds exactly this many records.
	ChunkRecords int
	// Records is the total record count.
	Records int64
	// Chunks is the number of chunk blocks.
	Chunks int64
	// Duration is the timestamp of the last record (the span the trace
	// covers, matching Trace.Duration).
	Duration sim.Duration
	// DMATransfers and DMAPages total the DMA records and the pages
	// they move; their ratio is the mean transfer size the CP-Limit
	// calibration needs, so calibrating against a file never scans it.
	DMATransfers int64
	DMAPages     int64
	// Meta is the workload-level context (client response time,
	// transfers per request), as on an in-memory Trace.
	Meta Meta
}

// Summary describes an in-memory trace the way a .dmt footer
// describes a container — name, metadata, record and DMA totals and
// duration — in one pass with no per-page state, so both record
// sources calibrate from the same totals. The chunk fields stay zero.
func (t *Trace) Summary() FileSummary {
	s := FileSummary{Name: t.Name, Records: int64(len(t.Records)), Duration: t.Duration(), Meta: t.Meta}
	for _, r := range t.Records {
		if r.Kind.IsDMA() {
			s.DMATransfers++
			s.DMAPages += int64(r.Pages)
		}
	}
	return s
}

// MeanTransferPages returns the average DMA transfer size in pages,
// computed exactly as Stats.MeanTransferPages does.
func (s FileSummary) MeanTransferPages() float64 {
	if s.DMATransfers == 0 {
		return 0
	}
	return float64(s.DMAPages) / float64(s.DMATransfers)
}

// WriterOptions parameterizes a .dmt Writer.
type WriterOptions struct {
	// ChunkRecords is the number of records per chunk; 0 selects
	// defaultChunkRecords. It bounds both the writer's and every
	// future reader's resident memory.
	ChunkRecords int
}

// Writer streams records into a .dmt container. It buffers at most one
// chunk of records; Append never touches earlier chunks, so a
// generator can emit an arbitrarily long trace through a Writer in
// constant memory. The sink only needs io.Writer — totals go in the
// footer, nothing is rewritten.
//
// Records must be appended in nondecreasing time order (the format
// stores time deltas as unsigned varints, so disorder is
// unrepresentable); a violation is a loud error and the writer stays
// usable for the records already accepted. Close flushes the last
// chunk and writes the end marker and footer; a Writer that is never
// Closed leaves a truncated container that readers reject.
type Writer struct {
	bw  *bufio.Writer
	crc uint32

	chunkRecords int
	pend         []Record
	scratch      []byte

	prevTime sim.Time
	// chunkBase is the timestamp of the last record of the last flushed
	// chunk: the delta base the next chunk encodes against (0 before the
	// first chunk).
	chunkBase    sim.Time
	records      int64
	chunks       int64
	dmaTransfers int64
	dmaPages     int64
	meta         Meta

	closed bool
	err    error
}

// NewWriter writes the container header for a trace called name and
// returns a streaming writer. The name is limited to maxTraceName
// bytes; opt.ChunkRecords to (0, MaxChunkRecords].
func NewWriter(w io.Writer, name string, opt WriterOptions) (*Writer, error) {
	cr := opt.ChunkRecords
	if cr == 0 {
		cr = defaultChunkRecords
	}
	if cr < 0 || cr > MaxChunkRecords {
		return nil, fmt.Errorf("trace: chunk size %d outside (0, %d]", cr, MaxChunkRecords)
	}
	if len(name) > maxTraceName {
		return nil, fmt.Errorf("trace: name of %d bytes exceeds %d", len(name), maxTraceName)
	}
	wr := &Writer{
		bw:           bufio.NewWriter(w),
		chunkRecords: cr,
		pend:         make([]Record, 0, cr),
	}
	hdr := make([]byte, dmtHeaderFixed+len(name))
	copy(hdr[0:4], dmtMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], dmtVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(dmtHeaderFixed+len(name)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(cr))
	binary.LittleEndian.PutUint16(hdr[12:14], uint16(len(name)))
	copy(hdr[dmtHeaderFixed:], name)
	if err := wr.write(hdr); err != nil {
		return nil, err
	}
	return wr, nil
}

// write sends bytes that are covered by the footer checksum.
func (w *Writer) write(b []byte) error {
	w.crc = crc32.Update(w.crc, crcTable, b)
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return err
	}
	return nil
}

// SetMeta records the workload-level context stored in the footer. It
// may be called at any time before Close; the last call wins.
func (w *Writer) SetMeta(m Meta) { w.meta = m }

// Append adds one record to the container, flushing a full chunk to
// the sink. Records must arrive in nondecreasing time order with a
// valid kind, source and nonnegative page; violations are errors and
// leave the container exactly as it was.
func (w *Writer) Append(r Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: append to closed .dmt writer")
	}
	if r.Time < w.prevTime {
		return fmt.Errorf("trace: record at %v before predecessor at %v; .dmt traces are appended in time order",
			r.Time, w.prevTime)
	}
	if r.Kind >= numKinds {
		return fmt.Errorf("trace: record has invalid kind %d", r.Kind)
	}
	if r.Source >= numSources {
		return fmt.Errorf("trace: record has invalid source %d", r.Source)
	}
	if r.Page < 0 {
		return fmt.Errorf("trace: record has negative page %d", r.Page)
	}
	w.pend = append(w.pend, r)
	w.prevTime = r.Time
	w.records++
	if r.Kind.IsDMA() {
		w.dmaTransfers++
		w.dmaPages += int64(r.Pages)
	}
	if len(w.pend) == w.chunkRecords {
		return w.flushChunk()
	}
	return nil
}

// flushChunk encodes the pending records as one columnar chunk block
// and writes it. The scratch buffer is reused across chunks.
func (w *Writer) flushChunk() error {
	n := len(w.pend)
	if n == 0 {
		return nil
	}
	if cap(w.scratch) < dmtChunkHeader+n*dmtMaxRecordBytes {
		w.scratch = make([]byte, dmtChunkHeader+n*dmtMaxRecordBytes)
	}
	buf := w.scratch[:dmtChunkHeader]
	// Column 1: time deltas, uvarint, against the previous chunk's last
	// timestamp (0 for the first chunk).
	base := w.chunkBase
	prev := base
	for _, r := range w.pend {
		var tmp [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(tmp[:], uint64(r.Time-prev))
		buf = append(buf, tmp[:k]...)
		prev = r.Time
	}
	// Columns 2-4: kind, source, bus — one byte each.
	for _, r := range w.pend {
		buf = append(buf, byte(r.Kind))
	}
	for _, r := range w.pend {
		buf = append(buf, byte(r.Source))
	}
	for _, r := range w.pend {
		buf = append(buf, r.Bus)
	}
	// Column 5: pages, uint16 LE.
	for _, r := range w.pend {
		buf = append(buf, byte(r.Pages), byte(r.Pages>>8))
	}
	// Column 6: page, uint32 LE.
	for _, r := range w.pend {
		p := uint32(r.Page)
		buf = append(buf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(buf)-dmtChunkHeader))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(base))
	w.scratch = buf[:0]
	w.chunks++
	w.chunkBase = prev
	w.pend = w.pend[:0]
	return w.write(buf)
}

// Close flushes the final partial chunk, writes the end-of-chunks
// marker and the footer, and flushes the sink's buffer. The underlying
// writer is not closed. Close is idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	var end [4]byte // chunk count 0: end of chunks
	if err := w.write(end[:]); err != nil {
		return err
	}
	var ftr [dmtFooterSize]byte
	binary.LittleEndian.PutUint64(ftr[0:8], uint64(w.records))
	binary.LittleEndian.PutUint64(ftr[8:16], uint64(w.chunks))
	binary.LittleEndian.PutUint64(ftr[16:24], uint64(w.prevTime))
	binary.LittleEndian.PutUint64(ftr[24:32], uint64(w.dmaTransfers))
	binary.LittleEndian.PutUint64(ftr[32:40], uint64(w.dmaPages))
	binary.LittleEndian.PutUint64(ftr[40:48], uint64(w.meta.MeanClientResponse))
	binary.LittleEndian.PutUint64(ftr[48:56], math.Float64bits(w.meta.TransfersPerClientRequest))
	binary.LittleEndian.PutUint32(ftr[56:60], w.crc)
	copy(ftr[60:64], dmtTrailer[:])
	if _, err := w.bw.Write(ftr[:]); err != nil { // footer is outside the checksum
		w.err = err
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// WriteDMT encodes the whole in-memory trace as a .dmt container —
// the one-shot convenience over NewWriter/Append/Close.
func (t *Trace) WriteDMT(w io.Writer, opt WriterOptions) error {
	wr, err := NewWriter(w, t.Name, opt)
	if err != nil {
		return err
	}
	wr.SetMeta(t.Meta)
	for _, r := range t.Records {
		if err := wr.Append(r); err != nil {
			return err
		}
	}
	return wr.Close()
}

// Reader opens a .dmt container over a random-access byte source. It
// parses the header and footer eagerly (two small reads) and hands
// out sequential Cursors for the chunk stream; the records themselves
// are never materialized by the Reader.
type Reader struct {
	ra      io.ReaderAt
	size    int64
	hdrLen  int
	sum     FileSummary
	crcWant uint32
}

// NewReader parses the header and footer of a .dmt container stored
// in ra (size bytes). Malformed containers — bad magic, unsupported
// version, truncation past either end — fail here with an error
// wrapping errDMTFormat.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < dmtHeaderFixed+4+dmtFooterSize {
		return nil, dmtErrf("%d bytes is too small for a header, end marker and footer", size)
	}
	var fixed [dmtHeaderFixed]byte
	if _, err := ra.ReadAt(fixed[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading .dmt header: %w", err)
	}
	if !isDMT(fixed[:]) {
		return nil, dmtErrf("bad magic %q", fixed[0:4])
	}
	if v := binary.LittleEndian.Uint16(fixed[4:6]); v != dmtVersion {
		return nil, dmtErrf("unsupported version %d (this reader speaks version %d)", v, dmtVersion)
	}
	hdrLen := int(binary.LittleEndian.Uint16(fixed[6:8]))
	chunkRecords := int(binary.LittleEndian.Uint32(fixed[8:12]))
	nameLen := int(binary.LittleEndian.Uint16(fixed[12:14]))
	if chunkRecords <= 0 || chunkRecords > MaxChunkRecords {
		return nil, dmtErrf("chunk size %d outside (0, %d]", chunkRecords, MaxChunkRecords)
	}
	if nameLen > maxTraceName {
		return nil, dmtErrf("name of %d bytes exceeds %d", nameLen, maxTraceName)
	}
	// Forward compatibility: within version 1 the header may grow
	// additional fields after the name; headerLen locates the first
	// chunk regardless.
	if hdrLen < dmtHeaderFixed+nameLen || int64(hdrLen) > size-4-dmtFooterSize {
		return nil, dmtErrf("header length %d inconsistent with name length %d and file size %d", hdrLen, nameLen, size)
	}
	name := make([]byte, nameLen)
	if _, err := ra.ReadAt(name, dmtHeaderFixed); err != nil {
		return nil, fmt.Errorf("trace: reading .dmt name: %w", err)
	}

	var ftr [dmtFooterSize]byte
	if _, err := ra.ReadAt(ftr[:], size-dmtFooterSize); err != nil {
		return nil, fmt.Errorf("trace: reading .dmt footer: %w", err)
	}
	if [4]byte(ftr[60:64]) != dmtTrailer {
		return nil, dmtErrf("bad footer trailer %q (file truncated or not closed?)", ftr[60:64])
	}
	records := int64(binary.LittleEndian.Uint64(ftr[0:8]))
	chunks := int64(binary.LittleEndian.Uint64(ftr[8:16]))
	lastTime := int64(binary.LittleEndian.Uint64(ftr[16:24]))
	dmaTransfers := int64(binary.LittleEndian.Uint64(ftr[24:32]))
	dmaPages := int64(binary.LittleEndian.Uint64(ftr[32:40]))
	if records < 0 || chunks < 0 || lastTime < 0 || dmaTransfers < 0 || dmaPages < 0 {
		return nil, dmtErrf("footer totals out of range")
	}
	if dmaTransfers > records || chunks > records && records > 0 {
		return nil, dmtErrf("footer totals inconsistent: %d chunks, %d dma of %d records", chunks, dmaTransfers, records)
	}
	r := &Reader{
		ra:     ra,
		size:   size,
		hdrLen: hdrLen,
		sum: FileSummary{
			Name:         string(name),
			ChunkRecords: chunkRecords,
			Records:      records,
			Chunks:       chunks,
			Duration:     sim.Duration(lastTime),
			DMATransfers: dmaTransfers,
			DMAPages:     dmaPages,
			Meta: Meta{
				MeanClientResponse:        sim.Duration(binary.LittleEndian.Uint64(ftr[40:48])),
				TransfersPerClientRequest: math.Float64frombits(binary.LittleEndian.Uint64(ftr[48:56])),
			},
		},
		crcWant: binary.LittleEndian.Uint32(ftr[56:60]),
	}
	if m := r.sum.Meta; m.MeanClientResponse < 0 ||
		math.IsNaN(m.TransfersPerClientRequest) || math.IsInf(m.TransfersPerClientRequest, 0) || m.TransfersPerClientRequest < 0 {
		return nil, dmtErrf("footer metadata out of range")
	}
	return r, nil
}

// Summary returns the container's self-description.
func (r *Reader) Summary() FileSummary { return r.sum }

// Cursor returns a fresh sequential cursor positioned before the
// first record. Cursors are independent: several may stream the same
// Reader (each owns its buffers), but an individual Cursor is
// single-goroutine like everything else in the simulator.
func (r *Reader) Cursor() *Cursor {
	return &Cursor{
		r:    r,
		br:   bufio.NewReaderSize(io.NewSectionReader(r.ra, 0, r.size-dmtFooterSize), 1<<16),
		name: r.sum.Name,
	}
}

// Cursor streams trace records in order. It is the simulator's one
// record source: over a .dmt container (Reader.Cursor) it holds one
// chunk resident at a time — a raw chunk block and its decoded records
// are the only per-cursor buffers, both reused across chunks, so
// memory stays flat no matter how long the trace is — and over records
// already in memory (Trace.Cursor) the slice itself is its single
// resident chunk. The container checksum is accumulated as chunks
// stream by and verified against the footer when the end marker is
// reached; any malformed byte turns into Err. A cursor the simulator
// replays also validates each record as it serves it (see Check).
type Cursor struct {
	r   *Reader // nil for a slice-backed cursor
	br  *bufio.Reader
	crc uint32

	buf []Record // decoded current chunk
	idx int
	raw []byte               // reused raw chunk payload
	hdr [dmtChunkHeader]byte // reused chunk-header scratch (kept on the
	// cursor so reading through the io.ReadFull interface cannot make
	// it escape per chunk)

	// Record validation (Check). name labels checkRecord's errors and
	// limit is the page bound. A checking slice cursor keeps its records
	// in all and serves them through buf, the prefix checked so far;
	// rangeErr holds the first out-of-bound record while the rest of the
	// trace is scanned for a malformed one, which wins over it.
	check    bool
	name     string
	limit    memsys.PageID
	all      []Record
	rangeErr error

	prevTime   sim.Time
	records    int64
	chunks     int64
	skippedHdr bool
	done       bool
	err        error
}

// Cursor returns a cursor whose single resident chunk is the trace's
// records: no decoding and no further chunks, so Err stays nil unless
// Check is set and a record fails it. The cursor reads the slice in
// place and never writes to it.
func (t *Trace) Cursor() *Cursor { return &Cursor{buf: t.Records, done: true, name: t.Name} }

// sliceCheckBlock is how many records a checking slice cursor validates
// at a time: few enough that a block is still in cache when served.
const sliceCheckBlock = 4096

// Check makes the cursor validate every record once, as it serves it:
// checkRecord's checks, in its words under the trace's name, and the
// bound that every page a record touches lies below limit. A violation
// becomes Err, and the cursor then serves nothing more, as after a
// malformed chunk. A record outside the bound is reported only once the
// rest of the trace has been scanned, since a malformed record or a
// broken stream anywhere wins over it; that error is a
// *PageRangeError. Call Check before the first read.
func (c *Cursor) Check(limit memsys.PageID) {
	c.check, c.limit = true, limit
	if c.r == nil {
		c.all, c.buf, c.done = c.buf, c.buf[:0], false
	}
}

// PageRangeError is a checking cursor's error for a record that touches
// pages at or beyond its page bound.
type PageRangeError struct {
	Record     int64         // the record's index in the trace
	First, End memsys.PageID // it touches pages [First, End)
	Limit      memsys.PageID // the bound passed to Check
}

func (e *PageRangeError) Error() string {
	return fmt.Sprintf("record %d touches pages [%d,%d) outside memory of %d pages", e.Record, e.First, e.End, e.Limit)
}

// validate applies checkRecord to recs, the records numbered base,
// base+1, ... whose predecessor arrived at last, and returns the first
// violation. The first record outside the page bound is noted in
// rangeErr instead, so the scan goes on.
func (c *Cursor) validate(recs []Record, base int64, last sim.Time) error {
	for i := range recs {
		r := &recs[i]
		end := r.Page + 1
		if r.Kind.IsDMA() {
			end = r.Page + memsys.PageID(r.Pages)
		}
		if r.Time < last || r.Kind >= numKinds || r.Kind.IsDMA() && r.Pages == 0 || r.Page < 0 || end > c.limit {
			if err := checkRecord(c.name, base+int64(i), *r, last); err != nil {
				return err
			}
			if c.rangeErr == nil {
				c.rangeErr = &PageRangeError{Record: base + int64(i), First: r.Page, End: end, Limit: c.limit}
			}
		}
		last = r.Time
	}
	return nil
}

// Err returns the first error the cursor hit: nil while healthy and
// after a clean end of trace, non-nil after an I/O failure or a
// malformed container (wrapping errDMTFormat). Once Err is non-nil,
// Peek reports no more records.
func (c *Cursor) Err() error { return c.err }

// Peek returns the next record without consuming it. ok=false means
// the trace ended cleanly or the cursor failed — check Err to
// distinguish.
func (c *Cursor) Peek() (Record, bool) {
	if c.idx < len(c.buf) || c.fill() {
		return c.buf[c.idx], true
	}
	return Record{}, false
}

// NextTime reports the time of the record Peek would return: the
// cheap probe a consumer makes before every step, without copying the
// record out.
func (c *Cursor) NextTime() (sim.Time, bool) {
	if c.idx < len(c.buf) || c.fill() {
		return c.buf[c.idx].Time, true
	}
	return 0, false
}

// Advance consumes the record Peek returned. Advancing past the end is
// a programming error and panics.
func (c *Cursor) Advance() {
	if c.idx >= len(c.buf) {
		panic("trace: Cursor.Advance past end")
	}
	c.idx++
}

// Next consumes and returns the next record: the Peek/Advance pair for
// plain loops. ok follows Peek's contract.
func (c *Cursor) Next() (Record, bool) {
	r, ok := c.Peek()
	if ok {
		c.idx++
	}
	return r, ok
}

// read fills b fully from the chunk stream, folding the bytes into
// the running checksum.
func (c *Cursor) read(b []byte) error {
	if _, err := io.ReadFull(c.br, b); err != nil {
		return err
	}
	c.crc = crc32.Update(c.crc, crcTable, b)
	return nil
}

// fill is Peek's slow path, out of line so that Peek inlines into the
// per-record loops of its callers: once the resident chunk is consumed
// it decodes the next chunk block into c.buf, or finishes the stream at
// the end marker (verifying totals and checksum against the footer),
// and reports whether a record is now resident. A checking slice
// cursor instead extends c.buf by the next checked block. On any
// failure it records c.err and leaves the cursor empty.
func (c *Cursor) fill() bool {
	if c.done || c.err != nil {
		return false
	}
	if c.r == nil {
		return c.extend()
	}
	err := c.load()
	for err == nil && c.rangeErr != nil && !c.done {
		err = c.load()
	}
	if err == nil && c.rangeErr != nil {
		err = c.rangeErr
	}
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = dmtErrf("chunk stream truncated after %d records: %v", c.records, err)
		}
		c.fail(err)
	}
	return c.idx < len(c.buf)
}

// extend checks the next block of a checking slice cursor's records and
// appends it to the served prefix. After a range violation it checks the
// rest of the records too, for a malformed one that wins over it.
func (c *Cursor) extend() bool {
	hi := len(c.buf)
	if hi == len(c.all) {
		c.done = true
		return false
	}
	n := min(len(c.all)-hi, sliceCheckBlock)
	last := sim.Time(0)
	if hi > 0 {
		last = c.all[hi-1].Time
	}
	err := c.validate(c.all[hi:hi+n], int64(hi), last)
	if err == nil && c.rangeErr != nil {
		if err = c.validate(c.all[hi+n:], int64(hi+n), c.all[hi+n-1].Time); err == nil {
			err = c.rangeErr
		}
	}
	if err != nil {
		c.fail(err)
		return false
	}
	c.buf = c.all[:hi+n]
	return true
}

// fail records err and empties the cursor.
func (c *Cursor) fail(err error) {
	c.err = err
	c.buf, c.idx = nil, 0
}

func (c *Cursor) load() error {
	if !c.skippedHdr {
		// Hash the header region so the checksum covers the whole
		// container body, then position at the first chunk.
		hdr := make([]byte, c.r.hdrLen)
		if err := c.read(hdr); err != nil {
			return err
		}
		c.skippedHdr = true
	}
	if err := c.read(c.hdr[:4]); err != nil {
		return err
	}
	count := int(binary.LittleEndian.Uint32(c.hdr[0:4]))
	if count == 0 {
		return c.finish()
	}
	if err := c.read(c.hdr[4:]); err != nil {
		return err
	}
	payloadLen := int64(binary.LittleEndian.Uint32(c.hdr[4:8]))
	base := sim.Time(binary.LittleEndian.Uint64(c.hdr[8:16]))
	if count > c.r.sum.ChunkRecords {
		return dmtErrf("chunk %d holds %d records, above the header's chunk size %d", c.chunks, count, c.r.sum.ChunkRecords)
	}
	if base != c.prevTime {
		return dmtErrf("chunk %d base time %d does not continue from %d", c.chunks, int64(base), int64(c.prevTime))
	}
	if payloadLen < int64(count)*dmtMinRecordBytes || payloadLen > int64(count)*dmtMaxRecordBytes {
		return dmtErrf("chunk %d payload of %d bytes outside [%d, %d] for %d records",
			c.chunks, payloadLen, int64(count)*dmtMinRecordBytes, int64(count)*dmtMaxRecordBytes, count)
	}
	if cap(c.raw) < int(payloadLen) {
		c.raw = make([]byte, payloadLen)
	}
	c.raw = c.raw[:payloadLen]
	if err := c.read(c.raw); err != nil {
		return err
	}
	if cap(c.buf) < count {
		c.buf = make([]Record, count)
	}
	c.buf = c.buf[:count]
	c.idx = 0

	// Column 1: time deltas.
	o := 0
	prev := base
	for i := 0; i < count; i++ {
		v, n := binary.Uvarint(c.raw[o:])
		if n <= 0 {
			return dmtErrf("chunk %d: record %d: bad time varint", c.chunks, i)
		}
		o += n
		if v > uint64(math.MaxInt64) || int64(prev) > math.MaxInt64-int64(v) {
			return dmtErrf("chunk %d: record %d: time overflow", c.chunks, i)
		}
		prev += sim.Time(v)
		c.buf[i].Time = prev
	}
	// Columns 2-6: fixed width.
	need := count * (dmtMinRecordBytes - 1)
	if len(c.raw)-o != need {
		return dmtErrf("chunk %d: %d column bytes after the time column, want %d", c.chunks, len(c.raw)-o, need)
	}
	for i := 0; i < count; i++ {
		k := Kind(c.raw[o+i])
		if k >= numKinds {
			return dmtErrf("chunk %d: record %d: invalid kind %d", c.chunks, i, k)
		}
		c.buf[i].Kind = k
	}
	o += count
	for i := 0; i < count; i++ {
		s := Source(c.raw[o+i])
		if s >= numSources {
			return dmtErrf("chunk %d: record %d: invalid source %d", c.chunks, i, s)
		}
		c.buf[i].Source = s
	}
	o += count
	for i := 0; i < count; i++ {
		c.buf[i].Bus = c.raw[o+i]
	}
	o += count
	for i := 0; i < count; i++ {
		c.buf[i].Pages = binary.LittleEndian.Uint16(c.raw[o+2*i:])
	}
	o += 2 * count
	for i := 0; i < count; i++ {
		p := binary.LittleEndian.Uint32(c.raw[o+4*i:])
		if p > math.MaxInt32 {
			return dmtErrf("chunk %d: record %d: page %d out of range", c.chunks, i, p)
		}
		c.buf[i].Page = memsys.PageID(p)
	}
	if c.check {
		if err := c.validate(c.buf, c.records, c.prevTime); err != nil {
			return err
		}
	}

	c.prevTime = prev
	c.records += int64(count)
	c.chunks++
	return nil
}

// finish validates the end of the stream against the footer.
func (c *Cursor) finish() error {
	if _, err := c.br.ReadByte(); err != io.EOF {
		if err != nil {
			return err
		}
		return dmtErrf("trailing data after the end-of-chunks marker")
	}
	sum := c.r.sum
	if c.records != sum.Records || c.chunks != sum.Chunks {
		return dmtErrf("stream holds %d records in %d chunks, footer says %d in %d",
			c.records, c.chunks, sum.Records, sum.Chunks)
	}
	if c.records > 0 && c.prevTime != sim.Time(sum.Duration) {
		return dmtErrf("last record at %d, footer says %d", int64(c.prevTime), int64(sum.Duration))
	}
	if c.crc != c.r.crcWant {
		return dmtErrf("checksum mismatch: body %08x, footer %08x", c.crc, c.r.crcWant)
	}
	c.done = true
	c.buf, c.idx = nil, 0
	return nil
}

// FileReader is a Reader over an opened file. Close releases the file;
// Cursors must not be used after Close.
type FileReader struct {
	*Reader
	f *os.File
}

// OpenDMTFile opens a .dmt container on disk and parses its header and
// footer. The caller owns the returned reader and must Close it.
func OpenDMTFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &FileReader{Reader: r, f: f}, nil
}

// Close releases the underlying file.
func (r *FileReader) Close() error { return r.f.Close() }

// DecodeDMT parses a complete .dmt image into an in-memory Trace —
// the inverse of WriteDMT, for small traces and tests. Hour-scale
// traces should stream through a Cursor instead.
func DecodeDMT(data []byte) (*Trace, error) {
	r, err := NewReader(newByteReaderAt(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	sum := r.Summary()
	tr := &Trace{Name: sum.Name, Meta: sum.Meta}
	if sum.Records > 0 && sum.Records <= int64(len(data)) { // each record costs >= dmtMinRecordBytes on disk
		tr.Records = make([]Record, 0, sum.Records)
	}
	cur := r.Cursor()
	for {
		rec, ok := cur.Next()
		if !ok {
			break
		}
		tr.Records = append(tr.Records, rec)
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// newByteReaderAt adapts a byte slice to io.ReaderAt without the
// bytes package's Reader state.
type byteReaderAt []byte

func newByteReaderAt(b []byte) byteReaderAt { return byteReaderAt(b) }

func (b byteReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
