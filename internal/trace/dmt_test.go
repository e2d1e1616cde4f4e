package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// testTrace builds a deterministic trace of n records exercising every
// kind/source combination, repeated timestamps and multi-page DMAs.
func testTrace(n int) *Trace {
	tr := &Trace{Name: "dmt-test"}
	tr.Meta = Meta{MeanClientResponse: sim.Millisecond, TransfersPerClientRequest: 1.5}
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		if i%3 != 0 { // repeated timestamps every third record
			t = t.Add(sim.Duration(1 + i%977*13))
		}
		r := Record{Time: t}
		switch i % 4 {
		case 0:
			r.Kind, r.Source, r.Bus, r.Pages = DMARead, SrcNetwork, uint8(i%3), uint16(1+i%7)
		case 1:
			r.Kind, r.Source, r.Bus, r.Pages = DMAWrite, SrcDisk, uint8(i%5), 1
		case 2:
			r.Kind, r.Source = ProcRead, SrcProcessor
		case 3:
			r.Kind, r.Source = ProcWrite, SrcProcessor
		}
		r.Page = memsys.PageID(i * 37 % 4096)
		tr.Records = append(tr.Records, r)
	}
	return tr
}

func encodeDMT(t *testing.T, tr *Trace, opt WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteDMT(&buf, opt); err != nil {
		t.Fatalf("WriteDMT: %v", err)
	}
	return buf.Bytes()
}

func TestDMTRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		records int
		chunk   int
	}{
		{"empty", 0, 0},
		{"single", 1, 0},
		{"chunk-of-one", 10, 1},
		{"chunk-of-three", 100, 3},
		{"exact-chunk-boundary", 12, 3},
		{"default-chunk", 5000, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := testTrace(tc.records)
			data := encodeDMT(t, tr, WriterOptions{ChunkRecords: tc.chunk})
			if !isDMT(data) {
				t.Fatal("encoded container does not carry the magic")
			}
			got, err := DecodeDMT(data)
			if err != nil {
				t.Fatalf("DecodeDMT: %v", err)
			}
			if got.Name != tr.Name || got.Meta != tr.Meta {
				t.Fatalf("identity changed: %q %+v -> %q %+v", tr.Name, tr.Meta, got.Name, got.Meta)
			}
			if len(got.Records) != len(tr.Records) {
				t.Fatalf("record count %d -> %d", len(tr.Records), len(got.Records))
			}
			for i := range tr.Records {
				if got.Records[i] != tr.Records[i] {
					t.Fatalf("record %d: %+v -> %+v", i, tr.Records[i], got.Records[i])
				}
			}
		})
	}
}

func TestDMTSummary(t *testing.T) {
	tr := testTrace(100)
	data := encodeDMT(t, tr, WriterOptions{ChunkRecords: 7})
	r, err := NewReader(newByteReaderAt(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	sum := r.Summary()
	if sum.Name != "dmt-test" || sum.Records != 100 || sum.ChunkRecords != 7 {
		t.Fatalf("summary identity wrong: %+v", sum)
	}
	if want := int64(100/7) + 1; sum.Chunks != want {
		t.Fatalf("chunks = %d, want %d", sum.Chunks, want)
	}
	if sum.Duration != tr.Duration() {
		t.Fatalf("duration %v, want %v", sum.Duration, tr.Duration())
	}
	st := Analyze(tr)
	if sum.DMATransfers != st.DMATransfers || sum.DMAPages != st.DMAPages {
		t.Fatalf("footer DMA totals (%d, %d) disagree with Analyze (%d, %d)",
			sum.DMATransfers, sum.DMAPages, st.DMATransfers, st.DMAPages)
	}
	if sum.MeanTransferPages() != st.meanTransferPages() {
		t.Fatalf("mean transfer pages %v != %v", sum.MeanTransferPages(), st.meanTransferPages())
	}
	if sum.Meta != tr.Meta {
		t.Fatalf("meta %+v != %+v", sum.Meta, tr.Meta)
	}
}

func TestDMTWriterRejects(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, strings.Repeat("x", maxTraceName+1), WriterOptions{}); err == nil {
		t.Fatal("oversized name accepted")
	}
	if _, err := NewWriter(&buf, "t", WriterOptions{ChunkRecords: MaxChunkRecords + 1}); err == nil {
		t.Fatal("oversized chunk accepted")
	}
	w, err := NewWriter(&buf, "t", WriterOptions{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.Append(Record{Time: 100, Kind: DMARead, Pages: 1}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append(Record{Time: 50, Kind: DMARead, Pages: 1}); err == nil {
		t.Fatal("time disorder accepted")
	}
	if err := w.Append(Record{Time: 200, Kind: numKinds, Pages: 1}); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if err := w.Append(Record{Time: 200, Kind: DMARead, Source: numSources, Pages: 1}); err == nil {
		t.Fatal("invalid source accepted")
	}
	if err := w.Append(Record{Time: 200, Kind: DMARead, Pages: 1, Page: -1}); err == nil {
		t.Fatal("negative page accepted")
	}
	// The writer must remain usable after rejections.
	if err := w.Append(Record{Time: 200, Kind: ProcRead, Source: SrcProcessor}); err != nil {
		t.Fatalf("Append after rejection: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := DecodeDMT(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeDMT: %v", err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("container holds %d records, want the 2 accepted ones", len(got.Records))
	}
	if err := w.Append(Record{Time: 300}); err == nil {
		t.Fatal("append after Close accepted")
	}
}

// TestDMTRejectsMalformed flips, truncates and lies about bytes of a
// valid container and requires each mutation to be rejected loudly
// (wrapping errDMTFormat), never decoded quietly.
func TestDMTRejectsMalformed(t *testing.T) {
	tr := testTrace(50)
	data := encodeDMT(t, tr, WriterOptions{ChunkRecords: 8})

	mustFail := func(t *testing.T, b []byte, what string) {
		t.Helper()
		if _, err := DecodeDMT(b); err == nil {
			t.Fatalf("%s accepted", what)
		} else if !errors.Is(err, errDMTFormat) {
			t.Fatalf("%s: error %v does not wrap errDMTFormat", what, err)
		}
	}

	t.Run("truncation", func(t *testing.T) {
		// Every strict prefix must fail: truncation can never decode.
		for _, cut := range []int{0, 1, 4, 13, 14, 20, len(data) / 2, len(data) - 65, len(data) - 64, len(data) - 1} {
			if cut < 0 || cut >= len(data) {
				continue
			}
			mustFail(t, data[:cut], "truncated container")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := bytes.Clone(data)
		b[0] = 'X'
		mustFail(t, b, "bad magic")
	})
	t.Run("version-skew", func(t *testing.T) {
		b := bytes.Clone(data)
		b[4] = 2
		_, err := DecodeDMT(b)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("future version accepted or wrong error: %v", err)
		}
	})
	t.Run("corrupt-body", func(t *testing.T) {
		// Flip one payload byte: either a range check or the CRC fires.
		b := bytes.Clone(data)
		b[len(b)/2] ^= 0x40
		mustFail(t, b, "flipped body byte")
	})
	t.Run("corrupt-crc", func(t *testing.T) {
		b := bytes.Clone(data)
		b[len(b)-8] ^= 1 // crc field
		mustFail(t, b, "flipped checksum")
	})
	t.Run("footer-record-count-lie", func(t *testing.T) {
		b := bytes.Clone(data)
		b[len(b)-64]++ // records u64 low byte
		mustFail(t, b, "footer count lie")
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		// Extra bytes between the end marker and footer break the
		// stream/footer agreement.
		b := bytes.Clone(data[:len(data)-64])
		b = append(b, 0xEE)
		b = append(b, data[len(data)-64:]...)
		mustFail(t, b, "trailing garbage")
	})
	t.Run("header-length-lie", func(t *testing.T) {
		b := bytes.Clone(data)
		b[6] = 0 // headerLen < fixed+nameLen
		b[7] = 0
		mustFail(t, b, "undersized header length")
	})
}

// TestDMTHeaderForwardCompat pins the forward-compat rule: a version-1
// header longer than this reader knows about must be skipped via
// headerLen, not rejected.
func TestDMTHeaderForwardCompat(t *testing.T) {
	tr := testTrace(10)
	data := encodeDMT(t, tr, WriterOptions{ChunkRecords: 4})
	hdrLen := int(uint16(data[6]) | uint16(data[7])<<8)
	// Splice 4 unknown bytes after the name and bump headerLen.
	ext := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	b := append(bytes.Clone(data[:hdrLen]), ext...)
	b = append(b, data[hdrLen:]...)
	newLen := uint16(hdrLen + len(ext))
	b[6], b[7] = byte(newLen), byte(newLen>>8)
	// The checksum covers the header, so re-decoding must still verify:
	// recompute it the way a future writer would have.
	fixCRC(b)
	got, err := DecodeDMT(b)
	if err != nil {
		t.Fatalf("extended header rejected: %v", err)
	}
	if len(got.Records) != 10 || got.Name != tr.Name {
		t.Fatalf("extended-header decode lost data: %d records, name %q", len(got.Records), got.Name)
	}
}

// fixCRC recomputes the footer checksum over the body of a (possibly
// mutated) container image — the test's stand-in for a future writer.
func fixCRC(b []byte) {
	crc := crc32.Checksum(b[:len(b)-dmtFooterSize], crcTable)
	binary.LittleEndian.PutUint32(b[len(b)-8:len(b)-4], crc)
}

func TestDMTCursorIndependence(t *testing.T) {
	tr := testTrace(64)
	data := encodeDMT(t, tr, WriterOptions{ChunkRecords: 5})
	r, err := NewReader(newByteReaderAt(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	// Two interleaved cursors must each see the full stream.
	a, b := r.Cursor(), r.Cursor()
	for i := 0; ; i++ {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if oka != okb {
			t.Fatalf("cursors diverged at %d", i)
		}
		if !oka {
			break
		}
		if ra != rb || ra != tr.Records[i] {
			t.Fatalf("record %d: cursor a %+v, b %+v, want %+v", i, ra, rb, tr.Records[i])
		}
	}
	if a.Err() != nil || b.Err() != nil {
		t.Fatalf("cursor errors: %v / %v", a.Err(), b.Err())
	}
}

// TestDMTCursorFlatMemory pins the bounded-memory contract: streaming a
// 16x longer trace through a cursor must not grow the cursor's
// allocations — chunk buffers are reused, records are never
// materialized.
func TestDMTCursorFlatMemory(t *testing.T) {
	scan := func(data []byte) (allocs float64) {
		r, err := NewReader(newByteReaderAt(data), int64(len(data)))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		return testing.AllocsPerRun(1, func() {
			cur := r.Cursor()
			n := 0
			for {
				if _, ok := cur.Next(); !ok {
					break
				}
				n++
			}
			if cur.Err() != nil {
				t.Fatalf("cursor: %v", cur.Err())
			}
		})
	}
	const chunk = 512
	short := encodeDMT(t, testTrace(4*chunk), WriterOptions{ChunkRecords: chunk})
	long := encodeDMT(t, testTrace(64*chunk), WriterOptions{ChunkRecords: chunk})
	a, b := scan(short), scan(long)
	// A full scan allocates the bufio reader plus the two reusable chunk
	// buffers, independent of trace length. Allow slack for varint-width
	// growth of the raw buffer, but a 16x trace must not cost 2x allocs.
	if b > a*2+8 {
		t.Fatalf("allocations grew with trace length: %v for 4 chunks, %v for 64", a, b)
	}
}

// TestDMTSpecExample pins the worked example of docs/TRACE_FORMAT.md:
// the spec's three-record container must encode to exactly the bytes
// the document lists, and decode back to the same records. If this
// test fails, either the format changed (bump the version and rewrite
// the spec) or the document drifted.
func TestDMTSpecExample(t *testing.T) {
	tr := &Trace{
		Name: "ex",
		Meta: Meta{MeanClientResponse: sim.Millisecond, TransfersPerClientRequest: 1},
		Records: []Record{
			{Time: 0, Kind: DMAWrite, Source: SrcNetwork, Bus: 0, Pages: 2, Page: 7},
			{Time: 1500, Kind: DMARead, Source: SrcDisk, Bus: 1, Pages: 1, Page: 300},
			{Time: 1500, Kind: ProcRead, Source: SrcProcessor, Bus: 0, Pages: 0, Page: 7},
		},
	}
	want := []byte{
		// header
		0x44, 0x4d, 0x54, 0x63, 0x01, 0x00, 0x10, 0x00,
		0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x65, 0x78,
		// chunk 1
		0x02, 0x00, 0x00, 0x00, 0x15, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0xdc, 0x0b, 0x01, 0x00, 0x00, 0x01, 0x00,
		0x01, 0x02, 0x00, 0x01, 0x00, 0x07, 0x00, 0x00,
		0x00, 0x2c, 0x01, 0x00, 0x00,
		// chunk 2
		0x01, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
		0xdc, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x02, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00,
		0x00, 0x00,
		// end marker
		0x00, 0x00, 0x00, 0x00,
		// footer
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0xdc, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0xca, 0x9a, 0x3b, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
		0x24, 0x45, 0x25, 0x69,
		0x63, 0x54, 0x4d, 0x44,
	}
	got := encodeDMT(t, tr, WriterOptions{ChunkRecords: 2})
	if !bytes.Equal(got, want) {
		t.Fatalf("spec example encoding drifted from docs/TRACE_FORMAT.md\ngot  %x\nwant %x", got, want)
	}
	dec, err := DecodeDMT(want)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != tr.Name || dec.Meta != tr.Meta || len(dec.Records) != 3 {
		t.Fatalf("decoded %+v", dec)
	}
	for i, r := range dec.Records {
		if r != tr.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, r, tr.Records[i])
		}
	}
}

// TestDMTFileReader exercises the on-disk entry point end to end:
// write a container to a real file, open it with OpenDMTFile, check
// the footer summary, drain it with the Peek/Advance pair, and close.
func TestDMTFileReader(t *testing.T) {
	tr := testTrace(500)
	path := filepath.Join(t.TempDir(), "reader.dmt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteDMT(f, WriterOptions{ChunkRecords: 64}); err != nil {
		t.Fatalf("WriteDMT: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDMTFile(path)
	if err != nil {
		t.Fatalf("OpenDMTFile: %v", err)
	}
	sum := r.Summary()
	if sum.Records != int64(len(tr.Records)) || sum.Name != tr.Name || sum.Meta != tr.Meta {
		t.Fatalf("summary mismatch: %+v", sum)
	}
	cur := r.Cursor()
	for i, want := range tr.Records {
		got, ok := cur.Peek()
		if !ok {
			t.Fatalf("Peek: stream ended at record %d of %d", i, len(tr.Records))
		}
		if got != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
		cur.Advance()
	}
	if _, ok := cur.Peek(); ok {
		t.Fatal("Peek returned a record past the end")
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, err := OpenDMTFile(filepath.Join(t.TempDir(), "missing.dmt")); err == nil {
		t.Fatal("OpenDMTFile on a missing path did not error")
	}
}

// Advancing a drained cursor is a programming error and must panic
// rather than silently repeat or skip records.
func TestDMTAdvancePastEndPanics(t *testing.T) {
	data := encodeDMT(t, testTrace(3), WriterOptions{})
	r, err := NewReader(newByteReaderAt(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	cur := r.Cursor()
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Advance past end did not panic")
		}
	}()
	cur.Advance()
}
