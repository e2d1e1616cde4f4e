package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// randomTrace builds a time-ordered trace of n records whose DMA share
// varies per seed, from DMA-only down to long processor-only runs, so
// some chunks hold no DMA record at all.
func randomTrace(rng *rand.Rand, n int) *Trace {
	tr := &Trace{Name: "random"}
	dmaShare := []float64{1, 0.5, 0.1, 0.02}[rng.Intn(4)]
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			t = t.Add(sim.Duration(1 + rng.Intn(1000)))
		}
		r := Record{Time: t, Page: memsys.PageID(rng.Intn(4096))}
		if rng.Float64() < dmaShare {
			r.Kind, r.Source, r.Pages = DMAWrite, SrcDisk, uint16(1+rng.Intn(8))
		} else {
			r.Kind, r.Source = ProcRead, SrcProcessor
		}
		tr.Records = append(tr.Records, r)
	}
	return tr
}

// TestCursorCheck pins checking cursors: over a slice and over .dmt
// streams of several chunk sizes, a valid trace streams whole, and a
// bad one fails with the same error in checkRecord's words, a malformed
// record anywhere winning over an earlier one outside the page bound.
// Without Check the codec's zero-page DMA streams like any record.
func TestCursorCheck(t *testing.T) {
	const limit = 5000 // randomTrace's pages stay below 4096+8
	base := randomTrace(rand.New(rand.NewSource(3)), 2*sliceCheckBlock+100)
	edited := func(edit func(rs []Record)) *Trace {
		tr := &Trace{Name: base.Name, Records: append([]Record(nil), base.Records...)}
		edit(tr.Records)
		return tr
	}
	zeroPage := func(rs []Record, i int) { rs[i].Kind, rs[i].Pages = DMAWrite, 0 }
	outside := func(rs []Record, i int) { rs[i].Kind, rs[i].Pages, rs[i].Page = DMARead, 4, limit-1 }
	late := 2*sliceCheckBlock + 50
	disorder := edited(func(rs []Record) { rs[sliceCheckBlock].Time = rs[sliceCheckBlock-1].Time - 1 })
	cases := []struct {
		name string
		tr   *Trace
		want string
	}{
		{"valid", base, ""},
		{"zero-page", edited(func(rs []Record) { zeroPage(rs, late) }),
			fmt.Sprintf(`trace "random": record %d is a zero-page DMA`, late)},
		{"outside only", edited(func(rs []Record) { outside(rs, 10) }),
			fmt.Sprintf("record 10 touches pages [%d,%d) outside memory of %d pages", limit-1, limit+3, limit)},
		{"zero-page blocks after outside", edited(func(rs []Record) { outside(rs, 10); zeroPage(rs, late) }),
			fmt.Sprintf(`trace "random": record %d is a zero-page DMA`, late)},
		// Disorder cannot be written to a .dmt, so only the slice sees it:
		// at a block boundary, against the previous block's last record.
		{"disorder", disorder, fmt.Sprintf(`trace "random": record %d at %v before predecessor at %v`,
			sliceCheckBlock, disorder.Records[sliceCheckBlock].Time, disorder.Records[sliceCheckBlock-1].Time)},
	}
	for _, tc := range cases {
		for _, chunk := range []int{0, 8, 4096, defaultChunkRecords} { // 0: slice-backed
			if chunk > 0 && tc.tr == disorder {
				continue
			}
			cur := tc.tr.Cursor()
			if chunk > 0 {
				data := encodeDMT(t, tc.tr, WriterOptions{ChunkRecords: chunk})
				r, err := NewReader(newByteReaderAt(data), int64(len(data)))
				if err != nil {
					t.Fatal(err)
				}
				cur = r.Cursor()
			}
			cur.Check(limit)
			n := 0
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				n++
			}
			err := cur.Err()
			switch {
			case tc.want == "" && (err != nil || n != len(tc.tr.Records)):
				t.Errorf("%s chunk %d: served %d of %d records, err %v", tc.name, chunk, n, len(tc.tr.Records), err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Errorf("%s chunk %d: err %v, want %s", tc.name, chunk, err, tc.want)
			}
			var re *PageRangeError
			if errors.As(err, &re) != strings.HasPrefix(tc.name, "outside") {
				t.Errorf("%s chunk %d: %v is a *PageRangeError: %v", tc.name, chunk, err, re != nil)
			}
		}
	}
	unchecked := cases[1].tr.Cursor()
	n := 0
	for _, ok := unchecked.Next(); ok; _, ok = unchecked.Next() {
		n++
	}
	if n != len(base.Records) || unchecked.Err() != nil {
		t.Fatalf("unchecked cursor served %d of %d records, err %v", n, len(base.Records), unchecked.Err())
	}
}

// TestSliceCursorYieldsRecords pins the slice-backed cursor: it yields
// exactly the trace's records, in order, and Err stays nil.
func TestSliceCursorYieldsRecords(t *testing.T) {
	tr := testTrace(1000)
	var got []Record
	cur := tr.Cursor()
	for {
		r, ok := cur.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if cur.Err() != nil {
		t.Fatalf("Err = %v, want nil", cur.Err())
	}
	if !reflect.DeepEqual(got, tr.Records) {
		t.Fatal("slice-backed cursor does not yield the trace's records")
	}
	if _, ok := (&Trace{}).Cursor().Peek(); ok {
		t.Fatal("empty slice-backed cursor yields a record")
	}
}

// BenchmarkCursorDecode streams a 64k-record container (one default
// chunk) through a fresh cursor per iteration: the .dmt decode layer's
// cost per record, including the per-cursor buffers.
func BenchmarkCursorDecode(b *testing.B) {
	tr := testTrace(1 << 16)
	var buf bytes.Buffer
	if err := tr.WriteDMT(&buf, WriterOptions{}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(newByteReaderAt(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := r.Cursor()
		n := 0
		for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			n++
		}
		if cur.Err() != nil || n != len(tr.Records) {
			b.Fatalf("decoded %d of %d records: %v", n, len(tr.Records), cur.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.Records)), "ns/record")
}
