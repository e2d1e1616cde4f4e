package trace

import (
	"bytes"
	"testing"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// dmtSeed builds a small valid container for the fuzz seed corpus.
func dmtSeed(records, chunk int) []byte {
	tr := testTrace(records)
	var buf bytes.Buffer
	if err := tr.WriteDMT(&buf, WriterOptions{ChunkRecords: chunk}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDMTDecode feeds arbitrary bytes to the .dmt container decoder.
// The decoder fronts every file the tools open, so whatever is on disk
// it must fail with an error wrapping errDMTFormat (or an I/O error) —
// never panic, never return a trace that violates the Record
// invariants, and never allocate proportionally to a lying length
// field. Inputs that do decode must re-encode and decode back to the
// same trace (the codec identity), and the streaming Cursor must agree
// record-for-record with the one-shot DecodeDMT.
func FuzzDMTDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DMTc"))
	f.Add(dmtSeed(0, 1))
	f.Add(dmtSeed(1, 1))
	f.Add(dmtSeed(25, 4))
	f.Add(dmtSeed(100, 0))
	// Truncations and field corruptions of a valid container.
	valid := dmtSeed(25, 4)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:13])
	skew := bytes.Clone(valid)
	skew[4] = 99 // version
	f.Add(skew)
	lie := bytes.Clone(valid)
	lie[8] = 0xff // chunkRecords
	f.Add(lie)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeDMT(data)
		if err != nil {
			if tr != nil {
				t.Fatalf("decoder returned both a trace and error %v", err)
			}
			return // rejection is the expected outcome for random bytes
		}
		// Whatever decoded must satisfy the Record invariants the writer
		// enforces (Validate additionally rejects zero-page DMAs, which
		// the codec intentionally represents).
		var last int64
		for i, r := range tr.Records {
			if int64(r.Time) < last {
				t.Fatalf("record %d at %d before predecessor at %d", i, int64(r.Time), last)
			}
			last = int64(r.Time)
			if r.Kind >= numKinds || r.Source >= numSources || r.Page < 0 {
				t.Fatalf("record %d out of range: %+v", i, r)
			}
		}
		// Codec identity: re-encode, re-decode, compare.
		var buf bytes.Buffer
		if err := tr.WriteDMT(&buf, WriterOptions{ChunkRecords: 4}); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		tr2, err := DecodeDMT(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if tr2.Name != tr.Name || tr2.Meta != tr.Meta || len(tr2.Records) != len(tr.Records) {
			t.Fatalf("round trip changed identity: %q/%d -> %q/%d", tr.Name, len(tr.Records), tr2.Name, len(tr2.Records))
		}
		for i := range tr.Records {
			if tr.Records[i] != tr2.Records[i] {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, tr.Records[i], tr2.Records[i])
			}
		}
		// The streaming path must agree with the one-shot path.
		r, err := NewReader(newByteReaderAt(data), int64(len(data)))
		if err != nil {
			t.Fatalf("NewReader rejected what DecodeDMT accepted: %v", err)
		}
		cur := r.Cursor()
		for i := range tr.Records {
			rec, ok := cur.Next()
			if !ok || rec != tr.Records[i] {
				t.Fatalf("cursor diverged at record %d (ok=%v, err=%v)", i, ok, cur.Err())
			}
		}
		if _, ok := cur.Next(); ok || cur.Err() != nil {
			t.Fatalf("cursor did not end cleanly: err=%v", cur.Err())
		}
	})
}

// FuzzDMTWriterRoundTrip drives the streaming writer with arbitrary
// (but ordered) record parameters and requires a lossless round trip
// at an arbitrary chunk size.
func FuzzDMTWriterRoundTrip(f *testing.F) {
	f.Add(uint(3), int64(5), uint8(1), uint8(0), uint8(2), uint16(4), int32(77), "t")
	f.Add(uint(1), int64(0), uint8(0), uint8(2), uint8(0), uint16(0), int32(0), "")
	f.Fuzz(func(t *testing.T, chunk uint, dt int64, kind, src, bus uint8, pages uint16, page int32, name string) {
		if len(name) > maxTraceName {
			return
		}
		k, s := Kind(kind%uint8(numKinds)), Source(src%uint8(numSources))
		if dt < 0 {
			dt = -dt
		}
		if page < 0 {
			page = -page
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, name, WriterOptions{ChunkRecords: int(chunk%64) + 1})
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		// A few records with the fuzzed shape at increasing times.
		want := make([]Record, 0, 5)
		at := int64(0)
		for i := 0; i < 5; i++ {
			r := Record{Time: sim.Time(at), Kind: k, Source: s, Bus: bus, Pages: pages, Page: memsys.PageID(page)}
			if err := w.Append(r); err != nil {
				t.Fatalf("Append %d: %v", i, err)
			}
			want = append(want, r)
			if at > (1<<62)-dt {
				dt = 0
			}
			at += dt
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		got, err := DecodeDMT(buf.Bytes())
		if err != nil {
			t.Fatalf("DecodeDMT of writer output: %v", err)
		}
		if got.Name != name || len(got.Records) != len(want) {
			t.Fatalf("identity: %q/%d -> %q/%d", name, len(want), got.Name, len(got.Records))
		}
		for i := range want {
			if got.Records[i] != want[i] {
				t.Fatalf("record %d: %+v -> %+v", i, want[i], got.Records[i])
			}
		}
	})
}
