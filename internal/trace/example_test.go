package trace_test

import (
	"bytes"
	"fmt"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// ExampleWriter streams records into a .dmt container one at a time —
// the shape a generator uses to emit an hour-scale trace without ever
// holding it in memory.
func ExampleWriter() {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, "example", trace.WriterOptions{ChunkRecords: 2})
	if err != nil {
		panic(err)
	}
	w.SetMeta(trace.Meta{MeanClientResponse: sim.Millisecond, TransfersPerClientRequest: 1})
	for i := 0; i < 5; i++ {
		err := w.Append(trace.Record{
			Time:   sim.Time(i) * sim.Time(sim.Microsecond),
			Kind:   trace.DMAWrite,
			Source: trace.SrcDisk,
			Pages:  1,
			Page:   memsys.PageID(100 * i),
		})
		if err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	_, err = trace.DecodeDMT(buf.Bytes())
	fmt.Println("is .dmt:", err == nil)
	// Output:
	// is .dmt: true
}

// ExampleReader opens a container, reads its summary from the header
// and footer without scanning, then streams the records through a
// bounded-memory Cursor.
func ExampleReader() {
	// Build a small container to read back.
	tr := &trace.Trace{Name: "example"}
	for i := 0; i < 4; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time: sim.Time(i) * sim.Time(sim.Microsecond),
			Kind: trace.DMARead, Source: trace.SrcNetwork, Pages: 2, Page: memsys.PageID(i),
		})
	}
	var buf bytes.Buffer
	if err := tr.WriteDMT(&buf, trace.WriterOptions{ChunkRecords: 3}); err != nil {
		panic(err)
	}

	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		panic(err)
	}
	sum := r.Summary()
	fmt.Printf("%s: %d records in %d chunks, %d pages by DMA\n",
		sum.Name, sum.Records, sum.Chunks, sum.DMAPages)

	cur := r.Cursor()
	for {
		rec, ok := cur.Next()
		if !ok {
			break
		}
		fmt.Printf("%d ps: %v page %d\n", int64(rec.Time), rec.Kind, rec.Page)
	}
	if err := cur.Err(); err != nil {
		panic(err)
	}
	// Output:
	// example: 4 records in 2 chunks, 8 pages by DMA
	// 0 ps: dma-read page 0
	// 1000000 ps: dma-read page 1
	// 2000000 ps: dma-read page 2
	// 3000000 ps: dma-read page 3
}
