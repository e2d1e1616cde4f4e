package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmamem/internal/core"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// saveDMT writes tr to a temp .dmt container and returns its path.
func saveDMT(t *testing.T, tr *trace.Trace, chunk int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.dmt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteDMT(f, trace.WriterOptions{ChunkRecords: chunk}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenFileBacked replays every Table 2 workload x scheme through
// the file-backed feeder and holds the reports to the same committed
// golden corpus the in-memory runs pin (TestGoldenReports): one
// corpus, two delivery paths, byte-identical. The deliberately odd
// chunk size forces many chunk boundaries mid-simulation, so the
// cursor's chunk turnover is exercised inside every scheme.
func TestGoldenFileBacked(t *testing.T) {
	s := goldenSuite()
	for _, name := range workloadNames {
		tr, err := s.workload(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		window := tr.Duration() + 2*sim.Millisecond
		path := saveDMT(t, tr, 61)
		for _, sc := range goldenSchemes() {
			sc := sc
			t.Run(name+"/"+sc.label, func(t *testing.T) {
				cfg := sc.cfg
				cfg.MeterWindow = window
				cfg.TraceFile = path
				res, err := core.Run(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				file := fmt.Sprintf("%s_%s.json", strings.ToLower(name), sc.label)
				writeOrCompareGolden(t, goldenPath(t, file), res.Report)
			})
		}
	}
}

// peakHeapDuring samples HeapAlloc while fn runs and returns the
// largest value seen. Millisecond sampling against multi-second
// simulations gives thousands of samples, so the peak estimate is
// stable; the assertions below still keep multi-megabyte margins.
func peakHeapDuring(fn func()) uint64 {
	runtime.GC()
	var stop, peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for stop.Load() == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	fn()
	stop.Store(1)
	<-done
	return peak.Load()
}

// TestFileFeederFlatMemory is the tentpole's acceptance run: a
// Synthetic-St trace 100x longer than the 100 ms reference window is
// recorded straight to disk (the generator streams into the writer,
// so recording is flat too), then replayed through the file-backed
// feeder. Two promises are checked: the result is deeply equal to
// decoding the same container and simulating in memory, and the peak
// live heap of the file-backed run stays below the in-memory run's by
// at least the record storage — the trace is never materialized. (Both
// runs still grow with the per-transfer service-time statistics that
// exact P95/Max reporting retains; that term is shared and excluded
// from the comparison by construction.)
//
// The test simulates the 10 s trace twice, so it is gated like
// the bench smoke: set DMAMEM_FLATMEM=1 (CI runs it as a dedicated
// step, without the race detector).
func TestFileFeederFlatMemory(t *testing.T) {
	if os.Getenv("DMAMEM_FLATMEM") == "" {
		t.Skip("set DMAMEM_FLATMEM=1 to run the flat-memory replay guard (two 10 s simulations)")
	}
	// Keep the GC heap goal close to the live set while measuring, so
	// sampled peaks reflect retention rather than collector laziness.
	defer debug.SetGCPercent(debug.SetGCPercent(30))

	path := filepath.Join(t.TempDir(), "long.dmt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, "Synthetic-St", trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.SetMeta(synth.SyntheticMeta())
	cfg := synth.DefaultSt()
	cfg.Duration = 100 * (100 * sim.Millisecond) // 100x the reference trace
	if err := synth.GenerateStTo(cfg, w.Append); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var fileRes *core.Result
	var fileErr error
	peakFile := peakHeapDuring(func() {
		fileRes, fileErr = core.Run(core.Config{TraceFile: path}, nil)
	})
	if fileErr != nil {
		t.Fatal(fileErr)
	}

	var tr *trace.Trace
	var memRes *core.Result
	var memErr error
	peakMem := peakHeapDuring(func() {
		data, err := os.ReadFile(path)
		if err != nil {
			memErr = err
			return
		}
		tr, memErr = trace.DecodeDMT(data)
		if memErr != nil {
			return
		}
		memRes, memErr = core.Run(core.Config{}, tr)
	})
	if memErr != nil {
		t.Fatal(memErr)
	}

	if !reflect.DeepEqual(memRes, fileRes) {
		t.Errorf("100x file-backed result differs from in-memory\nmem:  %+v\nfile: %+v", memRes, fileRes)
	}
	records := len(tr.Records)
	t.Logf("records: %d; peak heap: file-backed %.1f MB, in-memory %.1f MB",
		records, float64(peakFile)/1e6, float64(peakMem)/1e6)
	// The in-memory run must pay for the record slice (24 B/record);
	// the file-backed run must not. Requiring a third of that gap
	// leaves the rest as margin for sampling and collector noise.
	if gap := int64(peakMem) - int64(peakFile); gap < int64(records)*8 {
		t.Errorf("file-backed peak heap %.1f MB is not flat: only %.1f MB below the in-memory run (want >= %.1f MB, a third of the record storage)",
			float64(peakFile)/1e6, float64(gap)/1e6, float64(records)*8/1e6)
	}
}
