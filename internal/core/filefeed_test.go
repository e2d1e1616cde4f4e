package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmamem/internal/controller"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// plCfg returns the paper's PL defaults with the given group count.
func plCfg(groups int) *layout.Config {
	cfg := layout.DefaultConfig()
	cfg.Groups = groups
	return &cfg
}

// saveDMT writes a trace to a temp .dmt file and returns its path.
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

// TestRunFileMatchesRunMemory pins the tentpole's gate at the core
// level: a file-backed run must produce a report (and calibration, and
// layout statistics) deeply equal to the in-memory run of the same
// records, for every scheme and for chunk sizes that exercise many
// chunk boundaries as well as a single chunk.
func TestRunFileMatchesRunMemory(t *testing.T) {
	tr := stTrace(t, 10*sim.Millisecond)
	schemes := map[string]Config{
		"baseline":  {},
		"dma-ta":    {TA: controller.DefaultTA(0), CPLimit: 0.10},
		"dma-ta-pl": {TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2)},
	}
	for _, chunk := range []int{7, 4096} {
		path := saveDMT(t, tr, chunk)
		for name, cfg := range schemes {
			mem, err := Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s in-memory: %v", name, err)
			}
			fcfg := cfg
			fcfg.TraceFile = path
			file, err := Run(fcfg, nil)
			if err != nil {
				t.Fatalf("%s file-backed (chunk %d): %v", name, chunk, err)
			}
			if !reflect.DeepEqual(mem, file) {
				t.Errorf("%s (chunk %d): file-backed result differs from in-memory\nmem:  %+v\nfile: %+v",
					name, chunk, mem, file)
			}
		}
	}
}

// TestRunBaselinePairFileBacked checks both pair runners accept a nil
// trace with TraceFile configs and agree with the in-memory pair.
func TestRunBaselinePairFileBacked(t *testing.T) {
	tr := stTrace(t, 5*sim.Millisecond)
	path := saveDMT(t, tr, 512)
	base := Config{TraceFile: path}
	tech := Config{TraceFile: path, TA: controller.DefaultTA(0), CPLimit: 0.10}
	fb, ft, fs, err := RunBaselinePairParallel(context.Background(), base, tech, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	mb, mt, ms, err := RunBaselinePairParallel(context.Background(), Config{}, Config{TA: controller.DefaultTA(0), CPLimit: 0.10}, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mb, fb) || !reflect.DeepEqual(mt, ft) || ms != fs {
		t.Fatal("file-backed pair differs from in-memory pair")
	}
	pb, pt, ps, err := RunBaselinePairParallel(nil, base, tech, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pb, fb) || !reflect.DeepEqual(pt, ft) || ps != fs {
		t.Fatal("parallel file-backed pair differs from sequential")
	}
}

// TestRunFileErrors pins the loud failure modes of the file path.
func TestRunFileErrors(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil || !strings.Contains(err.Error(), "TraceFile") {
		t.Fatalf("nil trace without TraceFile: %v", err)
	}
	tr := stTrace(t, sim.Millisecond)
	path := saveDMT(t, tr, 64)
	if _, err := Run(Config{TraceFile: path}, tr); err == nil {
		t.Fatal("both trace and TraceFile accepted")
	}
	if _, err := Run(Config{TraceFile: filepath.Join(t.TempDir(), "missing.dmt")}, nil); err == nil {
		t.Fatal("missing file accepted")
	}

	// Empty container.
	empty := saveDMT(t, &trace.Trace{Name: "empty"}, 64)
	if _, err := Run(Config{TraceFile: empty}, nil); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Fatalf("empty container: %v", err)
	}

	// Semantic violations the codec representation allows must fail
	// with the in-memory path's wording.
	zero := &trace.Trace{Name: "zdma", Records: []trace.Record{{Time: 0, Kind: trace.DMARead, Pages: 0}}}
	if _, err := Run(Config{TraceFile: saveDMT(t, zero, 64)}, nil); err == nil || !strings.Contains(err.Error(), "zero-page DMA") {
		t.Fatalf("zero-page DMA: %v", err)
	}
	oob := &trace.Trace{Name: "oob", Records: []trace.Record{
		{Time: 0, Kind: trace.DMARead, Pages: 4, Page: memsys.PageID(memsys.Default().TotalPages() - 1)},
	}}
	if _, err := Run(Config{TraceFile: saveDMT(t, oob, 64)}, nil); err == nil || !strings.Contains(err.Error(), "outside memory") {
		t.Fatalf("out-of-range page: %v", err)
	}

	// A truncated container must fail loudly, not simulate a prefix.
	full := saveDMT(t, stTrace(t, sim.Millisecond), 8)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.dmt")
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{TraceFile: cut}, nil); err == nil {
		t.Fatal("truncated container accepted")
	}
}
