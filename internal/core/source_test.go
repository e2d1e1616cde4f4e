package core

import (
	"reflect"
	"strings"
	"testing"

	"dmamem/internal/controller"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// TestFileErrorWordingMatchesMemory is the satellite-1 regression: the
// two trace paths must return character-identical errors on the same
// malformed records, including when a trace-level violation (checked
// first in-memory, across the whole trace) coexists with an earlier
// page-range violation.
func TestFileErrorWordingMatchesMemory(t *testing.T) {
	maxPage := memsys.PageID(memsys.Default().TotalPages())
	cases := []struct {
		name  string
		tr    *trace.Trace
		chunk int    // .dmt records per chunk; 0 means 64
		want  string // the error both paths must report, if set
	}{
		{"zero-page after range violation", &trace.Trace{Name: "mixed", Records: []trace.Record{
			{Time: 0, Kind: trace.DMARead, Pages: 4, Page: maxPage - 1},
			{Time: 1, Kind: trace.DMARead, Pages: 0, Page: 0},
		}}, 0, ""},
		{"range violation only", &trace.Trace{Name: "oob", Records: []trace.Record{
			{Time: 0, Kind: trace.DMARead, Pages: 2, Page: 5},
			{Time: 3, Kind: trace.DMAWrite, Pages: 8, Page: maxPage - 2},
		}}, 0, ""},
		{"zero-page only", &trace.Trace{Name: "zdma", Records: []trace.Record{
			{Time: 0, Kind: trace.DMARead, Pages: 2, Page: 0},
			{Time: 2, Kind: trace.DMAWrite, Pages: 0, Page: 9},
		}}, 0, ""},
		// The range violation is in the first chunk and the zero-page DMA
		// two chunks later, so the file path must read on past the chunk
		// it failed in.
		{"zero-page chunks after range violation", &trace.Trace{Name: "chunked", Records: chunkedMixed(maxPage)}, 8,
			`trace "chunked": record 20 is a zero-page DMA`},
	}
	for _, tc := range cases {
		_, memErr := Run(Config{}, tc.tr)
		if memErr == nil {
			t.Fatalf("%s: in-memory run accepted malformed trace", tc.name)
		}
		chunk := tc.chunk
		if chunk == 0 {
			chunk = 64
		}
		_, fileErr := Run(Config{TraceFile: saveDMT(t, tc.tr, chunk)}, nil)
		if fileErr == nil {
			t.Fatalf("%s: file-backed run accepted malformed trace", tc.name)
		}
		if memErr.Error() != fileErr.Error() {
			t.Errorf("%s: error wording diverges\nmem:  %s\nfile: %s", tc.name, memErr, fileErr)
		}
		if tc.want != "" && fileErr.Error() != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, fileErr, tc.want)
		}
	}
}

// chunkedMixed returns 24 processor accesses with an out-of-range DMA
// at record 3 and a zero-page DMA at record 20.
func chunkedMixed(maxPage memsys.PageID) []trace.Record {
	recs := make([]trace.Record, 24)
	for i := range recs {
		recs[i] = trace.Record{Time: sim.Time(i), Kind: trace.ProcRead, Page: memsys.PageID(i)}
	}
	recs[3] = trace.Record{Time: 3, Kind: trace.DMARead, Pages: 4, Page: maxPage - 1}
	recs[20] = trace.Record{Time: 20, Kind: trace.DMAWrite, Pages: 0, Page: 7}
	return recs
}

// TestWarmupFractionCrossPath is the satellite-2 regression: warm-up
// counts must truncate identically on both paths at fractional values,
// keeping reports bit-identical; out-of-range fractions fail loudly
// with the same wording instead of panicking (in-memory) or silently
// warming everything (file).
func TestWarmupFractionCrossPath(t *testing.T) {
	traces := map[string]*trace.Trace{
		"Synthetic-St": stTrace(t, 5*sim.Millisecond),
		"Synthetic-Db": dbTrace(t, 5*sim.Millisecond),
	}
	for wname, tr := range traces {
		path := saveDMT(t, tr, 512)
		for _, frac := range []float64{0.1, 0.33, 0.5} {
			cfg := Config{
				TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2),
				WarmupFraction: frac,
			}
			mem, err := Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s frac=%g in-memory: %v", wname, frac, err)
			}
			fcfg := cfg
			fcfg.TraceFile = path
			file, err := Run(fcfg, nil)
			if err != nil {
				t.Fatalf("%s frac=%g file: %v", wname, frac, err)
			}
			if !reflect.DeepEqual(mem, file) {
				t.Errorf("%s frac=%g: file-backed result differs from in-memory", wname, frac)
			}
		}
		for _, frac := range []float64{-0.5, 1.5} {
			cfg := Config{PL: plCfg(2), WarmupFraction: frac}
			_, memErr := Run(cfg, tr)
			fcfg := cfg
			fcfg.TraceFile = path
			_, fileErr := Run(fcfg, nil)
			if memErr == nil || fileErr == nil {
				t.Fatalf("%s frac=%g accepted (mem=%v file=%v)", wname, frac, memErr, fileErr)
			}
			if memErr.Error() != fileErr.Error() {
				t.Errorf("%s frac=%g: rejection wording diverges\nmem:  %s\nfile: %s", wname, frac, memErr, fileErr)
			}
			if !strings.Contains(memErr.Error(), "WarmupFraction") {
				t.Errorf("%s frac=%g: unclear rejection %q", wname, frac, memErr)
			}
		}
	}
}
