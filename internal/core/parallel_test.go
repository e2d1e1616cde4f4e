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

// parallelSchemes are the corpus schemes the parallel engine must
// reproduce.
func parallelSchemes() map[string]Config {
	return map[string]Config{
		"baseline":  {},
		"dma-ta":    {TA: controller.DefaultTA(0), CPLimit: 0.10},
		"dma-ta-pl": {TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2)},
	}
}

// TestParallelSingleChannelBitIdentical is the core-level acceptance
// gate: on a single channel the barrier engine must reproduce the
// serial engine's Result exactly — every scheme, 1/2/4 workers
// (clamped to the one shard), several epoch lengths, in-memory and
// file-backed.
func TestParallelSingleChannelBitIdentical(t *testing.T) {
	tr := stTrace(t, 5*sim.Millisecond)
	path := saveDMT(t, tr, 512)
	for name, cfg := range parallelSchemes() {
		serial, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		fcfg := cfg
		fcfg.TraceFile = path
		serialFile, err := Run(fcfg, nil)
		if err != nil {
			t.Fatalf("%s serial file: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			pcfg := cfg
			pcfg.Workers = workers
			got, err := Run(pcfg, tr)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("%s workers=%d: parallel result differs from serial\nserial:   %+v\nparallel: %+v",
					name, workers, serial, got)
			}
			pf := fcfg
			pf.Workers = workers
			gotFile, err := Run(pf, nil)
			if err != nil {
				t.Fatalf("%s file workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(serialFile, gotFile) {
				t.Errorf("%s file workers=%d: parallel file result differs from serial file", name, workers)
			}
		}
		for _, epoch := range []sim.Duration{10 * sim.Microsecond, 200 * sim.Microsecond} {
			pcfg := cfg
			pcfg.Workers = 1
			pcfg.barrierEpoch = epoch
			got, err := Run(pcfg, tr)
			if err != nil {
				t.Fatalf("%s epoch=%v: %v", name, epoch, err)
			}
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("%s epoch=%v: result depends on the barrier epoch", name, epoch)
			}
		}
	}
}

// forcedModes are the span-dispatch modes the worker-invariance tests
// force: with the measured chooser most short spans run inline, so the
// goroutine path is tested only if a test demands it.
var forcedModes = []sim.DispatchMode{sim.DispatchInline, sim.DispatchParallel, sim.DispatchAlternate}

// runForced runs cfg with every span dispatched in mode, and restores
// the chooser however Run returns.
func runForced(mode sim.DispatchMode, cfg Config, tr *trace.Trace) (*Result, error) {
	defer sim.ForceDispatch(mode)()
	return Run(cfg, tr)
}

// TestParallelMultiChannelWorkerInvariance: on a multi-channel
// topology neither the worker count nor the span dispatch mode may
// influence the result (the conservative-PDES determinism claim), and
// the file-backed path — which streams records through the run's
// cursor instead of the in-memory slice — must agree with the
// in-memory path exactly.
func TestParallelMultiChannelWorkerInvariance(t *testing.T) {
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	tr := stTrace(t, 5*sim.Millisecond)
	path := saveDMT(t, tr, 512)
	for name, cfg := range parallelSchemes() {
		cfg.Topology = topo
		cfg.Workers = 1
		ref, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		if ref.Report.Channels != 4 {
			t.Fatalf("%s: report has %d channels", name, ref.Report.Channels)
		}
		for _, mode := range forcedModes {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Cleanup(sim.ForceDispatch(mode))
				for _, workers := range []int{2, 4} {
					pcfg := cfg
					pcfg.Workers = workers
					got, err := Run(pcfg, tr)
					if err != nil {
						t.Fatalf("%s %v workers=%d: %v", name, mode, workers, err)
					}
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("%s %v: workers=%d result differs from workers=1", name, mode, workers)
					}
				}
				for _, workers := range []int{1, 2, 4} {
					fcfg := cfg
					fcfg.TraceFile = path
					fcfg.Workers = workers
					got, err := Run(fcfg, nil)
					if err != nil {
						t.Fatalf("%s %v file workers=%d: %v", name, mode, workers, err)
					}
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("%s %v: file-backed workers=%d result differs from in-memory workers=1", name, mode, workers)
					}
				}
			})
		}
	}
}

// TestParallelRejections pins the loud errors of the parallel path.
func TestParallelRejections(t *testing.T) {
	tr := stTrace(t, sim.Millisecond)
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	if _, err := Run(Config{Workers: 2, MaxEpochSpan: -1}, tr); err == nil ||
		!strings.Contains(err.Error(), "MaxEpochSpan") {
		t.Errorf("negative MaxEpochSpan: %v", err)
	}
	// PL is legal on any channel count since the epoch-synchronized
	// observation stage: single-channel is the serial semantics,
	// multi-channel runs rebalances at barriers.
	for _, cfg := range []Config{
		{Workers: 2, PL: plCfg(2), TA: controller.DefaultTA(0), CPLimit: 0.10},
		{Workers: 2, Topology: topo, PL: plCfg(2), TA: controller.DefaultTA(0), CPLimit: 0.10},
	} {
		if _, err := Run(cfg, tr); err != nil {
			t.Errorf("legal parallel config rejected: %+v: %v", cfg, err)
		}
	}
}

// TestParallelSingleChannelWorkersAccepted pins the documented
// Config.Workers behavior on a single-channel topology: accepted (not
// an error), bit-identical to serial, and equally so with the adaptive
// barrier (default) and the fixed-epoch reference — the adaptive
// engine collapses the run into one span, so the configuration is
// near-free rather than silently wasteful.
func TestParallelSingleChannelWorkersAccepted(t *testing.T) {
	tr := stTrace(t, 2*sim.Millisecond)
	serial, err := Run(Config{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, fixed := range []bool{false, true} {
		got, err := Run(Config{Workers: 4, FixedEpoch: fixed}, tr)
		if err != nil {
			t.Fatalf("fixed=%v: %v", fixed, err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("fixed=%v: single-channel parallel differs from serial", fixed)
		}
	}
}

// TestParallelAdaptiveFixedBitIdentical is the core-level elision
// acceptance gate: the adaptive barrier may only skip rendezvous it
// can prove are no-ops, so the fixed-epoch reference must reproduce
// its results exactly — all schemes, multi-channel, in-memory and
// file-backed, several span ceilings, every forced dispatch mode
// against one inline reference.
func TestParallelAdaptiveFixedBitIdentical(t *testing.T) {
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	tr := stTrace(t, 5*sim.Millisecond)
	path := saveDMT(t, tr, 512)
	for name, cfg := range parallelSchemes() {
		cfg.Topology = topo
		cfg.Workers = 2
		fixed := cfg
		fixed.FixedEpoch = true
		want, err := runForced(sim.DispatchInline, fixed, tr)
		if err != nil {
			t.Fatalf("%s fixed: %v", name, err)
		}
		for _, mode := range forcedModes {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Cleanup(sim.ForceDispatch(mode))
				for _, span := range []int{0, 2, 64} {
					acfg := cfg
					acfg.MaxEpochSpan = span
					got, err := Run(acfg, tr)
					if err != nil {
						t.Fatalf("%s %v span=%d: %v", name, mode, span, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s %v span=%d: adaptive result differs from fixed-epoch", name, mode, span)
					}
				}
				ffix := fixed
				ffix.TraceFile = path
				wantFile, err := Run(ffix, nil)
				if err != nil {
					t.Fatalf("%s %v fixed file: %v", name, mode, err)
				}
				if !reflect.DeepEqual(want, wantFile) {
					t.Errorf("%s %v: fixed file result differs from fixed in-memory", name, mode)
				}
				fadp := cfg
				fadp.TraceFile = path
				gotFile, err := Run(fadp, nil)
				if err != nil {
					t.Fatalf("%s %v adaptive file: %v", name, mode, err)
				}
				if !reflect.DeepEqual(want, gotFile) {
					t.Errorf("%s %v: adaptive file result differs from fixed-epoch", name, mode)
				}
			})
		}
	}
}

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

// TestStageSplit pins how a record is staged across channels: a
// processor access goes whole to its page's channel, and a DMA record
// is cut at every channel change into sub-records that keep its time,
// kind and bus and together cover its pages exactly once.
func TestStageSplit(t *testing.T) {
	chanOf := func(p memsys.PageID) int { return int(p) / 2 % 2 } // 2 channels, 2-page stripes
	staged := []*trace.Cursor{trace.NewStagingCursor(), trace.NewStagingCursor()}
	stageSplit(staged, trace.Record{Time: 5, Kind: trace.ProcRead, Page: 3}, chanOf)
	stageSplit(staged, trace.Record{Time: 7, Kind: trace.DMAWrite, Bus: 2, Pages: 5, Page: 1}, chanOf)
	dma := func(page memsys.PageID, pages uint16) trace.Record {
		return trace.Record{Time: 7, Kind: trace.DMAWrite, Bus: 2, Pages: pages, Page: page}
	}
	want := [][]trace.Record{
		{dma(1, 1), dma(4, 2)},
		{{Time: 5, Kind: trace.ProcRead, Page: 3}, dma(2, 2)},
	}
	for ch, c := range staged {
		var got []trace.Record
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			got = append(got, r)
		}
		if !reflect.DeepEqual(got, want[ch]) {
			t.Errorf("channel %d staged %+v, want %+v", ch, got, want[ch])
		}
	}
}
