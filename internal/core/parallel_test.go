package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"dmamem/internal/controller"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// The tests in this file hold a Result to being a pure function of its
// configuration and records: it may not depend on other simulations
// running at the same time in the same process (the service runs a
// fleet of them), nor on what an earlier run left behind.

// parallelSchemes are the corpus schemes the invariance tests cover.
func parallelSchemes() map[string]Config {
	return map[string]Config{
		"baseline":  {},
		"dma-ta":    {TA: controller.DefaultTA(0), CPLimit: 0.10},
		"dma-ta-pl": {TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2)},
	}
}

// job is one run: a configuration and its in-memory trace, which is
// nil when cfg.TraceFile names the records.
type job struct {
	cfg Config
	tr  *trace.Trace
}

// forcedModes are the three ways runJobs schedules the runs it is
// given: "inline" runs them one after another on the calling
// goroutine; "parallel" starts them all at once, a goroutine each, so
// any state two runs share shows up as a difference (and as a race
// under -race); "alternate" runs them one after another with a run of
// a different configuration before each, so any state a run leaves
// behind for the next shows up.
var forcedModes = []string{"inline", "parallel", "alternate"}

// runJobs runs every job in mode and returns the results and errors in
// job order.
func runJobs(t *testing.T, mode string, jobs []job) ([]*Result, []error) {
	t.Helper()
	res := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	switch mode {
	case "inline":
		for i, j := range jobs {
			res[i], errs[i] = Run(j.cfg, j.tr)
		}
	case "parallel":
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i], errs[i] = Run(j.cfg, j.tr)
			}()
		}
		wg.Wait()
	case "alternate":
		// Two channels, DMA-TA-PL and another workload: a run that
		// differs from the jobs in every part of the model it can.
		other := Config{
			Topology: memsys.Topology{Channels: 2, ChannelBandwidth: 3.2e9},
			TA:       controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2),
		}
		otr := dbTrace(t, sim.Millisecond)
		for i, j := range jobs {
			if _, err := Run(other, otr); err != nil {
				t.Fatalf("alternating run: %v", err)
			}
			res[i], errs[i] = Run(j.cfg, j.tr)
		}
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	return res, errs
}

// mustRunJobs is runJobs for jobs that must all succeed.
func mustRunJobs(t *testing.T, mode string, jobs []job) []*Result {
	t.Helper()
	res, errs := runJobs(t, mode, jobs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s run %d: %v", mode, i, err)
		}
	}
	return res
}

// memAndFile returns copies jobs of cfg reading tr from memory and as
// many reading the same records from path.
func memAndFile(cfg Config, tr *trace.Trace, path string, copies int) []job {
	fcfg := cfg
	fcfg.TraceFile = path
	var jobs []job
	for i := 0; i < copies; i++ {
		jobs = append(jobs, job{cfg, tr}, job{fcfg, nil})
	}
	return jobs
}

// TestParallelSingleChannelBitIdentical: on a single channel, every
// scheme run four at once — two from memory, two from a .dmt file —
// reproduces the Result of the same run made alone.
func TestParallelSingleChannelBitIdentical(t *testing.T) {
	tr := stTrace(t, 5*sim.Millisecond)
	path := saveDMT(t, tr, 512)
	for name, cfg := range parallelSchemes() {
		serial, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for i, got := range mustRunJobs(t, "parallel", memAndFile(cfg, tr, path, 2)) {
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("%s: parallel run %d differs from the run made alone\nserial:   %+v\nparallel: %+v",
					name, i, serial, got)
			}
		}
	}
}

// TestParallelMultiChannelWorkerInvariance: on a multi-channel
// topology, where every flow of every channel shares one bus
// allocation, neither the number of runs in flight nor the runs made
// before may influence the result, and the file-backed path must
// agree with the in-memory path exactly.
func TestParallelMultiChannelWorkerInvariance(t *testing.T) {
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	tr := stTrace(t, 5*sim.Millisecond)
	path := saveDMT(t, tr, 512)
	for name, cfg := range parallelSchemes() {
		cfg.Topology = topo
		ref, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref.Report.Channels != 4 {
			t.Fatalf("%s: report has %d channels", name, ref.Report.Channels)
		}
		for _, mode := range forcedModes {
			t.Run(name+"/"+mode, func(t *testing.T) {
				for i, got := range mustRunJobs(t, mode, memAndFile(cfg, tr, path, 2)) {
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("%s %s: run %d (file-backed: %v) differs from the reference",
							name, mode, i, i%2 == 1)
					}
				}
			})
		}
	}
}

// TestParallelRejections: a rejected configuration fails alone and
// with the wording it gets when run by itself, even among accepted
// runs in flight at the same time; and PL is legal on any channel
// count.
func TestParallelRejections(t *testing.T) {
	tr := stTrace(t, sim.Millisecond)
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	jobs := []job{
		{Config{PL: plCfg(2), TA: controller.DefaultTA(0), CPLimit: 0.10}, tr},
		{Config{Topology: topo, PL: plCfg(2), TA: controller.DefaultTA(0), CPLimit: 0.10}, tr},
		{Config{PL: plCfg(2), WarmupFraction: 1.5}, tr},
		{Config{Tech: "no-such-part"}, tr},
	}
	wantErr := []string{"", "", "WarmupFraction", "no-such-part"}
	alone, aloneErrs := runJobs(t, "inline", jobs)
	got, errs := runJobs(t, "parallel", jobs)
	for i, want := range wantErr {
		switch {
		case want == "" && errs[i] != nil:
			t.Errorf("legal config %d rejected: %+v: %v", i, jobs[i].cfg, errs[i])
		case want == "" && !reflect.DeepEqual(alone[i], got[i]):
			t.Errorf("config %d: the run in flight with others differs from the run made alone", i)
		case want != "" && (errs[i] == nil || !strings.Contains(errs[i].Error(), want)):
			t.Errorf("config %d: err = %v, want one naming %s", i, errs[i], want)
		case want != "" && (aloneErrs[i] == nil || errs[i].Error() != aloneErrs[i].Error()):
			t.Errorf("config %d: rejection wording depends on the runs beside it\nalone: %v\nin flight: %v",
				i, aloneErrs[i], errs[i])
		}
	}
}

// TestParallelAdaptiveFixedBitIdentical: a run whose meter window is
// derived from its records (MeterWindow zero: the trace duration plus
// 2 ms) must reproduce the run with that window fixed in the
// configuration exactly — on four channels, all schemes, in memory and
// from .dmt files cut into chunks of several sizes (the file-backed
// path learns the trace duration from its own scan), in every mode
// against one inline reference.
func TestParallelAdaptiveFixedBitIdentical(t *testing.T) {
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	tr := stTrace(t, 5*sim.Millisecond)
	paths := []string{saveDMT(t, tr, 3), saveDMT(t, tr, 64), saveDMT(t, tr, 512)}
	for name, cfg := range parallelSchemes() {
		cfg.Topology = topo
		fixed := cfg
		fixed.MeterWindow = tr.Duration() + 2*sim.Millisecond
		want, err := Run(fixed, tr)
		if err != nil {
			t.Fatalf("%s fixed: %v", name, err)
		}
		jobs := []job{{cfg, tr}}
		for _, path := range paths {
			for _, c := range []Config{cfg, fixed} {
				c.TraceFile = path
				jobs = append(jobs, job{c, nil})
			}
		}
		for _, mode := range forcedModes {
			t.Run(name+"/"+mode, func(t *testing.T) {
				for i, got := range mustRunJobs(t, mode, jobs) {
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s %s: run %d (window %v, file %q) differs from the fixed-window reference",
							name, mode, i, jobs[i].cfg.MeterWindow, jobs[i].cfg.TraceFile)
					}
				}
			})
		}
	}
}
