package experiments

import (
	"reflect"
	"sync"
	"testing"

	"dmamem/internal/core"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// crossRun is one core.Run of a cross-check: a configuration and its
// in-memory trace, which is nil when cfg.TraceFile names the records.
type crossRun struct {
	cfg core.Config
	tr  *trace.Trace
}

// runCross runs every run in mode and returns the results in order.
// "inline" runs them one after another on the test goroutine;
// "parallel" starts them all at once, a goroutine each, so any state
// two simulations share shows up as a difference (and as a race under
// -race); "alternate" runs them one after another with a run of a
// different configuration before each, so any state a run leaves
// behind for the next shows up.
func runCross(t *testing.T, mode string, runs []crossRun) []*core.Result {
	t.Helper()
	res := make([]*core.Result, len(runs))
	errs := make([]error, len(runs))
	switch mode {
	case "inline":
		for i, r := range runs {
			res[i], errs[i] = core.Run(r.cfg, r.tr)
		}
	case "parallel":
		var wg sync.WaitGroup
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i], errs[i] = core.Run(r.cfg, r.tr)
			}()
		}
		wg.Wait()
	case "alternate":
		other, err := goldenSuite().workload("OLTP-Db")
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			if _, err := core.Run(core.Config{}, other); err != nil {
				t.Fatalf("alternating run: %v", err)
			}
			res[i], errs[i] = core.Run(r.cfg, r.tr)
		}
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s run %d: %v", mode, i, err)
		}
	}
	return res
}

// TestParallelSerialBitIdentical: the whole golden corpus, every
// workload x scheme from memory and from a .dmt file, started at once
// on a goroutine per run, must reproduce the serial sweep bit for bit.
// The comparison is reflect.DeepEqual over the whole core.Result, so
// one drifted float or one extra engine step fails. Under -race it is
// also the data-race gate for simulations sharing a process.
func TestParallelSerialBitIdentical(t *testing.T) {
	s := goldenSuite()
	var runs []crossRun
	var labels []string
	for _, name := range workloadNames {
		tr, err := s.workload(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		path := saveDMT(t, tr, 512)
		for _, sc := range goldenSchemes() {
			cfg := sc.cfg
			cfg.MeterWindow = tr.Duration() + 2*sim.Millisecond
			fcfg := cfg
			fcfg.TraceFile = path
			runs = append(runs, crossRun{cfg, tr}, crossRun{fcfg, nil})
			labels = append(labels, name+"/"+sc.label, name+"/"+sc.label+" file")
		}
	}
	serial := runCross(t, "inline", runs)
	for i := 0; i < len(runs); i += 2 {
		if !reflect.DeepEqual(serial[i], serial[i+1]) {
			t.Errorf("%s: serial file result differs from in-memory", labels[i])
		}
	}
	for i, got := range runCross(t, "parallel", runs) {
		if !reflect.DeepEqual(serial[i], got) {
			t.Errorf("%s: parallel result differs from serial", labels[i])
		}
	}
}

// TestParallelPLBitIdentical: the page-layout scheme (DMA-TA-PL) on a
// 4-channel topology, where its rebalances observe every channel at
// once, must give one Result however its runs are scheduled — inline,
// in parallel, or alternating with other runs — and the file-backed
// feeder must match in-memory delivery.
func TestParallelPLBitIdentical(t *testing.T) {
	s := goldenSuite()
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	for _, name := range []string{"OLTP-St", "Synthetic-Db"} {
		tr, err := s.workload(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		cfg := taConfig(0.10, plConfig(2))
		cfg.Topology = topo
		cfg.MeterWindow = tr.Duration() + 2*sim.Millisecond
		ref, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fcfg := cfg
		fcfg.TraceFile = saveDMT(t, tr, 512)
		runs := []crossRun{{cfg, tr}, {fcfg, nil}, {cfg, tr}, {fcfg, nil}}
		for _, mode := range []string{"inline", "parallel", "alternate"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				for i, got := range runCross(t, mode, runs) {
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("%s %s: multi-channel PL run %d (file-backed: %v) differs from the reference",
							name, mode, i, i%2 == 1)
					}
				}
			})
		}
	}
}
