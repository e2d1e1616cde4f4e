package experiments

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"dmamem/internal/core"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
)

// TestParallelSerialBitIdentical is the acceptance cross-check for the
// epoch-barrier parallel engine: on every golden-corpus workload x
// scheme, the parallel engine at 1, 2 and 4 workers must reproduce the
// serial reference engine's report bit for bit — in-memory and
// file-backed. The comparison is reflect.DeepEqual over the whole
// core.Result, so one drifted float or one extra engine step fails.
// CI runs this under -race, which also exercises the barrier
// engine's cross-goroutine handoffs for data races.
func TestParallelSerialBitIdentical(t *testing.T) {
	s := goldenSuite()
	for _, name := range workloadNames {
		tr, err := s.workload(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		path := saveDMT(t, tr, 512)
		window := tr.Duration() + 2*sim.Millisecond
		for _, sc := range goldenSchemes() {
			cfg := sc.cfg
			cfg.MeterWindow = window
			serial, err := core.Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", name, sc.label, err)
			}
			fcfg := cfg
			fcfg.TraceFile = path
			serialFile, err := core.Run(fcfg, nil)
			if err != nil {
				t.Fatalf("%s/%s serial file: %v", name, sc.label, err)
			}
			if !reflect.DeepEqual(serial, serialFile) {
				t.Fatalf("%s/%s: serial file result differs from in-memory", name, sc.label)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				pcfg := cfg
				pcfg.Workers = workers
				got, err := core.Run(pcfg, tr)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, sc.label, workers, err)
				}
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("%s/%s: parallel workers=%d differs from serial", name, sc.label, workers)
				}
				pf := fcfg
				pf.Workers = workers
				gotFile, err := core.Run(pf, nil)
				if err != nil {
					t.Fatalf("%s/%s file workers=%d: %v", name, sc.label, workers, err)
				}
				if !reflect.DeepEqual(serial, gotFile) {
					t.Errorf("%s/%s: parallel file workers=%d differs from serial", name, sc.label, workers)
				}
			}
		}
	}
}

// TestParallelPLBitIdentical is the acceptance gate for epoch-
// synchronized global observation: the page-layout scheme (DMA-TA-PL),
// which earlier engine versions rejected on multi-channel parallel
// topologies, now runs there and its results are a pure function of
// simulated time. On a 4-channel topology every worker count from 1 to
// 8, in every forced span-dispatch mode, must produce the same Result,
// adaptive and fixed barriers must
// agree bit for bit, and the file-backed feeder must match in-memory
// delivery. Single-channel PL already answers to the serial reference
// via TestParallelSerialBitIdentical.
func TestParallelPLBitIdentical(t *testing.T) {
	s := goldenSuite()
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	for _, name := range []string{"OLTP-St", "Synthetic-Db"} {
		tr, err := s.workload(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		path := saveDMT(t, tr, 512)
		cfg := taConfig(0.10, plConfig(2))
		cfg.Topology = topo
		cfg.MeterWindow = tr.Duration() + 2*sim.Millisecond
		cfg.Workers = 1
		ref, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		// Every span inline, every span on the workers, and the two
		// alternating: the chooser alone would run most short spans
		// inline and leave the goroutine path untested.
		for _, mode := range []sim.DispatchMode{sim.DispatchInline, sim.DispatchParallel, sim.DispatchAlternate} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Cleanup(sim.ForceDispatch(mode))
				for _, workers := range []int{2, 4, 8} {
					wcfg := cfg
					wcfg.Workers = workers
					got, err := core.Run(wcfg, tr)
					if err != nil {
						t.Fatalf("%s %v workers=%d: %v", name, mode, workers, err)
					}
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("%s %v: multi-channel PL differs at workers=%d", name, mode, workers)
					}
				}
			})
		}
		fixed := cfg
		fixed.Workers = 4
		fixed.FixedEpoch = true
		gotFixed, err := core.Run(fixed, tr)
		if err != nil {
			t.Fatalf("%s fixed: %v", name, err)
		}
		if !reflect.DeepEqual(ref, gotFixed) {
			t.Errorf("%s: multi-channel PL adaptive differs from fixed barriers", name)
		}
		fcfg := cfg
		fcfg.Workers = 4
		fcfg.TraceFile = path
		gotFile, err := core.Run(fcfg, nil)
		if err != nil {
			t.Fatalf("%s file: %v", name, err)
		}
		if !reflect.DeepEqual(ref, gotFile) {
			t.Errorf("%s: multi-channel PL file-backed differs from in-memory", name)
		}
	}
}

// TestAdaptiveEpochSpeedupSmoke is the CI bench smoke gate for barrier
// elision: on the sparse cross-channel workload (long all-idle gaps
// between DMA bursts, the case fixed epochs handle worst) the adaptive
// barrier at 4 channels / 4 workers must run at least 1.3x faster than
// the same configuration with FixedEpoch. Like the other throughput
// gate it only arms under DMAMEM_BENCH_SMOKE=1 and skips on hosts
// where the comparison is physically meaningless.
func TestAdaptiveEpochSpeedupSmoke(t *testing.T) {
	if os.Getenv("DMAMEM_BENCH_SMOKE") == "" {
		t.Skip("set DMAMEM_BENCH_SMOKE=1 to run the adaptive barrier gate")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("adaptive barrier gate needs at least 4 CPUs, have %d", n)
	}
	tr := SparseTrace(2*sim.Second, 2*sim.Millisecond, 4)
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	secs := func(fixed bool) float64 {
		cfg := core.Config{Topology: topo, Workers: 4, FixedEpoch: fixed}
		best := 0.0
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, err := core.Run(cfg, tr); err != nil {
						b.Fatal(err)
					}
				}
			})
			s := r.T.Seconds() / float64(r.N)
			if i == 0 || s < best {
				best = s
			}
		}
		return best
	}
	adaptive := secs(false)
	fixed := secs(true)
	ratio := fixed / adaptive
	t.Logf("adaptive %.3fs, fixed %.3fs per run, ratio %.2fx", adaptive, fixed, ratio)
	fmt.Printf("bench-smoke: adaptive=%.3fs fixed=%.3fs per run (ratio %.2fx)\n", adaptive, fixed, ratio)
	if ratio < 1.3 {
		t.Fatalf("adaptive barrier underperforms on the sparse workload: %.3fs vs fixed %.3fs (ratio %.2fx < 1.3)",
			adaptive, fixed, ratio)
	}
}

// BenchmarkBarrierScaling spans the channels x workers x epoch grid on
// a dense generated workload, one sub-benchmark per cell; workers=0 is
// the serial reference. `go test -bench BarrierScaling` renders the
// raw material behind BENCH_parallel.json (which the dmamem-bench
// -parallel-bench runner regenerates with speedup columns).
func BenchmarkBarrierScaling(b *testing.B) {
	s := NewSuite(10*sim.Millisecond, 1)
	tr, err := s.workload("Synthetic-St")
	if err != nil {
		b.Fatal(err)
	}
	for _, channels := range []int{1, 2, 4} {
		for _, workers := range []int{0, 1, 2, 4} {
			for _, epoch := range []sim.Duration{20 * sim.Microsecond, 50 * sim.Microsecond, 200 * sim.Microsecond} {
				if workers == 0 && epoch != 50*sim.Microsecond {
					continue // the serial engine has no epoch knob
				}
				name := fmt.Sprintf("ch=%d/workers=%d/epoch=%v", channels, workers, epoch)
				b.Run(name, func(b *testing.B) {
					cfg := core.Config{Workers: workers, BarrierEpoch: epoch}
					if channels > 1 {
						cfg.Topology = memsys.Topology{Channels: channels, ChannelBandwidth: 3.2e9}
					}
					var events uint64
					for i := 0; i < b.N; i++ {
						res, err := core.Run(cfg, tr)
						if err != nil {
							b.Fatal(err)
						}
						events = res.Report.Events
					}
					b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
				})
			}
		}
	}
}

// TestParallelThroughputSmoke is the CI bench smoke gate for the
// parallel engine: on a 4-channel topology, 4 workers must deliver at
// least 1.3x the serial engine's events/sec on the SimulatorThroughput
// configuration. Benchmarking inside the normal test run would be
// noise-prone, so the check only arms when CI sets
// DMAMEM_BENCH_SMOKE=1, and it skips on hosts with fewer than 4 CPUs
// where a parallel speedup is physically unavailable.
func TestParallelThroughputSmoke(t *testing.T) {
	if os.Getenv("DMAMEM_BENCH_SMOKE") == "" {
		t.Skip("set DMAMEM_BENCH_SMOKE=1 to run the parallel throughput gate")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("parallel throughput gate needs at least 4 CPUs, have %d", n)
	}
	s := NewSuite(25*sim.Millisecond, 1)
	tr, err := s.workload("Synthetic-St")
	if err != nil {
		t.Fatal(err)
	}
	topo := memsys.Topology{Channels: 4, ChannelBandwidth: 3.2e9}
	eventsPerSec := func(workers int) float64 {
		var events uint64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{Topology: topo, Workers: workers}, tr)
				if err != nil {
					b.Fatal(err)
				}
				events = res.Report.Events
			}
		})
		return float64(events) * float64(r.N) / r.T.Seconds()
	}
	serial := eventsPerSec(0)
	parallel := eventsPerSec(4)
	ratio := parallel / serial
	t.Logf("parallel %.0f events/sec, serial %.0f events/sec, ratio %.3f", parallel, serial, ratio)
	fmt.Printf("bench-smoke: parallel=%.0f serial=%.0f events/sec (ratio %.3f)\n", parallel, serial, ratio)
	if ratio < 1.3 {
		t.Fatalf("parallel engine underperforms at 4 channels / 4 workers: %.0f vs %.0f events/sec (ratio %.3f < 1.3)",
			parallel, serial, ratio)
	}
}
