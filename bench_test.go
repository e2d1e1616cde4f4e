package dmamem

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (go test -bench=. -benchmem). Each benchmark runs
// the corresponding experiment end to end — trace generation included —
// and attaches the headline quantity of the figure as a custom metric,
// so the harness output doubles as a results table:
//
//	savings%     energy saved over the baseline
//	uf           utilization factor
//	idle%        active-idle-DMA share of total energy
//
// The traces are shorter than the CLI defaults to keep -bench runs in
// seconds per figure; EXPERIMENTS.md records a full-length run.

import (
	"context"
	"testing"

	"dmamem/internal/experiments"
	"dmamem/internal/sim"
)

const (
	benchDuration   = 25 * sim.Millisecond
	benchDbDuration = 8 * sim.Millisecond
)

// ctx bounds the benchmark experiments; benchmarks are never canceled.
var ctx = context.Background()

func benchSuite() *experiments.Suite {
	s := experiments.NewSuite(benchDuration, 1)
	s.DbDuration = benchDbDuration
	return s
}

// BenchmarkTable2TraceGeneration regenerates the four workload traces
// of Table 2.
func BenchmarkTable2TraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Table2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].NetPerMs, "OLTP-St-net/ms")
			b.ReportMetric(rows[2].ProcPerTransfer, "OLTP-Db-proc/xfer")
		}
	}
}

// BenchmarkFig2aTimeline regenerates the single-stream timeline.
func BenchmarkFig2aTimeline(b *testing.B) {
	var uf float64
	for i := 0; i < b.N; i++ {
		uf = experiments.NewTimeline(1, 64).UF
	}
	b.ReportMetric(uf, "uf")
}

// BenchmarkFig3Lockstep regenerates the aligned-stream timeline.
func BenchmarkFig3Lockstep(b *testing.B) {
	var uf float64
	for i := 0; i < b.N; i++ {
		uf = experiments.NewTimeline(3, 64).UF
	}
	b.ReportMetric(uf, "uf")
}

// BenchmarkFig2bBreakdown measures the baseline energy breakdown
// (paper: 48-51% active-idle-DMA, 26-27% serving).
func BenchmarkFig2bBreakdown(b *testing.B) {
	var idle, serving float64
	for i := 0; i < b.N; i++ {
		rows, err := benchSuite().Fig2b(ctx)
		if err != nil {
			b.Fatal(err)
		}
		idle = rows[0].Fraction["active-idle-dma"]
		serving = rows[0].Fraction["active-serving"]
	}
	b.ReportMetric(100*idle, "idle%")
	b.ReportMetric(100*serving, "serving%")
}

// BenchmarkFig4PopularityCDF measures the OLTP-St popularity skew
// (paper: ~20% of pages receive ~60% of DMA accesses).
func BenchmarkFig4PopularityCDF(b *testing.B) {
	var at20 float64
	for i := 0; i < b.N; i++ {
		pts, err := benchSuite().Fig4(ctx, 10)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.PageFrac >= 0.2 {
				at20 = p.AccessFrac
				break
			}
		}
	}
	b.ReportMetric(100*at20, "top20share%")
}

// BenchmarkFig5Savings sweeps CP-Limit for DMA-TA and DMA-TA-PL(2)
// over the storage workloads (paper: up to 38.6% at 10% CP-Limit).
func BenchmarkFig5Savings(b *testing.B) {
	var pl10 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.GridRun[experiments.Fig5Point](ctx, benchSuite(),
			experiments.GridSpec{Name: experiments.GridFig5, CPLimits: []float64{0.10, 0.30}, Groups: []int{2}})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Workload == "Synthetic-St" && p.Scheme == "dma-ta-pl-2" && p.CPLimit == 0.10 {
				pl10 = p.Savings
			}
		}
	}
	b.ReportMetric(100*pl10, "savings%")
}

// BenchmarkFig5GroupCount compares 2, 3 and 6 popularity groups on
// OLTP-St (paper: 2 groups best; 6 groups can lose).
func BenchmarkFig5GroupCount(b *testing.B) {
	var g2, g6 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.GridRun[experiments.Fig5Point](ctx, benchSuite(),
			experiments.GridSpec{Name: experiments.GridFig5, CPLimits: []float64{0.10}, Groups: []int{2, 3, 6}})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Workload == "OLTP-St" && p.CPLimit == 0.10 {
				switch p.Scheme {
				case "dma-ta-pl-2":
					g2 = p.Savings
				case "dma-ta-pl-6":
					g6 = p.Savings
				}
			}
		}
	}
	b.ReportMetric(100*g2, "2groups%")
	b.ReportMetric(100*g6, "6groups%")
}

// BenchmarkFig6Breakdown compares the scheme breakdowns on OLTP-St at
// 10% CP-Limit.
func BenchmarkFig6Breakdown(b *testing.B) {
	var baseIdle, plIdle float64
	for i := 0; i < b.N; i++ {
		rows, err := benchSuite().Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
		baseIdle = rows[0].Fraction["active-idle-dma"] * rows[0].TotalJ
		plIdle = rows[2].Fraction["active-idle-dma"] * rows[2].TotalJ
	}
	b.ReportMetric(1e3*baseIdle, "base-idle-mJ")
	b.ReportMetric(1e3*plIdle, "pl-idle-mJ")
}

// BenchmarkFig7Utilization sweeps the utilization factor (paper:
// baseline ~0.33, DMA-TA-PL ~0.63 at 10% and ~0.75 at 30%).
func BenchmarkFig7Utilization(b *testing.B) {
	var base, pl30 float64
	for i := 0; i < b.N; i++ {
		pts, err := benchSuite().Fig7(ctx, []float64{0.10, 0.30})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Scheme == "baseline" {
				base = p.UF
			}
			if p.Scheme == "dma-ta-pl" && p.CPLimit == 0.30 {
				pl30 = p.UF
			}
		}
	}
	b.ReportMetric(base, "uf-base")
	b.ReportMetric(pl30, "uf-pl30")
}

// BenchmarkFig8Intensity sweeps the workload intensity (paper: more
// intensive workloads save more).
func BenchmarkFig8Intensity(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.GridRun[experiments.SweepPoint](ctx, benchSuite(),
			experiments.GridSpec{Name: experiments.GridFig8, RatesPerMs: []float64{50, 200}})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Scheme != "dma-ta-pl" {
				continue
			}
			if p.X == 50 {
				lo = p.Savings
			} else {
				hi = p.Savings
			}
		}
	}
	b.ReportMetric(100*lo, "at50%")
	b.ReportMetric(100*hi, "at200%")
}

// BenchmarkFig9ProcAccesses sweeps processor accesses per transfer
// (paper: savings fall as the CPU consumes the idle cycles).
func BenchmarkFig9ProcAccesses(b *testing.B) {
	var light, heavy float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.GridRun[experiments.SweepPoint](ctx, benchSuite(),
			experiments.GridSpec{Name: experiments.GridFig9, PerTransfer: []int{0, 233}})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Scheme != "dma-ta-pl" {
				continue
			}
			if p.X == 0 {
				light = p.Savings
			} else {
				heavy = p.Savings
			}
		}
	}
	b.ReportMetric(100*light, "at0%")
	b.ReportMetric(100*heavy, "at233%")
}

// BenchmarkFig10BandwidthRatio sweeps the memory:I/O bandwidth ratio
// (paper: ~5% savings near ratio 1, growing with the ratio).
func BenchmarkFig10BandwidthRatio(b *testing.B) {
	var near1, at3 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.GridRun[experiments.SweepPoint](ctx, benchSuite(),
			experiments.GridSpec{Name: experiments.GridFig10, BusBW: []float64{3.0e9, 1.064e9}})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Workload != "Synthetic-St" || p.Scheme != "dma-ta-pl" {
				continue
			}
			if p.X < 1.5 {
				near1 = p.Savings
			} else {
				at3 = p.Savings
			}
		}
	}
	b.ReportMetric(100*near1, "ratio1%")
	b.ReportMetric(100*at3, "ratio3%")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: events
// and transfers per second of wall time over the baseline Synthetic-St
// run. -benchmem (or the ReportAllocs below) shows the hot-path
// allocation behavior; events/sec is attached as a custom metric.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := SyntheticStorageTrace(SyntheticOptions{Duration: 25_000_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		r, err := Run(Simulation{}, tr)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkStorageSchemes times one simulation of a 200 ms OLTP-St
// trace per scheme — the per-event hot path of the bus allocator,
// controller bookkeeping and (for DMA-TA-PL) layout rebalances, with
// trace generation outside the timer. allocs/op is the whole run's
// allocation count, set-up included.
func BenchmarkStorageSchemes(b *testing.B) {
	tr, err := StorageServerTrace(ServerOptions{Duration: 200_000_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []Technique{Baseline, TemporalAlignment, TemporalAlignmentWithLayout} {
		sim := Simulation{Technique: t}
		if t != Baseline {
			sim.CPLimit = 0.10
		}
		b.Run(t.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(sim, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
