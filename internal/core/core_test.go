package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"dmamem/internal/bus"
	"dmamem/internal/controller"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// stTrace returns a short Synthetic-St trace shared by tests.
func stTrace(t *testing.T, d sim.Duration) *trace.Trace {
	t.Helper()
	cfg := synth.DefaultSt()
	cfg.Duration, cfg.Seed = d, 1
	tr, err := synth.GenerateSt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// dbTrace returns a short Synthetic-Db trace shared by tests.
func dbTrace(t *testing.T, d sim.Duration) *trace.Trace {
	t.Helper()
	cfg := synth.DefaultDb()
	cfg.St.Duration, cfg.St.Seed = d, 2
	tr, err := synth.GenerateDb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunBaseline(t *testing.T) {
	tr := stTrace(t, 10*sim.Millisecond)
	res, err := Run(Config{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Scheme != "baseline" {
		t.Fatalf("scheme = %q", r.Scheme)
	}
	if r.Transfers == 0 {
		t.Fatal("no transfers simulated")
	}
	if r.TotalEnergy() <= 0 {
		t.Fatal("no energy")
	}
	// A lone-stream-dominated baseline sits near uf = 1/3 (some
	// arrivals overlap naturally, so a bit above).
	if r.UtilizationFactor < 0.30 || r.UtilizationFactor > 0.55 {
		t.Fatalf("baseline uf = %g, want ~1/3", r.UtilizationFactor)
	}
	// Figure 2(b) shape: active-idle-DMA exceeds serving energy.
	if r.Energy[energy.CatIdleDMA] <= r.Energy[energy.CatServing] {
		t.Fatalf("idle (%g) should exceed serving (%g)",
			r.Energy[energy.CatIdleDMA], r.Energy[energy.CatServing])
	}
}

func TestRunRejectsBadTraces(t *testing.T) {
	if _, err := Run(Config{}, &trace.Trace{Name: "empty"}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := &trace.Trace{Records: []trace.Record{
		{Time: 0, Kind: trace.DMARead, Pages: 4, Page: memsys.PageID(memsys.Default().TotalPages() - 1)},
	}}
	if _, err := Run(Config{}, bad); err == nil {
		t.Error("out-of-range page accepted")
	}
	unordered := &trace.Trace{Records: []trace.Record{
		{Time: 10, Kind: trace.DMARead, Pages: 1},
		{Time: 5, Kind: trace.DMARead, Pages: 1},
	}}
	if _, err := Run(Config{}, unordered); err == nil {
		t.Error("unordered trace accepted")
	}
	// A malformed record anywhere wins over an earlier out-of-range one.
	mixed := &trace.Trace{Name: "mixed", Records: []trace.Record{
		{Time: 0, Kind: trace.DMARead, Pages: 4, Page: memsys.PageID(memsys.Default().TotalPages() - 1)},
		{Time: 1, Kind: trace.DMARead, Pages: 0},
	}}
	if _, err := Run(Config{}, mixed); err == nil || err.Error() != `trace "mixed": record 1 is a zero-page DMA` {
		t.Errorf("mixed violations: %v, want the zero-page error", err)
	}
}

// TestRunReadsTraceOnce counts the cursors a run opens through its
// record source, in memory and from .dmt, on one channel and on two:
// the engine's cursor checks the records it serves, so a baseline or
// DMA-TA run opens that one alone, and a PL run adds one warm-up cursor
// that stops after WarmupFraction x Records records.
func TestRunReadsTraceOnce(t *testing.T) {
	tr := stTrace(t, 5*sim.Millisecond)
	path := saveDMT(t, tr, 512)
	const frac = 0.25
	warm := int(frac * float64(len(tr.Records)))
	if tr.Records[warm-1] == tr.Records[warm] {
		t.Fatal("fixture cannot tell where the warm-up stopped")
	}
	schemes := []struct {
		name    string
		cfg     Config
		cursors int
	}{
		{"baseline", Config{}, 1},
		{"dma-ta", Config{TA: controller.DefaultTA(0), CPLimit: 0.10}, 1},
		{"dma-ta-pl", Config{TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2), WarmupFraction: frac}, 2},
	}
	for _, channels := range []int{1, 2} {
		for _, file := range []bool{false, true} {
			for _, sc := range schemes {
				cfg := sc.cfg
				if channels > 1 {
					cfg.Topology = memsys.Topology{Channels: channels, ChannelBandwidth: 3.2e9}
				}
				in := tr
				if file {
					cfg.TraceFile, in = path, nil
				}
				src, err := openSource(cfg, in)
				if err != nil {
					t.Fatal(err)
				}
				var opened []*trace.Cursor
				open := src.cursor
				src.cursor = func() *trace.Cursor {
					c := open()
					opened = append(opened, c)
					return c
				}
				_, err = run(context.Background(), cfg, src)
				name := fmt.Sprintf("%s, %d channel(s), file %v", sc.name, channels, file)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(opened) != sc.cursors {
					t.Errorf("%s: opened %d cursors, want %d", name, len(opened), sc.cursors)
				}
				if sc.cursors == 2 {
					if r, ok := opened[0].Peek(); !ok || r != tr.Records[warm] {
						t.Errorf("%s: warm-up cursor stopped before %+v (ok=%v), want record %d %+v",
							name, r, ok, warm, tr.Records[warm])
					}
				}
				src.close()
			}
		}
	}
}

// TestRunFailsMidRun puts a bad record near the end of a trace, where
// the engine has long been running when the cursor reaches it: the run
// must return the check's error, not panic in Finish on an engine the
// failure left undrained, on one or two channels and from either source.
func TestRunFailsMidRun(t *testing.T) {
	tr := stTrace(t, 5*sim.Millisecond)
	last := len(tr.Records) - 3
	maxPage := memsys.PageID(memsys.Default().TotalPages())
	bad := func(r trace.Record) *trace.Trace {
		c := &trace.Trace{Name: tr.Name, Meta: tr.Meta, Records: slices.Clone(tr.Records)}
		r.Time = c.Records[last].Time
		c.Records[last] = r
		return c
	}
	cases := []struct {
		tr   *trace.Trace
		want string
	}{
		{bad(trace.Record{Kind: trace.DMAWrite, Pages: 0, Page: 3}),
			fmt.Sprintf("trace %q: record %d is a zero-page DMA", tr.Name, last)},
		{bad(trace.Record{Kind: trace.DMAWrite, Pages: 4, Page: maxPage - 1}),
			fmt.Sprintf("core: record %d touches pages [%d,%d) outside memory of %d pages", last, maxPage-1, maxPage+3, maxPage)},
	}
	topo := memsys.Topology{Channels: 2, ChannelBandwidth: 3.2e9}
	configs := []Config{
		{TA: controller.DefaultTA(0), CPLimit: 0.10},
		{TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2), WarmupFraction: 0.5},
		{TA: controller.DefaultTA(0), CPLimit: 0.10, Topology: topo},
		{TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2), Topology: topo},
	}
	for _, tc := range cases {
		path := saveDMT(t, tc.tr, 256)
		for i, cfg := range configs {
			if _, err := Run(cfg, tc.tr); err == nil || err.Error() != tc.want {
				t.Errorf("config %d in memory: %v, want %s", i, err, tc.want)
			}
			cfg.TraceFile = path
			if _, err := Run(cfg, nil); err == nil || err.Error() != tc.want {
				t.Errorf("config %d from file: %v, want %s", i, err, tc.want)
			}
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	tr := stTrace(t, 5*sim.Millisecond)
	cfg := Config{TA: controller.DefaultTA(0), CPLimit: 0.1}
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.TotalEnergy() != b.Report.TotalEnergy() {
		t.Fatal("nondeterministic energy")
	}
	if a.Mu != b.Mu {
		t.Fatal("nondeterministic mu")
	}
}

func TestCPLimitDerivesMu(t *testing.T) {
	tr := stTrace(t, 5*sim.Millisecond)
	cfg := Config{TA: controller.DefaultTA(0), CPLimit: 0.10}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mu <= 0 {
		t.Fatalf("mu = %g, want positive", res.Mu)
	}
	// Doubling the limit doubles mu.
	cfg.CPLimit = 0.20
	res2, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Mu-2*res.Mu) > 1e-9*res2.Mu {
		t.Fatalf("mu not linear in CP-Limit: %g vs %g", res.Mu, res2.Mu)
	}
}

func TestExplicitMuNotOverridden(t *testing.T) {
	tr := stTrace(t, 2*sim.Millisecond)
	cfg := Config{TA: controller.DefaultTA(7), CPLimit: 0.10}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mu != 7 {
		t.Fatalf("explicit mu overridden: %g", res.Mu)
	}
}

func TestTASavesEnergyOnSyntheticSt(t *testing.T) {
	tr := stTrace(t, 20*sim.Millisecond)
	base, ta, savings, err := RunBaselinePairParallel(context.Background(), Config{},
		Config{TA: controller.DefaultTA(0), CPLimit: 0.10},
		tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if savings <= 0 {
		t.Fatalf("DMA-TA saved %.2f%% (base %v, ta %v)",
			100*savings, base.Report.TotalEnergy(), ta.Report.TotalEnergy())
	}
	if ta.Report.UtilizationFactor <= base.Report.UtilizationFactor {
		t.Fatalf("uf did not improve: %g vs %g",
			ta.Report.UtilizationFactor, base.Report.UtilizationFactor)
	}
}

func TestTAPLSavesMoreThanTA(t *testing.T) {
	tr := stTrace(t, 20*sim.Millisecond)
	pl := layout.DefaultConfig()
	pl.Interval = 5 * sim.Millisecond // several rebalances within the short test trace
	_, ta, sTA, err := RunBaselinePairParallel(context.Background(), Config{},
		Config{TA: controller.DefaultTA(0), CPLimit: 0.10},
		tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, tapl, sTAPL, err := RunBaselinePairParallel(context.Background(), Config{},
		Config{TA: controller.DefaultTA(0), CPLimit: 0.10, PL: &pl},
		tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sTAPL <= sTA {
		t.Fatalf("DMA-TA-PL (%.2f%%) did not beat DMA-TA (%.2f%%)", 100*sTAPL, 100*sTA)
	}
	if tapl.Report.UtilizationFactor <= ta.Report.UtilizationFactor {
		t.Fatalf("PL did not raise uf: %g vs %g",
			tapl.Report.UtilizationFactor, ta.Report.UtilizationFactor)
	}
	if tapl.Rebalances == 0 {
		t.Fatal("PL never rebalanced")
	}
}

func TestCPLimitRespected(t *testing.T) {
	// The client-perceived degradation of DMA-TA must stay within the
	// requested CP-Limit, measured against the no-power-management
	// reference.
	tr := stTrace(t, 20*sim.Millisecond)
	window := tr.Duration() + 2*sim.Millisecond
	ref, err := Run(Config{Policy: policy.AlwaysActive{}, Scheme: "no-pm", MeterWindow: window}, tr)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 0.10
	res, err := Run(Config{TA: controller.DefaultTA(0), CPLimit: limit, MeterWindow: window}, tr)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Report.ClientDegradation(ref.Report, res.Calibration)
	if got > limit {
		t.Fatalf("client degradation %.3f exceeds CP-Limit %.2f", got, limit)
	}
}

func TestSchemeLabels(t *testing.T) {
	pl := layout.DefaultConfig()
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "baseline"},
		{Config{TA: controller.DefaultTA(1)}, "dma-ta"},
		{Config{TA: controller.DefaultTA(1), PL: &pl}, "dma-ta-pl"},
		{Config{Scheme: "custom"}, "custom"},
	}
	tr := stTrace(t, 1*sim.Millisecond)
	for _, c := range cases {
		res, err := Run(c.cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Scheme != c.want {
			t.Fatalf("scheme = %q, want %q", res.Report.Scheme, c.want)
		}
	}
}

func TestDbWorkloadRuns(t *testing.T) {
	res, err := Run(Config{}, dbTrace(t, 3*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Energy[energy.CatProcServing] <= 0 {
		t.Fatal("processor serving energy missing")
	}
}

func TestProcAccessesReduceSavings(t *testing.T) {
	// Figure 9's effect: more processor accesses per transfer ->
	// smaller TA savings, because the CPU consumes the idle cycles TA
	// would reclaim.
	gen := func(perXfer int) *trace.Trace {
		cfg := synth.DefaultDb()
		cfg.St.Duration = 15 * sim.Millisecond
		cfg.ProcPerTransfer = perXfer
		cfg.ProcRatePerMs = 0
		tr, err := synth.GenerateDb(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	pl := layout.DefaultConfig()
	savingsFor := func(tr *trace.Trace) float64 {
		_, _, s, err := RunBaselinePairParallel(context.Background(), Config{},
			Config{TA: controller.DefaultTA(0), CPLimit: 0.10, PL: &pl}, tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	low := savingsFor(gen(1))
	high := savingsFor(gen(400))
	if high >= low {
		t.Fatalf("savings with heavy proc traffic (%.2f%%) not below light (%.2f%%)",
			100*high, 100*low)
	}
}

func TestCalibrateFallbacks(t *testing.T) {
	bare := &trace.Trace{Records: []trace.Record{{Time: 0, Kind: trace.DMARead, Pages: 1}}}
	cal := Calibrate(bare, memsys.Default(), bus.DefaultConfig())
	if _, err := cal.Mu(0.10); err != nil {
		t.Fatal(err)
	}
	if cal.MeanClientResponse != 500*sim.Microsecond {
		t.Fatalf("fallback response = %v", cal.MeanClientResponse)
	}
	if cal.TransfersPerRequest != 1 {
		t.Fatalf("fallback transfers = %g", cal.TransfersPerRequest)
	}
}
