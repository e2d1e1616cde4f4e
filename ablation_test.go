package dmamem

// Ablation benchmarks for the design choices DESIGN.md calls out, each
// comparing DMA-TA-PL variants on the same trace (go test
// -bench=Ablation). Metrics are energy savings over the shared
// baseline, so each bench reads as a mini study:
//
//   - epoch-length sensitivity (the paper claims insensitivity)
//   - gather target k (release at 2 vs 3 distinct buses)
//   - PL hot share p
//   - PL migration interval
//   - migration hysteresis (our optional addition; the paper has none)
//   - gating cost-benefit check (on by default; the paper gates always)
//   - static vs dynamic low-level policy beneath DMA-TA (Section 2.2)
//   - transfer-size variance (unequal sizes break lockstep)
//   - memory technology (RDRAM vs DDR400; Section 5.4)

import (
	"context"
	"testing"
	"time"

	"dmamem/internal/controller"
	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

func ablationTrace(b *testing.B) *trace.Trace {
	b.Helper()
	cfg := synth.DefaultSt()
	cfg.Duration, cfg.Seed = 25*sim.Millisecond, 1
	tr, err := synth.GenerateSt(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func savingsOf(b *testing.B, cfg core.Config, tr *trace.Trace) float64 {
	b.Helper()
	_, _, s, err := core.RunBaselinePairParallel(context.Background(), core.Config{}, cfg, tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func taplConfig() core.Config {
	pl := layout.DefaultConfig()
	return core.Config{TA: controller.DefaultTA(0), CPLimit: 0.10, PL: &pl}
}

// BenchmarkAblationEpochLength verifies the paper's claim that results
// are insensitive to the epoch setting used for slack accounting.
func BenchmarkAblationEpochLength(b *testing.B) {
	tr := ablationTrace(b)
	var s2, s10, s50 float64
	for i := 0; i < b.N; i++ {
		for _, e := range []struct {
			len  sim.Duration
			dest *float64
		}{
			{2 * sim.Microsecond, &s2},
			{10 * sim.Microsecond, &s10},
			{50 * sim.Microsecond, &s50},
		} {
			cfg := taplConfig()
			ta := *cfg.TA
			ta.EpochLength = e.len
			cfg.TA = &ta
			*e.dest = savingsOf(b, cfg, tr)
		}
	}
	b.ReportMetric(100*s2, "epoch2us%")
	b.ReportMetric(100*s10, "epoch10us%")
	b.ReportMetric(100*s50, "epoch50us%")
}

// BenchmarkAblationGatherTarget compares releasing at 2 vs 3 distinct
// buses: partial alignment (uf 2/3) sooner versus full alignment
// later.
func BenchmarkAblationGatherTarget(b *testing.B) {
	tr := ablationTrace(b)
	var k2, k3 float64
	for i := 0; i < b.N; i++ {
		for _, k := range []struct {
			k    int
			dest *float64
		}{{2, &k2}, {3, &k3}} {
			cfg := taplConfig()
			ta := *cfg.TA
			ta.GatherTarget = k.k
			cfg.TA = &ta
			*k.dest = savingsOf(b, cfg, tr)
		}
	}
	b.ReportMetric(100*k2, "k2%")
	b.ReportMetric(100*k3, "k3%")
}

// BenchmarkAblationHotShare sweeps PL's p parameter (fraction of DMA
// requests the hot chips absorb).
func BenchmarkAblationHotShare(b *testing.B) {
	tr := ablationTrace(b)
	var s40, s60, s80 float64
	for i := 0; i < b.N; i++ {
		for _, h := range []struct {
			p    float64
			dest *float64
		}{{0.4, &s40}, {0.6, &s60}, {0.8, &s80}} {
			cfg := taplConfig()
			pl := *cfg.PL
			pl.HotShare = h.p
			cfg.PL = &pl
			*h.dest = savingsOf(b, cfg, tr)
		}
	}
	b.ReportMetric(100*s40, "p40%")
	b.ReportMetric(100*s60, "p60%")
	b.ReportMetric(100*s80, "p80%")
}

// BenchmarkAblationMigrationInterval sweeps PL's rebalance period.
func BenchmarkAblationMigrationInterval(b *testing.B) {
	tr := ablationTrace(b)
	var s5, s20 float64
	for i := 0; i < b.N; i++ {
		for _, m := range []struct {
			iv   sim.Duration
			dest *float64
		}{{5 * sim.Millisecond, &s5}, {20 * sim.Millisecond, &s20}} {
			cfg := taplConfig()
			pl := *cfg.PL
			pl.Interval = m.iv
			cfg.PL = &pl
			*m.dest = savingsOf(b, cfg, tr)
		}
	}
	b.ReportMetric(100*s5, "5ms%")
	b.ReportMetric(100*s20, "20ms%")
}

// BenchmarkAblationHysteresis compares PL with and without the
// migration hysteresis we add on top of the paper.
func BenchmarkAblationHysteresis(b *testing.B) {
	tr := ablationTrace(b)
	var off, on float64
	for i := 0; i < b.N; i++ {
		cfg := taplConfig()
		off = savingsOf(b, cfg, tr)
		pl := *cfg.PL
		pl.MigrateRatio = 2
		cfg.PL = &pl
		on = savingsOf(b, cfg, tr)
	}
	b.ReportMetric(100*off, "off%")
	b.ReportMetric(100*on, "on%")
}

// BenchmarkAblationCostBenefit compares the default gating cost-benefit
// check against the paper's unconditional gating.
func BenchmarkAblationCostBenefit(b *testing.B) {
	tr := ablationTrace(b)
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfg := taplConfig()
		with = savingsOf(b, cfg, tr)
		ta := *cfg.TA
		ta.NoCostBenefit = true
		cfg.TA = &ta
		without = savingsOf(b, cfg, tr)
	}
	b.ReportMetric(100*with, "with%")
	b.ReportMetric(100*without, "without%")
}

// BenchmarkAblationStaticPolicy runs DMA-TA-PL on top of static
// low-level policies (the paper notes the techniques apply to both).
func BenchmarkAblationStaticPolicy(b *testing.B) {
	tr := ablationTrace(b)
	// Each variant is compared against a baseline running the SAME
	// low-level policy, so the metric isolates what DMA-TA-PL adds.
	vs := func(pol policy.Policy) float64 {
		base := core.Config{Policy: pol}
		cfg := taplConfig()
		cfg.Policy = pol
		_, _, s, err := core.RunBaselinePairParallel(context.Background(), base, cfg, tr, 1)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	var dynamic, nap, powerdown float64
	for i := 0; i < b.N; i++ {
		dynamic = vs(policy.ChainFor(energy.RDRAM()))
		nap = vs(&policy.Static{Mode: 2})
		powerdown = vs(&policy.Static{Mode: 3})
	}
	b.ReportMetric(100*dynamic, "dynamic%")
	b.ReportMetric(100*nap, "static-nap%")
	b.ReportMetric(100*powerdown, "static-pd%")
}

// BenchmarkAblationTransferSizes compares uniform 8 KB transfers with
// the mixed-size distribution: unequal gathered members fall out of
// lockstep when the short ones finish.
func BenchmarkAblationTransferSizes(b *testing.B) {
	var uniform, mixed float64
	for i := 0; i < b.N; i++ {
		trU, err := SyntheticStorageTrace(SyntheticOptions{Duration: 25 * time.Millisecond, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		trM, err := SyntheticStorageTrace(SyntheticOptions{Duration: 25 * time.Millisecond, Seed: 1, MixedSizes: true})
		if err != nil {
			b.Fatal(err)
		}
		cu, err := Compare(Simulation{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10}, trU)
		if err != nil {
			b.Fatal(err)
		}
		cm, err := Compare(Simulation{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10}, trM)
		if err != nil {
			b.Fatal(err)
		}
		uniform, mixed = cu.Savings, cm.Savings
	}
	b.ReportMetric(100*uniform, "uniform%")
	b.ReportMetric(100*mixed, "mixed%")
}

// BenchmarkAblationMemoryTech compares RDRAM (ratio ~3) with DDR400
// (ratio ~2): Section 5.4's "similar analysis, different absolute
// numbers".
func BenchmarkAblationMemoryTech(b *testing.B) {
	var rdram, ddr float64
	for i := 0; i < b.N; i++ {
		tr, err := SyntheticStorageTrace(SyntheticOptions{Duration: 25 * time.Millisecond, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cr, err := Compare(Simulation{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10}, tr)
		if err != nil {
			b.Fatal(err)
		}
		cd, err := Compare(Simulation{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10, MemoryTech: "ddr"}, tr)
		if err != nil {
			b.Fatal(err)
		}
		rdram, ddr = cr.Savings, cd.Savings
	}
	b.ReportMetric(100*rdram, "rdram%")
	b.ReportMetric(100*ddr, "ddr%")
}

// BenchmarkAblationBaselineLayout compares interleaved and sequential
// baseline page layouts beneath the techniques.
func BenchmarkAblationBaselineLayout(b *testing.B) {
	tr := ablationTrace(b)
	var interleaved, sequential float64
	for i := 0; i < b.N; i++ {
		interleaved = savingsOf(b, taplConfig(), tr)
		seqBase := core.Config{Mapper: seqMapper()}
		cfg := taplConfig()
		window := tr.Duration() + 2*sim.Millisecond
		seqBase.MeterWindow = window
		cfg.MeterWindow = window
		baseRes, err := core.Run(seqBase, tr)
		if err != nil {
			b.Fatal(err)
		}
		techRes, err := core.Run(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		sequential = techRes.Report.Savings(baseRes.Report)
	}
	b.ReportMetric(100*interleaved, "vs-interleaved%")
	b.ReportMetric(100*sequential, "vs-sequential%")
}

func seqMapper() memsys.Mapper {
	g := memsys.Default()
	return memsys.Topology{Channels: g.NumChips, StripePages: g.PagesPerChip()}.Mapper(g)
}
