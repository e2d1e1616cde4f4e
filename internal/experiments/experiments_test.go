package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"dmamem/internal/sim"
)

// ctx bounds the test experiments; tests are never canceled.
var ctx = context.Background()

// testSuite uses short traces so the full battery stays fast; the
// paper's shapes are already visible at this scale.
func testSuite() *Suite {
	s := NewSuite(30*sim.Millisecond, 1)
	s.DbDuration = 8 * sim.Millisecond
	return s
}

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"300mW", "3mW", "+6000 ns", "active->nap"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	s := testSuite()
	rows, err := s.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// OLTP-St targets the paper's 45 net / 16.7 disk transfers per ms.
	st := byName["OLTP-St"]
	if st.NetPerMs < 30 || st.NetPerMs > 60 {
		t.Errorf("OLTP-St net rate = %.1f/ms", st.NetPerMs)
	}
	if st.DiskPerMs < 8 || st.DiskPerMs > 30 {
		t.Errorf("OLTP-St disk rate = %.1f/ms", st.DiskPerMs)
	}
	// OLTP-Db averages ~233 processor accesses per transfer.
	db := byName["OLTP-Db"]
	if db.ProcPerTransfer < 120 || db.ProcPerTransfer > 400 {
		t.Errorf("OLTP-Db proc/xfer = %.0f", db.ProcPerTransfer)
	}
	if out := FormatTable2(rows); !strings.Contains(out, "OLTP-St") {
		t.Error("format lost workloads")
	}
}

func TestFig2bShape(t *testing.T) {
	s := testSuite()
	rows, err := s.Fig2b(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		idle := r.Fraction["active-idle-dma"]
		serving := r.Fraction["active-serving"]
		// Paper: idle 48-51%, serving 26-27%. Shape: idle dominates
		// serving by roughly 2:1, both are major components.
		if idle < serving {
			t.Errorf("%s: idle %.2f < serving %.2f", r.Label, idle, serving)
		}
		if idle < 0.25 || idle > 0.65 {
			t.Errorf("%s: idle fraction %.2f outside the paper's ballpark", r.Label, idle)
		}
		if serving < 0.10 || serving > 0.40 {
			t.Errorf("%s: serving fraction %.2f off", r.Label, serving)
		}
		// Threshold idle is small, as in the paper (3-4%).
		if thr := r.Fraction["active-idle-threshold"]; thr > 0.08 {
			t.Errorf("%s: threshold idle %.2f too large", r.Label, thr)
		}
	}
	if out := FormatBreakdowns("fig2b", rows); !strings.Contains(out, "idle-dma") {
		t.Error("format broken")
	}
}

func TestFig4Shape(t *testing.T) {
	s := testSuite()
	pts, err := s.Fig4(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no CDF")
	}
	// The 20-80 rule shape: top 20% of pages get far more than 20% of
	// accesses (paper: ~60%).
	var at20 float64
	for _, p := range pts {
		if p.PageFrac >= 0.2 {
			at20 = p.AccessFrac
			break
		}
	}
	if at20 < 0.35 {
		t.Errorf("top-20%% of pages carry only %.0f%% of accesses", 100*at20)
	}
	if out := FormatFig4(pts); out == "" {
		t.Error("empty rendering")
	}
}

func TestFig5Shape(t *testing.T) {
	s := testSuite()
	pts, err := GridRun[Fig5Point](ctx, s, GridSpec{Name: GridFig5, CPLimits: []float64{0.05, 0.30}, Groups: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	find := func(w, scheme string, cp float64) Fig5Point {
		for _, p := range pts {
			if p.Workload == w && p.Scheme == scheme && p.CPLimit == cp {
				return p
			}
		}
		t.Fatalf("missing point %s/%s/%g", w, scheme, cp)
		return Fig5Point{}
	}
	for _, w := range []string{"OLTP-St", "Synthetic-St"} {
		pl30 := find(w, "dma-ta-pl-2", 0.30)
		ta30 := find(w, "dma-ta", 0.30)
		// PL beats TA alone, and saves meaningfully.
		if pl30.Savings <= ta30.Savings {
			t.Errorf("%s: PL (%.1f%%) did not beat TA (%.1f%%)", w, 100*pl30.Savings, 100*ta30.Savings)
		}
		if pl30.Savings < 0.05 {
			t.Errorf("%s: PL savings %.1f%% too small", w, 100*pl30.Savings)
		}
		// Savings are monotone in CP-Limit.
		pl05 := find(w, "dma-ta-pl-2", 0.05)
		if pl30.Savings < pl05.Savings-0.02 {
			t.Errorf("%s: savings fell with CP-Limit: %.1f%% -> %.1f%%",
				w, 100*pl05.Savings, 100*pl30.Savings)
		}
	}
	if out := FormatFig5(pts); !strings.Contains(out, "dma-ta-pl-2") {
		t.Error("format broken")
	}
}

func TestFig6Shape(t *testing.T) {
	s := testSuite()
	rows, err := s.Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	base, tapl := rows[0], rows[2]
	// The techniques reduce the idle-DMA share; serving energy stays
	// put (same bytes served).
	if tapl.Fraction["active-idle-dma"]*tapl.TotalJ >= base.Fraction["active-idle-dma"]*base.TotalJ {
		t.Error("DMA-TA-PL did not reduce absolute idle-DMA energy")
	}
	servBase := base.Fraction["active-serving"] * base.TotalJ
	servPL := tapl.Fraction["active-serving"] * tapl.TotalJ
	if math.Abs(servBase-servPL)/servBase > 0.02 {
		t.Errorf("serving energy changed: %g -> %g", servBase, servPL)
	}
	if tapl.TotalJ >= base.TotalJ {
		t.Error("DMA-TA-PL total not below baseline")
	}
}

func TestFig7Shape(t *testing.T) {
	s := testSuite()
	pts, err := s.Fig7(ctx, []float64{0.05, 0.30})
	if err != nil {
		t.Fatal(err)
	}
	var base, pl05, pl30 float64
	for _, p := range pts {
		switch {
		case p.Scheme == "baseline":
			base = p.UF
		case p.Scheme == "dma-ta-pl" && p.CPLimit == 0.05:
			pl05 = p.UF
		case p.Scheme == "dma-ta-pl" && p.CPLimit == 0.30:
			pl30 = p.UF
		}
	}
	// Paper: baseline ~0.33; PL raises it, more at higher CP-Limit.
	if base < 0.28 || base > 0.45 {
		t.Errorf("baseline uf = %.3f, want ~1/3", base)
	}
	if pl30 <= base {
		t.Errorf("PL uf %.3f did not beat baseline %.3f", pl30, base)
	}
	if pl30 < pl05-0.02 {
		t.Errorf("uf fell with CP-Limit: %.3f -> %.3f", pl05, pl30)
	}
	if out := FormatFig7(pts); out == "" {
		t.Error("empty rendering")
	}
}

func TestFig8Shape(t *testing.T) {
	s := testSuite()
	pts, err := GridRun[SweepPoint](ctx, s, GridSpec{Name: GridFig8, RatesPerMs: []float64{25, 200}})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64
	for _, p := range pts {
		if p.Scheme != "dma-ta-pl" {
			continue
		}
		if p.X == 25 {
			lo = p.Savings
		}
		if p.X == 200 {
			hi = p.Savings
		}
	}
	// More intensive workloads give more alignment opportunity.
	if hi <= lo {
		t.Errorf("savings did not grow with intensity: %.1f%% -> %.1f%%", 100*lo, 100*hi)
	}
}

func TestFig9Shape(t *testing.T) {
	s := testSuite()
	pts, err := GridRun[SweepPoint](ctx, s, GridSpec{Name: GridFig9, PerTransfer: []int{1, 400}})
	if err != nil {
		t.Fatal(err)
	}
	var light, heavy float64
	for _, p := range pts {
		if p.Scheme != "dma-ta-pl" {
			continue
		}
		if p.X == 1 {
			light = p.Savings
		}
		if p.X == 400 {
			heavy = p.Savings
		}
	}
	if heavy >= light {
		t.Errorf("savings did not drop with processor accesses: %.1f%% -> %.1f%%",
			100*light, 100*heavy)
	}
}

func TestFig10Shape(t *testing.T) {
	s := testSuite()
	pts, err := GridRun[SweepPoint](ctx, s, GridSpec{Name: GridFig10, BusBW: []float64{3.0e9, 1.064e9}})
	if err != nil {
		t.Fatal(err)
	}
	// Savings grow with the memory:I/O bandwidth ratio; near ratio 1
	// there is little mismatch to reclaim.
	for _, w := range []string{"Synthetic-St"} {
		var low, high float64
		for _, p := range pts {
			if p.Workload != w || p.Scheme != "dma-ta-pl" {
				continue
			}
			if p.X < 1.5 {
				low = p.Savings
			} else {
				high = p.Savings
			}
		}
		if high <= low {
			t.Errorf("%s: savings at ratio 3 (%.1f%%) not above ratio ~1 (%.1f%%)",
				w, 100*high, 100*low)
		}
		if low > 0.10 {
			t.Errorf("%s: savings near ratio 1 = %.1f%%, should be small", w, 100*low)
		}
	}
	if out := FormatSweep("fig10", "ratio", pts); out == "" {
		t.Error("empty rendering")
	}
}

func TestTimelines(t *testing.T) {
	fig2a := NewTimeline(1, 4)
	if fig2a.UF < 0.33 || fig2a.UF > 0.45 {
		t.Errorf("fig2a uf = %.3f", fig2a.UF)
	}
	if !strings.Contains(fig2a.String(), "Figure 2(a)") {
		t.Error("fig2a caption missing")
	}
	fig3 := NewTimeline(3, 4)
	if math.Abs(fig3.UF-1.0) > 1e-9 {
		t.Errorf("fig3 uf = %.3f, want 1.0", fig3.UF)
	}
	// Lockstep chart: the three busy runs within a beat are adjacent.
	if !strings.Contains(fig3.String(), "####") {
		t.Error("fig3 chart lacks back-to-back service")
	}
}

func TestWorkloadCaching(t *testing.T) {
	s := testSuite()
	a, err := s.workload("Synthetic-St")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.workload("Synthetic-St")
	if a != b {
		t.Error("workload not cached")
	}
	if _, err := s.workload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
