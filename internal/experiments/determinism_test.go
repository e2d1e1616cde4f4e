package experiments

import (
	"context"
	"reflect"
	"testing"

	"dmamem/internal/core"
	"dmamem/internal/metrics"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
)

// TestParallelDeterminism is the regression gate for the parallel
// runner: a full experiment run at parallel 2 and 8 must produce
// results, rendered tables and metrics.Report values identical to the
// sequential run. The sweep grids (Figures 5, 8, 9 and 10) start their
// points slice-strided, out of grid order, and must still come back in
// it. Anything less means parallelism leaked into the simulation.
func TestParallelDeterminism(t *testing.T) {
	want := parallelRun(t, nil)
	for _, parallel := range []int{2, 8} {
		r := &Runner{Parallel: parallel, Timings: &metrics.Timings{}}
		got := parallelRun(t, r)
		for i := range want {
			if !reflect.DeepEqual(got[i].value, want[i].value) {
				t.Errorf("parallel=%d: %s results differ from the sequential run", parallel, want[i].name)
			}
			if got[i].text != want[i].text {
				t.Errorf("parallel=%d: %s rendering differs\ngot:\n%s\nwant:\n%s", parallel, want[i].name, got[i].text, want[i].text)
			}
		}
		if timedJobs(r.Timings) == 0 {
			t.Errorf("parallel=%d: no job timings recorded", parallel)
		}
	}
}

// TestShardedGridDeterminism runs the Figure 8 grid from a SuiteSpec
// through GridRun with its points split across 1, 2 and 4 workers:
// the decoded points, and therefore any rendering of them, must equal
// the sequential run's.
func TestShardedGridDeterminism(t *testing.T) {
	spec := SuiteSpec{Duration: 10 * sim.Millisecond, Seed: 1}
	grid := GridSpec{Name: GridFig8, RatesPerMs: []float64{25, 100}}
	want, err := GridRun[SweepPoint](ctx, NewSuiteFromSpec(spec), grid)
	if err != nil {
		t.Fatal(err)
	}
	wantText := FormatSweep("t", "x", want)
	for _, shards := range []int{1, 2, 4} {
		s := NewSuiteFromSpec(spec)
		s.Runner = &Runner{Parallel: shards, Timings: &metrics.Timings{}}
		got, err := GridRun[SweepPoint](ctx, s, grid)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: points differ\ngot  %+v\nwant %+v", shards, got, want)
		}
		if gotText := FormatSweep("t", "x", got); gotText != wantText {
			t.Errorf("shards=%d: rendered output differs\ngot:\n%s\nwant:\n%s", shards, gotText, wantText)
		}
		if timedJobs(s.Runner.Timings) == 0 {
			t.Errorf("shards=%d: no job timings recorded", shards)
		}
	}
}

// parallelOutput is one experiment's results and their rendering.
type parallelOutput struct {
	name  string
	value any
	text  string
}

// parallelRun runs every experiment TestParallelDeterminism compares on
// a fresh test suite driven by r.
func parallelRun(t *testing.T, r *Runner) []parallelOutput {
	t.Helper()
	s := testSuite()
	s.Runner = r
	var out []parallelOutput
	add := func(name string, value any, err error, text func() string) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, parallelOutput{name, value, text()})
	}
	t2, err := s.Table2(ctx)
	add("Table2", t2, err, func() string { return FormatTable2(t2) })
	f2b, err := s.Fig2b(ctx)
	add("Fig2b", f2b, err, func() string { return FormatBreakdowns("fig2b", f2b) })
	f5, err := GridRun[Fig5Point](ctx, s, GridSpec{Name: GridFig5, CPLimits: []float64{0.05, 0.30}, Groups: []int{2}})
	add("Fig5", f5, err, func() string { return FormatFig5(f5) })
	f8, err := GridRun[SweepPoint](ctx, s, GridSpec{Name: GridFig8, RatesPerMs: []float64{25, 100}})
	add("Fig8", f8, err, func() string { return FormatSweep("fig8", "xfers/ms", f8) })
	f9, err := GridRun[SweepPoint](ctx, s, GridSpec{Name: GridFig9, PerTransfer: []int{0, 233}})
	add("Fig9", f9, err, func() string { return FormatSweep("fig9", "proc/xfer", f9) })
	f10, err := GridRun[SweepPoint](ctx, s, GridSpec{Name: GridFig10, BusBW: []float64{1.064e9, 3e9}})
	add("Fig10", f10, err, func() string { return FormatSweep("fig10", "ratio", f10) })
	return out
}

// TestBaselinePairParallelReports pins the metrics.Report equality at
// the core layer: the two-goroutine baseline/technique pair must
// reproduce the sequential pair's reports field for field.
func TestBaselinePairParallelReports(t *testing.T) {
	scfg := synth.DefaultSt()
	scfg.Duration, scfg.Seed = 10*sim.Millisecond, 1
	tr, err := synth.GenerateSt(scfg)
	if err != nil {
		t.Fatal(err)
	}
	tech := taConfig(0.10, plConfig(2))
	b1, t1, s1, err := core.RunBaselinePairParallel(context.Background(), core.Config{}, tech, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	b2, t2, s2, err := core.RunBaselinePairParallel(ctx, core.Config{}, tech, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1.Report, b2.Report) {
		t.Error("baseline metrics.Report differs under parallel execution")
	}
	if !reflect.DeepEqual(t1.Report, t2.Report) {
		t.Error("technique metrics.Report differs under parallel execution")
	}
	if s1 != s2 {
		t.Errorf("savings differ: %v vs %v", s1, s2)
	}
}
