package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// -update regenerates the golden corpus under testdata/golden/ from
// the current simulator:
//
//	go test -run TestGolden -update ./internal/experiments/
//
// Goldens pin every float of every metrics.Report bit for bit, so any
// intentional change to simulation arithmetic must regenerate them and
// the diff reviews as part of the change. Floats are written in Go's
// shortest round-trip form and are architecture-pinned (CI is amd64;
// FMA contraction on other architectures could legally differ).
var updateGolden = flag.Bool("update", false, "rewrite the golden report corpus from the current simulator")

// goldenSuite mirrors the cross-check suites: 4 ms traces (2 ms for
// the denser database workloads), seed 1.
func goldenSuite() *Suite {
	s := NewSuite(4*sim.Millisecond, 1)
	s.DbDuration = 2 * sim.Millisecond
	return s
}

// goldenSchemes are the Table 2 schemes the corpus pins per workload.
func goldenSchemes() []struct {
	label string
	cfg   core.Config
} {
	return []struct {
		label string
		cfg   core.Config
	}{
		{"baseline", core.Config{}},
		{"dma-ta", taConfig(0.10, nil)},
		{"dma-ta-pl", taConfig(0.10, plConfig(2))},
	}
}

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", "golden", name)
}

// writeOrCompareGolden marshals v and either rewrites the golden file
// (-update) or byte-compares against it, with a field-by-field report
// on mismatch when both sides unmarshal into the same type.
func writeOrCompareGolden[T any](t *testing.T, path string, v T) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal %s: %v", path, err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to generate): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantV T
	if err := json.Unmarshal(want, &wantV); err != nil {
		t.Fatalf("%s drifted and the committed golden no longer parses: %v", path, err)
	}
	t.Errorf("%s drifted from the golden corpus:\n%s\n(run with -update after reviewing the change)",
		path, diffFields("", reflect.ValueOf(v), reflect.ValueOf(wantV)))
}

// diffFields renders the differing leaves of two values of the same
// type, one "path: got != want" line each, so a golden failure names
// the drifted fields instead of dumping two full reports.
func diffFields(path string, got, want reflect.Value) string {
	if got.Type() != want.Type() {
		return fmt.Sprintf("%s: type %v != %v\n", path, got.Type(), want.Type())
	}
	switch got.Kind() {
	case reflect.Pointer, reflect.Interface:
		if got.IsNil() != want.IsNil() {
			return fmt.Sprintf("%s: nilness %v != %v\n", path, got.IsNil(), want.IsNil())
		}
		if got.IsNil() {
			return ""
		}
		return diffFields(path, got.Elem(), want.Elem())
	case reflect.Struct:
		var b strings.Builder
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			b.WriteString(diffFields(path+"."+name, got.Field(i), want.Field(i)))
		}
		return b.String()
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			return fmt.Sprintf("%s: length %d != %d\n", path, got.Len(), want.Len())
		}
		var b strings.Builder
		for i := 0; i < got.Len(); i++ {
			b.WriteString(diffFields(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i)))
		}
		return b.String()
	default:
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			return fmt.Sprintf("%s: %v != %v\n", path, got.Interface(), want.Interface())
		}
		return ""
	}
}

// TestGoldenReports diffs the canonical report of every Table 2
// workload x scheme against the committed corpus, field by field. The
// corpus is the regression net for hot-path rewrites: any change that
// moves a single float or event count anywhere in the simulator fails
// here with the exact drifted fields named.
func TestGoldenReports(t *testing.T) {
	s := goldenSuite()
	for _, name := range workloadNames {
		tr, err := s.workload(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		window := tr.Duration() + 2*sim.Millisecond
		for _, sc := range goldenSchemes() {
			sc := sc
			t.Run(name+"/"+sc.label, func(t *testing.T) {
				cfg := sc.cfg
				cfg.MeterWindow = window
				res, err := core.Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				file := fmt.Sprintf("%s_%s.json", strings.ToLower(name), sc.label)
				writeOrCompareGolden(t, goldenPath(t, file), res.Report)
			})
		}
	}
}

// goldenTechs are the non-default power-model backends the corpus
// pins: a 5-state DDR4 part and a 3-state LPDDR4 part, so the corpus
// covers state machines both deeper and shallower than RDRAM's four.
var goldenTechs = []string{"ddr4-2400", "lpddr4"}

// TestGoldenTechReports diffs Synthetic-St under every Table 2 scheme
// and non-default technology backend against the committed corpus, and
// holds every report to the per-state energy identity: resident state
// energies plus transition and migration energy recover the system
// total (up to float summation order).
func TestGoldenTechReports(t *testing.T) {
	s := goldenSuite()
	tr, err := s.workload("Synthetic-St")
	if err != nil {
		t.Fatal(err)
	}
	window := tr.Duration() + 2*sim.Millisecond
	for _, tech := range goldenTechs {
		for _, sc := range goldenSchemes() {
			tech, sc := tech, sc
			t.Run(tech+"/"+sc.label, func(t *testing.T) {
				cfg := sc.cfg
				cfg.Tech = tech
				cfg.MeterWindow = window
				res, err := core.Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				r := res.Report
				sum := r.Energy[energy.CatTransition] + r.Energy[energy.CatMigration]
				for _, j := range r.StateEnergy {
					sum += j
				}
				if total := r.TotalEnergy(); math.Abs(sum-total) > 1e-9*math.Max(1, math.Abs(total)) {
					t.Errorf("state energies sum to %.12g J, total %.12g J", sum, total)
				}
				file := fmt.Sprintf("synthetic-st_%s_%s.json", sc.label, tech)
				writeOrCompareGolden(t, goldenPath(t, file), r)
			})
		}
	}
}

// fig10ChannelsSpec is the multi-channel sweep slice the golden
// pins: one workload and bus bandwidth, swept over 1/2/4 channels.
func fig10ChannelsSpec() GridSpec {
	return GridSpec{
		Name:      GridFig10,
		Workloads: []string{"Synthetic-St"},
		BusBW:     []float64{1.064e9},
		Channels:  []int{1, 2, 4},
	}
}

// TestGoldenMultiChannelSweep pins the multi-channel figure 10 points
// against the corpus and proves the runner reproduces them at 2 and 4
// goroutines, whose slice-strided dispatch starts the points out of
// grid order. Running under -race in CI makes this the "golden corpus
// passes under -race at parallel 1/2/4" gate.
func TestGoldenMultiChannelSweep(t *testing.T) {
	spec := fig10ChannelsSpec()
	want, err := GridRun[SweepPoint](ctx, goldenSuite(), spec)
	if err != nil {
		t.Fatal(err)
	}
	writeOrCompareGolden(t, goldenPath(t, "fig10_channels.json"), want)
	for _, parallel := range []int{2, 4} {
		s := goldenSuite()
		s.Runner = NewRunner(parallel)
		got, err := GridRun[SweepPoint](ctx, s, spec)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel=%d: multi-channel points differ\ngot  %+v\nwant %+v", parallel, got, want)
		}
	}
}
