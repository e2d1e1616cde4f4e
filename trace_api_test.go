package dmamem

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// TestAppendDMAErrors covers every AppendDMA rejection: bad page
// counts, bad bus numbers, negative pages, and out-of-order times. A
// rejected append must leave the trace untouched and usable.
func TestAppendDMAErrors(t *testing.T) {
	tr := NewTrace("manual")
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	bad := func(err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error = %v, want mention of %q", err, want)
		}
	}
	ok(tr.AppendDMA(10*time.Microsecond, FromNetwork, 0, 0, 1, true))

	bad(tr.AppendDMA(20*time.Microsecond, FromNetwork, 0, 0, 0, true), "pages")
	bad(tr.AppendDMA(20*time.Microsecond, FromNetwork, 0, 0, -3, true), "pages")
	bad(tr.AppendDMA(20*time.Microsecond, FromNetwork, 0, 0, 1<<15+1, true), "pages")
	bad(tr.AppendDMA(20*time.Microsecond, FromNetwork, -1, 0, 1, true), "bus")
	bad(tr.AppendDMA(20*time.Microsecond, FromDisk, 256, 0, 1, true), "bus")
	bad(tr.AppendDMA(20*time.Microsecond, FromDisk, 0, -1, 1, true), "page")
	bad(tr.AppendDMA(5*time.Microsecond, FromDisk, 0, 0, 1, true), "order")

	if tr.Len() != 1 {
		t.Fatalf("rejected appends grew the trace to %d records", tr.Len())
	}
	// The trace must still accept in-order records after rejections.
	ok(tr.AppendDMA(30*time.Microsecond, FromDisk, 1, 4, 2, false))
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

// TestAppendProcessorAccessErrors covers the processor-access
// rejections: negative page and out-of-order time.
func TestAppendProcessorAccessErrors(t *testing.T) {
	tr := NewTrace("manual")
	if err := tr.AppendProcessorAccess(10*time.Microsecond, 3, false); err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendProcessorAccess(20*time.Microsecond, -1, true); err == nil {
		t.Fatal("negative page accepted")
	}
	if err := tr.AppendProcessorAccess(5*time.Microsecond, 3, true); err == nil {
		t.Fatal("out-of-order access accepted")
	}
	if tr.Len() != 1 {
		t.Fatalf("rejected appends grew the trace to %d records", tr.Len())
	}
	// Equal timestamps are in order (many records share an instant).
	if err := tr.AppendProcessorAccess(10*time.Microsecond, 4, true); err != nil {
		t.Fatalf("same-instant append rejected: %v", err)
	}
}

// TestManualTraceRuns proves a manually built trace drives a full
// simulation (the error paths above aren't blocking the happy path).
func TestManualTraceRuns(t *testing.T) {
	tr := NewTrace("manual")
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 50 * time.Microsecond
		if err := tr.AppendDMA(at, FromNetwork, i%3, (i*7)%512, 1, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Run(Simulation{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEnergy <= 0 {
		t.Fatalf("TotalEnergy = %v", rep.TotalEnergy)
	}
}

// TestSimulationValidate walks every field's rejection range and
// confirms the zero value and defaults pass.
func TestSimulationValidate(t *testing.T) {
	valid := []Simulation{
		{},
		{Technique: TemporalAlignment, CPLimit: 0.10},
		{Technique: TemporalAlignmentWithLayout, CPLimit: 0.30,
			PLGroups: 3, PLHotShare: 0.8, PLInterval: 10 * time.Millisecond},
		{Buses: 5, BusBandwidth: 2e9, StaticMode: "nap", MemoryTech: "ddr"},
		{Technique: NoPowerManagement, StaticMode: "powerdown", MemoryTech: "rdram"},
		{Workers: 1},
		{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10, PLGroups: 129},
	}
	for i, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("valid[%d]: %v", i, err)
		}
	}
	invalid := []struct {
		s    Simulation
		want string
	}{
		{Simulation{Technique: Technique(99)}, "technique"},
		{Simulation{Technique: Technique(-1)}, "technique"},
		{Simulation{CPLimit: -0.1}, "CPLimit"},
		{Simulation{Technique: TemporalAlignment}, "CPLimit"},
		{Simulation{Technique: TemporalAlignmentWithLayout}, "CPLimit"},
		{Simulation{PLGroups: -1}, "PLGroups"},
		{Simulation{PLGroups: 1}, "PLGroups"},
		{Simulation{PLGroups: 130}, "PLGroups 130 out of range 2..129"},
		{Simulation{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10, PLGroups: 200}, "PLGroups 200"},
		{Simulation{Technique: TemporalAlignment, CPLimit: math.NaN()}, "CPLimit NaN is not a finite number"},
		{Simulation{Technique: TemporalAlignment, CPLimit: math.Inf(1)}, "CPLimit +Inf is not a finite number"},
		{Simulation{CPLimit: math.Inf(-1)}, "CPLimit -Inf is not a finite number"},
		{Simulation{PLHotShare: math.NaN()}, "PLHotShare NaN is not a finite number"},
		{Simulation{PLHotShare: math.Inf(1)}, "PLHotShare +Inf"},
		{Simulation{BusBandwidth: math.NaN()}, "BusBandwidth NaN is not a finite number"},
		{Simulation{BusBandwidth: math.Inf(1)}, "BusBandwidth +Inf"},
		{Simulation{Channels: 4, ChannelBandwidth: math.NaN()}, "ChannelBandwidth NaN is not a finite number"},
		{Simulation{Channels: 4, ChannelBandwidth: math.Inf(1)}, "ChannelBandwidth +Inf"},
		{Simulation{PLHotShare: -0.5}, "PLHotShare"},
		{Simulation{PLHotShare: 1.0}, "PLHotShare"},
		{Simulation{PLHotShare: 1.5}, "PLHotShare"},
		{Simulation{PLInterval: -time.Millisecond}, "PLInterval"},
		{Simulation{Buses: -2}, "bus count"},
		{Simulation{BusBandwidth: -1}, "BusBandwidth"},
		{Simulation{StaticMode: "doze"}, "static mode"},
		{Simulation{MemoryTech: "sram"}, "memory technology"},
		{Simulation{Workers: -1}, "negative Workers -1"},
	}
	for i, c := range invalid {
		err := c.s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("invalid[%d]: error = %v, want mention of %q", i, err, c.want)
		}
	}
}

// TestRunAndCompareValidateLoudly proves the entry points surface
// Validate errors instead of silently falling back to defaults.
func TestRunAndCompareValidateLoudly(t *testing.T) {
	tr, err := SyntheticStorageTrace(SyntheticOptions{Duration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	badSims := []Simulation{
		{PLHotShare: 2},
		{StaticMode: "hibernate"},
		{Technique: TemporalAlignment, CPLimit: -0.10},
	}
	for i, s := range badSims {
		if _, err := Run(s, tr); err == nil {
			t.Errorf("Run accepted invalid simulation %d", i)
		}
		if _, err := Compare(s, tr); err == nil {
			t.Errorf("Compare accepted invalid simulation %d", i)
		}
	}
}

// TestSyntheticBadAlpha: a Zipf skew that is negative, NaN or infinite
// is an error naming Alpha from both synthetic generators, not a panic
// or a degenerate trace.
func TestSyntheticBadAlpha(t *testing.T) {
	for _, alpha := range []float64{-1, math.NaN(), math.Inf(1)} {
		o := SyntheticOptions{Duration: time.Millisecond, Alpha: alpha}
		if _, err := SyntheticStorageTrace(o); err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Errorf("storage, Alpha %g: error %v, want one naming Alpha", alpha, err)
		}
		if _, err := SyntheticDatabaseTrace(o); err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Errorf("database, Alpha %g: error %v, want one naming Alpha", alpha, err)
		}
	}
}

// TestCompareContextCancel: a cancelled context aborts the comparison
// mid-run with the context's error.
func TestCompareContextCancel(t *testing.T) {
	tr, err := SyntheticStorageTrace(SyntheticOptions{Duration: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallel := range []int{1, 2} {
		_, err = CompareContext(ctx, Simulation{Technique: TemporalAlignment, CPLimit: 0.10}, tr, parallel)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallel=%d: err = %v, want context.Canceled", parallel, err)
		}
	}
}

// TestServerOptionOverrides pins the shared option-defaulting helper:
// zero keeps the model default, non-zero overrides, for all four
// generator entry points.
func TestServerOptionOverrides(t *testing.T) {
	short, err := StorageServerTrace(ServerOptions{Duration: 2 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d := short.Duration(); d > 3*time.Millisecond {
		t.Errorf("duration override ignored: %v", d)
	}
	dflt, err := StorageServerTrace(ServerOptions{Duration: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reseeded, err := StorageServerTrace(ServerOptions{Duration: 2 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if dflt.Len() == 0 || short.Len() != reseeded.Len() {
		t.Errorf("seed determinism: %d vs %d records", short.Len(), reseeded.Len())
	}
	slow, err := SyntheticDatabaseTrace(SyntheticOptions{Duration: 2 * time.Millisecond, RatePerMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := SyntheticDatabaseTrace(SyntheticOptions{Duration: 2 * time.Millisecond, RatePerMs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Len() >= fast.Len() {
		t.Errorf("rate override ignored: %d records at 10/ms vs %d at 300/ms", slow.Len(), fast.Len())
	}
}
