package dmamem

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func shortSynthetic(t *testing.T) *Trace {
	t.Helper()
	tr, err := SyntheticStorageTrace(SyntheticOptions{Duration: 10 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMemoryGeometry(t *testing.T) {
	chips, per, page := MemoryGeometry()
	if chips != 32 || per != 4096 || page != 8192 {
		t.Fatalf("geometry = %d chips x %d pages x %d B", chips, per, page)
	}
}

func TestTechniqueString(t *testing.T) {
	if Baseline.String() != "baseline" || TemporalAlignmentWithLayout.String() != "dma-ta-pl" {
		t.Fatal("technique names wrong")
	}
	if Technique(42).String() == "" {
		t.Fatal("unknown technique renders empty")
	}
}

func TestRunBaseline(t *testing.T) {
	tr := shortSynthetic(t)
	rep, err := Run(Simulation{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheme != "baseline" {
		t.Fatalf("scheme = %q", rep.Scheme)
	}
	if rep.TotalEnergy <= 0 || rep.Transfers == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if got := rep.Breakdown.Total(); got <= 0 || got > rep.TotalEnergy*1.0001 || got < rep.TotalEnergy*0.9999 {
		t.Fatalf("breakdown total %g vs report total %g", got, rep.TotalEnergy)
	}
	// Figure 2(b): active-idle-DMA dominates serving in the baseline.
	if rep.Breakdown.ActiveIdleDMA <= rep.Breakdown.ActiveServing {
		t.Fatalf("idle %g <= serving %g", rep.Breakdown.ActiveIdleDMA, rep.Breakdown.ActiveServing)
	}
	if rep.String() == "" || rep.Breakdown.String() == "" {
		t.Fatal("string renderings empty")
	}
}

func TestCompareTechniques(t *testing.T) {
	tr, err := SyntheticStorageTrace(SyntheticOptions{Duration: 20 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(Simulation{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Savings <= 0 {
		t.Fatalf("DMA-TA-PL saved %.2f%%", 100*cmp.Savings)
	}
	if cmp.Technique.UtilizationFactor <= cmp.Baseline.UtilizationFactor {
		t.Fatal("uf did not improve")
	}
	if cmp.Technique.Mu <= 0 {
		t.Fatal("mu not derived from CP-Limit")
	}
}

func TestTANeedsCPLimit(t *testing.T) {
	tr := shortSynthetic(t)
	if _, err := Run(Simulation{Technique: TemporalAlignment}, tr); err == nil {
		t.Fatal("TA without CPLimit accepted")
	}
}

func TestNoPowerManagement(t *testing.T) {
	tr := shortSynthetic(t)
	rep, err := Run(Simulation{Technique: NoPowerManagement}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheme != "no-pm" {
		t.Fatalf("scheme = %q", rep.Scheme)
	}
	// Everything-active burns far more than the baseline.
	base, err := Run(Simulation{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEnergy <= base.TotalEnergy {
		t.Fatal("no-pm should cost more than baseline")
	}
	if rep.Wakes != 0 {
		t.Fatalf("no-pm woke chips %d times", rep.Wakes)
	}
}

func TestStaticPolicy(t *testing.T) {
	tr := shortSynthetic(t)
	rep, err := Run(Simulation{StaticMode: "nap"}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEnergy <= 0 {
		t.Fatal("static run produced no energy")
	}
	if _, err := Run(Simulation{StaticMode: "hibernate"}, tr); err == nil {
		t.Fatal("bogus static mode accepted")
	}
}

func TestSyntheticDatabaseTrace(t *testing.T) {
	tr, err := SyntheticDatabaseTrace(SyntheticOptions{Duration: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Summary(), "proc") {
		t.Fatalf("summary: %s", tr.Summary())
	}
	if tr.Len() == 0 || tr.Duration() <= 0 {
		t.Fatal("empty database trace")
	}
}

func TestServerTraces(t *testing.T) {
	st, err := StorageServerTrace(ServerOptions{Duration: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("empty storage trace")
	}
	db, err := DatabaseServerTrace(ServerOptions{Duration: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("empty database trace")
	}
}

func TestPopularityCurve(t *testing.T) {
	tr := shortSynthetic(t)
	pts := tr.PopularityCurve(10)
	if len(pts) == 0 {
		t.Fatal("no curve")
	}
	last := pts[len(pts)-1]
	if last.PageFrac != 1 || last.AccessFrac != 1 {
		t.Fatalf("curve does not end at (1,1): %+v", last)
	}
}

func TestManualTraceConstruction(t *testing.T) {
	tr := NewTrace("manual")
	if err := tr.AppendDMA(0, FromNetwork, 0, 0, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendDMA(10*time.Microsecond, FromDisk, 1, 32, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendProcessorAccess(20*time.Microsecond, 5, true); err != nil {
		t.Fatal(err)
	}
	tr.SetClientResponse(time.Millisecond, 1)
	rep, err := Run(Simulation{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 2 {
		t.Fatalf("transfers = %d", rep.Transfers)
	}
	// Out-of-order append rejected.
	if err := tr.AppendDMA(time.Microsecond, FromNetwork, 0, 0, 1, false); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	if err := NewTrace("x").AppendDMA(0, FromNetwork, 0, 0, 0, false); err == nil {
		t.Fatal("zero-page DMA accepted")
	}
	if err := NewTrace("x").AppendDMA(0, FromNetwork, 999, 0, 1, false); err == nil {
		t.Fatal("bad bus accepted")
	}
}

func TestCPLimitGuaranteeEndToEnd(t *testing.T) {
	// The public API's headline guarantee: DMA-TA-PL at CP-Limit 10%
	// must not degrade client-perceived response time by more than 10%
	// relative to no power management.
	tr, err := SyntheticStorageTrace(SyntheticOptions{Duration: 20 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(Simulation{Technique: NoPowerManagement}, tr)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := Run(Simulation{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Client-level budget: 10% of the declared 1 ms response per
	// critical-path transfer.
	added := ta.MeanServiceTime - ref.MeanServiceTime
	budget := time.Duration(0.10 * float64(time.Millisecond))
	if added > budget {
		t.Fatalf("added %v exceeds client budget %v", added, budget)
	}
}

func TestResidencyReported(t *testing.T) {
	tr := shortSynthetic(t)
	rep, err := Run(Simulation{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	var total, powerdown time.Duration
	for _, st := range rep.States {
		total += st.Residency
		if st.Name == "powerdown" {
			powerdown = st.Residency
		}
	}
	if total <= 0 {
		t.Fatal("no residency recorded")
	}
	// 32 chips over the metering window: residency should cover most
	// chip-time (transitions excluded).
	window := 32 * (tr.Duration() + 2*time.Millisecond)
	if total < window*9/10 || total > window {
		t.Fatalf("residency %v vs window %v", total, window)
	}
	// A lightly loaded baseline parks chips in powerdown most of the
	// time.
	if powerdown < total/2 {
		t.Fatalf("powerdown residency %v of %v", powerdown, total)
	}
}

// TestWorkersIsInert pins the deprecated Simulation.Workers as inert: a
// 4-channel run, where a second engine once gave a second answer, must
// return byte-identical reports at every value, under the baseline and
// under DMA-TA-PL.
func TestWorkersIsInert(t *testing.T) {
	tr := shortSynthetic(t)
	for _, s := range []Simulation{
		{Channels: 4},
		{Channels: 4, Technique: TemporalAlignmentWithLayout, CPLimit: 0.10},
	} {
		var want []byte
		for _, workers := range []int{0, 1, 8} {
			s.Workers = workers
			rep, err := Run(s, tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%v on 4 channels: the report at Workers %d differs from Workers 0:\n%s\n%s", s.Technique, workers, got, want)
			}
		}
	}
}
