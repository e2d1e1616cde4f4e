package layout

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// recordStWindow streams a Synthetic-St trace of the given duration
// straight to a .dmt container — the trace never exists in memory,
// which is what lets the 10 s window below cost the same peak heap as
// the 100 ms one.
func recordStWindow(t *testing.T, dir string, d sim.Duration) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%dms.dmt", int64(d/sim.Millisecond)))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, "Synthetic-St", trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.SetMeta(synth.SyntheticMeta())
	cfg := synth.DefaultSt()
	cfg.Duration = d
	if err := synth.GenerateStTo(cfg, w.Append); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// hotSetCoverage replays a .dmt file through a cursor, trains a
// Manager on the DMA page references of the first half of the
// records (the PL warm-up protocol), rebalances once, and measures
// what fraction of the second half's DMA page references land on
// chips the manager classified hot. That fraction is the "hot-set
// coverage" the rebalance was sized to deliver: the manager claims
// the smallest page prefix absorbing HotShare of the observed
// references, so with a perfect popularity estimate coverage would
// equal HotShare exactly.
func hotSetCoverage(t *testing.T, path string) (cov float64, hotChips, distinct int) {
	t.Helper()
	fr, err := trace.OpenDMTFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	half := fr.Summary().Records / 2

	geo := memsys.Default()
	cfg := DefaultConfig()
	lm, err := New(geo, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cur := fr.Cursor()
	seen := make(map[memsys.PageID]bool)
	var n, hot, total int64
	for {
		r, ok := cur.Next()
		if !ok {
			break
		}
		if n == half {
			lm.Rebalance(nil)
			for c := 0; c < geo.NumChips; c++ {
				if lm.groupOfChip[c] < cfg.Groups-1 {
					hotChips++
				}
			}
		}
		n++
		if !r.Kind.IsDMA() {
			continue
		}
		for p := r.Page; p < r.Page+memsys.PageID(r.Pages); p++ {
			seen[p] = true
			if n <= half {
				lm.Observe(p)
			} else {
				if lm.groupOfChip[lm.ChipOf(p)] < cfg.Groups-1 {
					hot++
				}
				total++
			}
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no DMA references after the training half")
	}
	return float64(hot) / float64(total), hotChips, len(seen)
}

// TestHotSetCoverageWindow records Synthetic-St traces 100x apart in
// length through the streaming writer and measures PL hot-set
// coverage on each: train on the first half, rebalance, count the
// fraction of later DMA references hitting hot-group chips. Coverage
// must improve monotonically with the window and converge on the
// configured HotShare design point — the quantitative form of
// EXPERIMENTS.md's "hot-set learnability" difference, and the payoff
// the on-disk trace engine exists to enable (the 10 s window replays
// in the same bounded memory as the 100 ms one).
func TestHotSetCoverageWindow(t *testing.T) {
	dir := t.TempDir()
	windows := []sim.Duration{
		100 * sim.Millisecond,
		1000 * sim.Millisecond,
		10000 * sim.Millisecond,
	}
	covs := make([]float64, len(windows))
	for i, w := range windows {
		path := recordStWindow(t, dir, w)
		cov, hotChips, distinct := hotSetCoverage(t, path)
		covs[i] = cov
		t.Logf("window %6d ms: distinct pages %6d, hot chips %d/%d, coverage %.1f%%",
			int64(w/sim.Millisecond), distinct, hotChips, memsys.Default().NumChips, 100*cov)
		if max := memsys.Default().NumChips / 4; hotChips > max {
			t.Errorf("window %v: hot set spread over %d chips, want <= %d (no consolidation)",
				w, hotChips, max)
		}
	}
	for i := 1; i < len(covs); i++ {
		if covs[i] <= covs[i-1] {
			t.Errorf("coverage did not improve with window: %.3f (window %v) <= %.3f (window %v)",
				covs[i], windows[i], covs[i-1], windows[i-1])
		}
	}
	share := DefaultConfig().HotShare
	if last := covs[len(covs)-1]; last < share-0.02 {
		t.Errorf("longest window coverage %.3f did not converge on HotShare %.2f", last, share)
	}
}
