package dmamem

import (
	"math"
	"testing"
	"time"
)

// bestCaseTrace is a 40 ms trace in which, every 200 µs, one 1-page
// transfer goes out on each of the three buses to chip 0 (pages 0, 32
// and 64 under the default 32-chip interleaving); bus b's transfer
// starts b*stagger into the period.
func bestCaseTrace(t *testing.T, stagger time.Duration) *Trace {
	t.Helper()
	tr := NewTrace("best-case")
	for at := time.Duration(0); at < 40*time.Millisecond; at += 200 * time.Microsecond {
		for bus := 0; bus < 3; bus++ {
			if err := tr.AppendDMA(at+time.Duration(bus)*stagger, FromNetwork, bus, 32*bus, 1, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// TestDMATABestCase separates "the mechanism is broken" from "the
// workload offers nothing to align". Each bus alone runs a chip at
// Rb/Rm = 1/3 of its rate, so uf reaches 1 only when the three
// transfers into the chip are served together.
//
//   - Stagger 0: the three transfers already arrive together, so the
//     baseline's uf is 1 and DMA-TA has nothing left to save.
//   - Stagger 20 µs at CP-Limit 30%: the baseline serves them one at a
//     time (uf 1/3); DMA-TA must hold the early ones until the last
//     bus's transfer arrives, release all three in lockstep and save
//     at least 15%.
//
// The cost-benefit check's verdict on other staggers and on 8-page
// transfers is ROADMAP item 3's to characterise, not this test's.
func TestDMATABestCase(t *testing.T) {
	compare := func(stagger time.Duration, cpLimit float64) *Comparison {
		t.Helper()
		cmp, err := Compare(Simulation{Technique: TemporalAlignment, CPLimit: cpLimit}, bestCaseTrace(t, stagger))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("stagger %v, CP-Limit %.0f%%: uf %.3f -> %.3f, savings %.2f%%", stagger, 100*cpLimit,
			cmp.Baseline.UtilizationFactor, cmp.Technique.UtilizationFactor, 100*cmp.Savings)
		return cmp
	}

	aligned := compare(0, 0.30)
	// Reads 1.000; 0.01 of room for the first and last periods.
	if uf := aligned.Baseline.UtilizationFactor; uf < 0.99 {
		t.Errorf("stagger 0: baseline uf %.3f, want >= 0.99 (the transfers arrive aligned)", uf)
	}
	// Reads 0.00%; half a point either way.
	if s := aligned.Savings; math.Abs(s) > 0.005 {
		t.Errorf("stagger 0: DMA-TA saves %.2f%%, want about 0 (nothing to align)", 100*s)
	}

	staggered := compare(20*time.Microsecond, 0.30)
	// Reads 0.333, the lone-stream Rb/Rm.
	if uf := staggered.Baseline.UtilizationFactor; uf > 0.40 {
		t.Errorf("stagger 20 µs: baseline uf %.3f, want about 1/3 (one stream at a time)", uf)
	}
	// Reads 0.995; 0.05 below 1 for the gather's first beats.
	if uf := staggered.Technique.UtilizationFactor; uf < 0.95 {
		t.Errorf("stagger 20 µs: DMA-TA uf %.3f, want >= 0.95 (all three buses released together)", uf)
	}
	// Reads 17.70%; about 2.7 points of room.
	if s := staggered.Savings; s < 0.15 {
		t.Errorf("stagger 20 µs: DMA-TA saves %.2f%%, want >= 15%%", 100*s)
	}
	// The gather releases as the last bus's transfer arrives, so the
	// held transfers wait 40 and 20 µs and the third none: a mean of
	// 20 µs. Reads 20.03 µs; 5 µs of room each way. A release that
	// waits for the slack or the delay bound instead holds them longer.
	if d := staggered.Technique.MeanGatherDelay; d < 15*time.Microsecond || d > 25*time.Microsecond {
		t.Errorf("stagger 20 µs: mean gather delay %v, want 20 µs (released when the third bus arrives)", d)
	}
}
