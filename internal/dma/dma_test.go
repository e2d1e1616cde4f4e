package dma

import (
	"math"
	"testing"
	"testing/quick"

	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

func TestFromRecord(t *testing.T) {
	r := trace.Record{Time: 100, Kind: trace.DMAWrite, Source: trace.SrcDisk,
		Bus: 2, Pages: 4, Page: 77}
	x := FromRecord(9, r)
	if x.ID != 9 || x.Arrival != 100 || x.Bus != 2 || x.Pages != 4 || x.Page != 77 {
		t.Fatalf("FromRecord: %+v", x)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-DMA record accepted")
		}
	}()
	FromRecord(1, trace.Record{Kind: trace.ProcRead})
}

const (
	beat  = 7500 * sim.Picosecond // PCI-X beat (12 memory cycles)
	serve = 2500 * sim.Picosecond // request service (4 memory cycles)
)

func TestExactScheduleFig2a(t *testing.T) {
	// One stream: the chip is busy 4 of every 12 cycles -> uf = 1/3
	// (Figure 2a: "two-thirds of the active memory energy are wasted").
	sched := ExactSchedule(0, 1, 64, beat, serve)
	uf := UtilizationOf(sched)
	// The last request has no trailing idle gap, so uf is slightly
	// above 1/3 for finite streams.
	want := float64(64*serve) / float64(63*beat+serve)
	if math.Abs(uf-want) > 1e-9 {
		t.Fatalf("uf = %g, want %g", uf, want)
	}
	if uf < 0.33 || uf > 0.35 {
		t.Fatalf("uf = %g, want ~1/3", uf)
	}
	// Gaps between consecutive requests are exactly 8 cycles idle.
	first := sched[0][0]
	second := sched[0][1]
	if second.Arrive.Sub(first.Done) != beat-serve {
		t.Fatalf("idle gap = %v, want %v", second.Arrive.Sub(first.Done), beat-serve)
	}
}

func TestExactScheduleFig3Lockstep(t *testing.T) {
	// Three streams from three buses exactly saturate the chip: no
	// idle cycles, uf = 1.
	sched := ExactSchedule(0, 3, 64, beat, serve)
	if uf := UtilizationOf(sched); math.Abs(uf-1.0) > 1e-9 {
		t.Fatalf("uf = %g, want 1.0", uf)
	}
	// Lockstep: within each beat the three requests serve back to back.
	for r := 0; r < 64; r++ {
		for s := 0; s < 3; s++ {
			ev := sched[s][r]
			wantStart := sim.Time(sim.Duration(r)*beat + sim.Duration(s)*serve)
			if ev.Start != wantStart {
				t.Fatalf("stream %d req %d starts at %v, want %v", s, r, ev.Start, wantStart)
			}
		}
	}
}

func TestExactScheduleTwoStreams(t *testing.T) {
	// Two streams fill 8 of 12 cycles: uf -> 2/3.
	sched := ExactSchedule(0, 2, 128, beat, serve)
	uf := UtilizationOf(sched)
	if uf < 0.66 || uf > 0.68 {
		t.Fatalf("uf = %g, want ~2/3", uf)
	}
}

func TestExactScheduleOverload(t *testing.T) {
	// Five streams exceed chip rate: requests queue, chip 100% busy,
	// and completions slip past their beats.
	sched := ExactSchedule(0, 5, 16, beat, serve)
	if uf := UtilizationOf(sched); math.Abs(uf-1.0) > 1e-9 {
		t.Fatalf("uf = %g, want 1.0", uf)
	}
	last := sched[4][15]
	if last.Start == last.Arrive {
		t.Fatal("overloaded chip should delay requests")
	}
}

func TestExactSchedulePanics(t *testing.T) {
	for _, f := range []func(){
		func() { ExactSchedule(0, 0, 1, beat, serve) },
		func() { ExactSchedule(0, 1, 0, beat, serve) },
		func() { ExactSchedule(0, 1, 1, 0, serve) },
		func() { ExactSchedule(0, 1, 1, beat, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestUtilizationOfEmpty(t *testing.T) {
	if UtilizationOf(nil) != 0 {
		t.Fatal("empty schedule should have uf 0")
	}
}

// Property: k streams (k <= 3) produce uf ~= k/3 for long streams — the
// fluid model's utilization formula matches the exact schedule.
func TestQuickFluidAgreement(t *testing.T) {
	f := func(k8 uint8) bool {
		k := 1 + int(k8)%3
		sched := ExactSchedule(0, k, 512, beat, serve)
		uf := UtilizationOf(sched)
		fluid := float64(k) * float64(serve) / float64(beat)
		return math.Abs(uf-fluid) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
