package controller

import (
	"math/rand"
	"slices"
	"testing"

	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// accountChipGeneral is the general span charge: every chip, with or
// without flows, goes through the float envelope arithmetic, and the
// burst coverage is folded from the flow rates on every span. The
// controller's accountChip charges a flowless chip in integers and
// reads the coverage recompute cached; TestSpanMatchesGeneral holds
// it to this formula.
func accountChipGeneral(c *Controller, cs *chipState, now sim.Time) {
	span := now.Sub(cs.chip.Cursor())
	if span <= 0 {
		return
	}
	var delivered float64
	var notCovered = 1.0
	if len(cs.flows) > 0 {
		busRate := make([]float64, c.cfg.Buses.Count)
		for _, f := range cs.flows {
			d := f.rate * span.Seconds()
			if d > f.remaining {
				d = f.remaining
			}
			f.remaining -= d
			delivered += d
			busRate[f.bus] += f.rate
		}
		for b := 0; b < c.cfg.Buses.Count; b++ {
			fb := busRate[b] / c.cfg.Buses.Bandwidth
			if fb > 1 {
				fb = 1
			}
			notCovered *= 1 - fb
		}
	}
	envelope := sim.Duration(float64(span) * (1 - notCovered))
	serving := sim.FromSeconds(delivered / c.cfg.Geometry.ChipBandwidth)
	if serving > envelope {
		envelope = serving
	}
	if envelope > span {
		envelope = span
	}
	idle := envelope - serving
	proc := cs.procBusy
	cs.procBusy = 0
	absorbed := proc
	if absorbed > idle {
		absorbed = idle
	}
	idleDMA := idle - absorbed
	procExtra := proc - absorbed
	if envelope+procExtra > span {
		spill := envelope + procExtra - span
		procExtra = span - envelope
		cs.procBusy += spill
		c.clampedProc++
	}
	microNap := sim.Duration(0)
	if len(cs.flows) > 0 {
		microNap = span - envelope - procExtra
	}
	cs.chip.AccountActiveSpan(now, serving, absorbed+procExtra, idleDMA, microNap)
	if c.taOn && delivered > 0 {
		c.slack += c.muT * (delivered / c.reqBytes)
	}
}

// TestSpanMatchesGeneral charges random spans, with random processor
// work pending (none, less than the span, exactly the span, and more,
// so the clamp fires and spills), through accountChip on one
// controller and accountChipGeneral on its twin. Chip ledgers, the
// carried processor work, the clamp count, the slack and the flow
// remainders must match exactly: on an idle chip (the integer path)
// and on a chip with a standing flow on every bus (the cached burst
// coverage).
func TestSpanMatchesGeneral(t *testing.T) {
	const lineTime = 20 * sim.Nanosecond
	for _, tc := range []struct {
		name  string
		flows bool
	}{{"flowless", false}, {"flows", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				build := func() (*Controller, *chipState) {
					cfg := baseConfig()
					cfg.InitialState = energy.Active
					cfg.TA = DefaultTA(0.5)
					eng := sim.New()
					c, err := New(eng, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if tc.flows {
						for b := 0; b < cfg.Buses.Count; b++ {
							x := dma.Transfer{ID: int64(b), Arrival: sim.Time(sim.Microsecond), Bus: b, Page: 0, Pages: 64}
							eng.SchedulePrio(x.Arrival, prioArrival, func(*sim.Engine) { c.StartTransfer(x) })
						}
						eng.RunUntil(sim.Time(2 * sim.Microsecond))
					}
					return c, c.chips[0]
				}
				fast, fcs := build()
				ref, rcs := build()
				if hasFlows := len(fcs.flows) > 0; hasFlows != tc.flows {
					t.Fatalf("chip 0 has %d flows", len(fcs.flows))
				}
				now := fcs.chip.Cursor()
				for step := 0; step < 60; step++ {
					var span sim.Duration
					switch rng.Intn(4) {
					case 0:
						span = sim.Duration(rng.Int63n(3)) // 0, 1 or 2 ps
					case 1:
						span = lineTime * sim.Duration(rng.Intn(4))
					default:
						span = sim.Duration(rng.Int63n(int64(5 * sim.Microsecond)))
					}
					var proc sim.Duration
					switch rng.Intn(4) {
					case 0:
					case 1:
						proc = span
					case 2:
						proc = lineTime * sim.Duration(1+rng.Intn(300))
					default:
						proc = sim.Duration(rng.Int63n(int64(2*span) + 1))
					}
					fcs.procBusy += proc
					rcs.procBusy += proc
					now = now.Add(span)
					fast.accountChip(fcs, now)
					accountChipGeneral(ref, rcs, now)
					if fcs.procBusy != rcs.procBusy || fast.clampedProc != ref.clampedProc ||
						fast.slack != ref.slack || fcs.chip.Cursor() != rcs.chip.Cursor() ||
						fcs.chip.ActiveTime != rcs.chip.ActiveTime ||
						fcs.chip.TransferTime != rcs.chip.TransferTime ||
						fcs.chip.ServingTime != rcs.chip.ServingTime ||
						!slices.Equal(fcs.chip.Residency, rcs.chip.Residency) {
						t.Fatalf("seed %d step %d (span %v, proc %v): accountChip and the general formula diverge:\n"+
							"procBusy %v / %v, clamped %d / %d, slack %g / %g, residency %v / %v",
							seed, step, span, proc, fcs.procBusy, rcs.procBusy, fast.clampedProc, ref.clampedProc,
							fast.slack, ref.slack, fcs.chip.Residency, rcs.chip.Residency)
					}
					for i, f := range fcs.flows {
						if f.remaining != rcs.flows[i].remaining {
							t.Fatalf("seed %d step %d: flow %d remaining %g / %g", seed, step, i, f.remaining, rcs.flows[i].remaining)
						}
					}
				}
				if fast.clampedProc == 0 {
					t.Fatalf("seed %d: the clamp never fired", seed)
				}
				fcs.chip.Close(now)
				rcs.chip.Close(now)
				if fcs.chip.Meter.Breakdown() != rcs.chip.Meter.Breakdown() ||
					!slices.Equal(fcs.chip.StateEnergy, rcs.chip.StateEnergy) {
					t.Fatalf("seed %d: energy ledgers diverge: %v / %v", seed,
						fcs.chip.Meter.Breakdown(), rcs.chip.Meter.Breakdown())
				}
			}
		})
	}
}
