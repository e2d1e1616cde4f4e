package controller

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/metrics"
	"dmamem/internal/sim"
)

// Finish closes accounting at the latest of the engine clock, the
// given floor (so runs over the same trace are metered over the same
// window regardless of how their tails drained) and the completion of
// every down transition still unsettled (no event marks one; see
// power.go), so the window covers the whole drain. It must be called
// after the engine has drained.
func (c *Controller) Finish(endFloor sim.Time) sim.Time {
	if c.eng.Pending() > 0 {
		panic("controller: Finish before the engine drained")
	}
	end := max(c.eng.Now(), endFloor)
	for _, cs := range c.chips {
		if cs.chip.Phase() == memsys.PhaseSleeping {
			end = max(end, cs.chip.ReadyAt())
		}
	}
	for _, cs := range c.chips {
		if len(cs.flows) > 0 || len(cs.gated) > 0 || len(cs.waiting) > 0 {
			panic(fmt.Sprintf("controller: chip %d still has work after drain", cs.chip.ID))
		}
		c.settleSleep(cs)
		if cs.chip.Resident() && cs.chip.State() == energy.Active {
			c.settle(cs, end)
		}
		cs.chip.Close(end)
	}
	return end
}

// Report aggregates the run into a metrics.Report. scheme names the
// configuration; end is the instant returned by Finish. Energy sums
// accumulate in chip order.
func (c *Controller) Report(scheme string, end sim.Time) *metrics.Report {
	r := &metrics.Report{
		Scheme:        scheme,
		SimulatedTime: sim.Duration(end),
		Channels:      c.channels,
		Transfers:     c.transfers,
		Events:        c.eng.Steps(),
		StateNames:    c.model.StateNames(),

		ClampedProcSpans: c.clampedProc,
	}
	r.ChannelEnergy = make([]energy.Breakdown, r.Channels)
	r.Residency = make([]sim.Duration, c.model.NumStates())
	r.StateEnergy = make([]float64, c.model.NumStates())
	var transferTime, servingTime sim.Duration
	for _, cs := range c.chips {
		b := cs.chip.Meter.Breakdown()
		r.Energy.Add(&b)
		r.ChannelEnergy[cs.channel].Add(&b)
		r.Wakes += cs.chip.Wakes
		transferTime += cs.chip.TransferTime
		servingTime += cs.chip.ServingTime
		for s, d := range cs.chip.Residency {
			r.Residency[s] += d
		}
		for s, j := range cs.chip.StateEnergy {
			r.StateEnergy[s] += j
		}
	}
	if lm := c.cfg.Layout; lm != nil {
		r.Energy[energy.CatMigration] += c.migrationJ(lm.MigratedPages)
		r.Migrations = lm.MigratedPages
	}
	if transferTime > 0 {
		r.UtilizationFactor = float64(servingTime) / float64(transferTime)
	}
	r.MeanServiceTime = c.xferTimes.Mean()
	if c.xferTimes.Count() > 0 {
		r.P95ServiceTime = c.xferTimes.Percentile(0.95)
		r.MaxServiceTime = c.xferTimes.Max()
	}
	r.MeanGatherDelay = c.gatherDelays.Mean()
	return r
}

// migrationJ is the energy of n PL page moves under the run's model:
// each move reads a page from its source chip and writes it to the
// destination, both at full rate in the operating state. The per-move
// terms are added one at a time rather than multiplied by n, so the
// float sum, and with it every golden report, is what charging each
// move as it happens gives.
func (c *Controller) migrationJ(n int64) float64 {
	g := c.cfg.Geometry
	perMoveJ := 2 * c.model.Power(energy.Active) * g.ServiceTime(int64(g.PageBytes)).Seconds()
	var j float64
	for i := int64(0); i < n; i++ {
		j += perMoveJ
	}
	return j
}
