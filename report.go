package dmamem

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dmamem/internal/core"
	"dmamem/internal/energy"
)

// EnergyBreakdown partitions a run's energy (joules) into the paper's
// Figure 2(b)/Figure 6 categories.
type EnergyBreakdown struct {
	// ActiveServing: moving DMA data.
	ActiveServing float64
	// ActiveIdleDMA: active but idle between DMA-memory requests (the
	// bandwidth-mismatch waste the techniques attack).
	ActiveIdleDMA float64
	// ActiveIdleThreshold: active, waiting out the policy's idleness
	// threshold.
	ActiveIdleThreshold float64
	// Transition: moving between power modes.
	Transition float64
	// LowPower: resident in standby/nap/powerdown (including naps
	// between the bursts of rate-shared streams).
	LowPower float64
	// Migration: copying pages for the popularity-based layout.
	Migration float64
	// ProcessorServing: servicing processor cache-line accesses.
	ProcessorServing float64
}

// Total returns the sum over all categories.
func (b EnergyBreakdown) Total() float64 {
	return b.ActiveServing + b.ActiveIdleDMA + b.ActiveIdleThreshold +
		b.Transition + b.LowPower + b.Migration + b.ProcessorServing
}

// String renders the breakdown as percentages, largest first.
func (b EnergyBreakdown) String() string {
	total := b.Total()
	if total == 0 {
		return "no energy"
	}
	type entry struct {
		name string
		j    float64
	}
	entries := []entry{
		{"active-serving", b.ActiveServing},
		{"active-idle-dma", b.ActiveIdleDMA},
		{"active-idle-threshold", b.ActiveIdleThreshold},
		{"transition", b.Transition},
		{"low-power", b.LowPower},
		{"migration", b.Migration},
		{"proc-serving", b.ProcessorServing},
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].j > entries[j].j })
	parts := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.j == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", e.name, 100*e.j/total))
	}
	return strings.Join(parts, ", ")
}

// Report is the outcome of one simulation run.
type Report struct {
	// Scheme that produced the numbers.
	Scheme string
	// Energy consumed, total and by category (joules).
	TotalEnergy float64
	Breakdown   EnergyBreakdown
	// MeanPower over the metering window, watts.
	MeanPower float64
	// UtilizationFactor is the paper's uf metric: the fraction of
	// transfer-active chip time actually spent serving DMA data
	// (1/3 for a lone PCI-X stream, 1.0 when fully aligned).
	UtilizationFactor float64
	// Transfers simulated and their residency statistics.
	Transfers       int64
	MeanServiceTime time.Duration
	P95ServiceTime  time.Duration
	// MeanGatherDelay is the average DMA-TA gating delay per transfer.
	MeanGatherDelay time.Duration
	// Wakes counts chip activations; MigratedPages counts PL moves.
	Wakes         int64
	MigratedPages int64
	// States is the per-state residency and resident-energy breakdown,
	// keyed by the technology model's state names in depth order
	// (for the RDRAM default: active, standby, nap, powerdown).
	// Transition time and energy are excluded — they are not
	// attributable to residence in one state — so summing the state
	// energies plus Breakdown.Transition and Breakdown.Migration
	// recovers TotalEnergy.
	States []StateBreakdown
	// Mu is the slack parameter DMA-TA derived from the CP-Limit.
	Mu float64
	// Events counts the engine's dispatches: every event it fired plus
	// one per batch of same-instant trace arrivals. It measures the
	// event model's cost, not the work simulated (a power-down step is
	// one dispatch however it settles), so compare throughput per
	// trace record, not per event.
	Events uint64
}

// StateBreakdown is one power state's share of a run: the chip-time
// spent resident in it and the resident energy that time cost.
type StateBreakdown struct {
	// Name of the state in the technology model ("active",
	// "precharge-powerdown", "self-refresh", ...).
	Name string
	// Residency is the aggregate chip-time resident in the state.
	Residency time.Duration
	// Energy resident in the state, joules.
	Energy float64
}

func newReport(res *core.Result) *Report {
	r := res.Report
	states := make([]StateBreakdown, len(r.StateNames))
	for i, name := range r.StateNames {
		states[i] = StateBreakdown{Name: name, Residency: toStd(float64(r.Residency[i])), Energy: r.StateEnergy[i]}
	}
	return &Report{
		Scheme:      r.Scheme,
		TotalEnergy: r.TotalEnergy(),
		Breakdown: EnergyBreakdown{
			ActiveServing:       r.Energy[energy.CatServing],
			ActiveIdleDMA:       r.Energy[energy.CatIdleDMA],
			ActiveIdleThreshold: r.Energy[energy.CatIdleThreshold],
			Transition:          r.Energy[energy.CatTransition],
			LowPower:            r.Energy[energy.CatLowPower],
			Migration:           r.Energy[energy.CatMigration],
			ProcessorServing:    r.Energy[energy.CatProcServing],
		},
		MeanPower:         r.MeanPower(),
		UtilizationFactor: r.UtilizationFactor,
		Transfers:         r.Transfers,
		MeanServiceTime:   toStd(float64(r.MeanServiceTime)),
		P95ServiceTime:    toStd(float64(r.P95ServiceTime)),
		MeanGatherDelay:   toStd(float64(r.MeanGatherDelay)),
		Wakes:             r.Wakes,
		MigratedPages:     res.MigratedPages,
		States:            states,
		Mu:                res.Mu,
		Events:            r.Events,
	}
}

func toStd(ps float64) time.Duration { return time.Duration(ps / 1e3 * float64(time.Nanosecond)) }

func (r *Report) String() string {
	return fmt.Sprintf("%s: %.2f mJ (%.0f mW), uf=%.2f, mean transfer %v",
		r.Scheme, 1e3*r.TotalEnergy, 1e3*r.MeanPower, r.UtilizationFactor, r.MeanServiceTime)
}
