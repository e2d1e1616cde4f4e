// Package dmamem is a trace-driven simulator for DMA-aware memory
// energy management in data servers, reproducing the system of
//
//	Pandey, Jiang, Zhou, Bianchini.
//	"DMA-Aware Memory Energy Management." HPCA 2006.
//
// Data servers move almost all of their memory traffic with network
// and disk DMA transfers. Because an I/O bus is about three times
// slower than an RDRAM chip, a chip serving one DMA stream is idle —
// at full power — two thirds of the time. This package implements the
// paper's two remedies on top of a multi-power-state memory model:
//
//   - Temporal alignment (DMA-TA): the memory controller delays DMA
//     requests aimed at sleeping chips and gathers transfers from
//     different I/O buses so their request streams interleave in
//     lockstep, bounded by a slack-based performance guarantee derived
//     from a client-perceived response-time limit (CP-Limit).
//   - Popularity-based layout (PL): pages are migrated so that the
//     hottest pages share a few chips, multiplying the alignment
//     opportunities and letting cold chips sleep.
//
// Quick start:
//
//	tr, _ := dmamem.SyntheticStorageTrace(dmamem.SyntheticOptions{
//		Duration: 100 * time.Millisecond,
//	})
//	cmp, _ := dmamem.Compare(dmamem.Simulation{
//		Technique: dmamem.TemporalAlignmentWithLayout,
//		CPLimit:   0.10,
//	}, tr)
//	fmt.Printf("energy savings: %.1f%%\n", 100*cmp.Savings)
package dmamem

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"dmamem/internal/bus"
	"dmamem/internal/controller"
	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// Technique selects the energy-management scheme.
type Technique int

const (
	// Baseline is the dynamic threshold policy alone (Lebeck et al.),
	// the paper's point of comparison.
	Baseline Technique = iota
	// TemporalAlignment adds DMA-TA gathering on top of the baseline.
	TemporalAlignment
	// TemporalAlignmentWithLayout adds both DMA-TA and the
	// popularity-based layout (the paper's DMA-TA-PL).
	TemporalAlignmentWithLayout
	// NoPowerManagement keeps every chip active; the performance
	// reference the CP-Limit guarantee is defined against.
	NoPowerManagement
)

func (t Technique) String() string {
	switch t {
	case Baseline:
		return "baseline"
	case TemporalAlignment:
		return "dma-ta"
	case TemporalAlignmentWithLayout:
		return "dma-ta-pl"
	case NoPowerManagement:
		return "no-pm"
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// Simulation configures one run. The zero value is the paper's
// baseline system: 32 x 32 MB RDRAM chips at 3.2 GB/s, three PCI-X
// buses, dynamic threshold power management, interleaved page layout.
//
// On every field the zero value selects the documented default; any
// other out-of-range value, NaN and ±Inf included, is a loud error
// from Validate (which Run and Compare call first), never a silent
// fallback.
type Simulation struct {
	// Technique to apply. The zero value is Baseline.
	Technique Technique
	// CPLimit is the permitted client-perceived mean response-time
	// degradation (e.g. 0.10); it parameterizes DMA-TA's slack.
	// Required positive for TemporalAlignment and
	// TemporalAlignmentWithLayout; ignored by Baseline and
	// NoPowerManagement. Negative values are rejected.
	CPLimit float64
	// PLGroups is the number of popularity groups including the cold
	// group. Zero selects the paper's best setting, 2; set values must
	// be at least 2 (a hot and a cold group) and at most
	// layout.MaxGroups (129).
	PLGroups int
	// PLHotShare is the fraction of DMA requests the hot chips are
	// sized to absorb. Zero selects the default 0.6; set values must
	// lie strictly inside (0, 1) — at 1 every chip is hot and the
	// layout degenerates to the interleaved baseline.
	PLHotShare float64
	// PLInterval is the layout rebalance period. Zero selects the
	// default 20ms; negative values are rejected.
	PLInterval time.Duration
	// Buses is the number of I/O buses. Zero selects the default 3;
	// negative values are rejected.
	Buses int
	// BusBandwidth in bytes/s. Zero selects the PCI-X default,
	// 1.064 GB/s; negative values are rejected.
	BusBandwidth float64
	// StaticMode, when non-empty, replaces the dynamic threshold
	// policy with a static one that parks idle chips in the named
	// low-power state of the selected technology ("standby", "nap" or
	// "powerdown" for the RDRAM default; "self-refresh" and friends
	// for the DDR3/DDR4/LPDDR4 backends). Empty keeps the dynamic
	// threshold policy; a name the technology's state machine does not
	// have is rejected, listing the valid ones.
	StaticMode string
	// MemoryTech selects the memory technology by registry name:
	// "" or "rdram" for the paper's 3.2 GB/s RDRAM part, "ddr400" (or
	// its historical alias "ddr") for a 2.1 GB/s DDR400-class part
	// (Section 5.4's "other memory technologies"), "ddr3-1600",
	// "ddr4-2400" and "lpddr4" for calibrated modern state machines
	// with their own power-down and self-refresh chains. Names are
	// trimmed and case-insensitive; Techs enumerates them. Any other
	// string is rejected, listing the registered technologies.
	MemoryTech string
	// Channels groups the 32 chips into that many independently
	// clocked memory channels with channel-interleaved page mapping
	// (DDR-style topology). Zero keeps the legacy single-channel
	// behavior; set values must divide the chip count. A 1-channel
	// topology is bit-identical to the legacy path.
	Channels int
	// ChannelStripePages is the number of consecutive pages placed on
	// one channel before the mapping advances to the next (only
	// meaningful with Channels set). Zero selects page-granular
	// striping (1); negative values are rejected.
	ChannelStripePages int
	// ChannelBandwidth caps the aggregate delivery rate into one
	// channel, bytes/s (only meaningful with Channels set). Zero means
	// no per-channel cap; negative values are rejected.
	ChannelBandwidth float64
	// TraceFile streams the trace from a .dmt container on disk (see
	// CreateTraceFile and Trace.SaveFile) instead of an in-memory
	// Trace: pass a nil trace to Run/Compare and set this path. Both
	// sources feed the simulator through the same record cursor and
	// every option applies to either; the file's records are decoded
	// chunk by chunk, so memory stays flat no matter how long the trace
	// is, and the report is bit-identical to running the same records
	// from memory. Setting both a trace and TraceFile is an error.
	TraceFile string
	// Workers is ignored: every run, on any number of channels, takes
	// the one serial event loop, so the report does not depend on it.
	// Validate still rejects a negative value.
	//
	// Deprecated: kept only so that callers which still set it compile.
	Workers int
}

// Validate checks every field against its legal range and returns a
// descriptive error for the first violation. The zero value of each
// field (meaning "use the default") is always valid; Run and Compare
// validate implicitly, so calling Validate first is only needed to
// fail fast before building traces.
func (s Simulation) Validate() error {
	if s.Technique < Baseline || s.Technique > NoPowerManagement {
		return fmt.Errorf("dmamem: unknown technique %d", int(s.Technique))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"CPLimit", s.CPLimit}, {"PLHotShare", s.PLHotShare}, {"BusBandwidth", s.BusBandwidth}, {"ChannelBandwidth", s.ChannelBandwidth}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("dmamem: %s %v is not a finite number", f.name, f.v)
		}
	}
	if s.CPLimit < 0 {
		return fmt.Errorf("dmamem: negative CPLimit %v", s.CPLimit)
	}
	if (s.Technique == TemporalAlignment || s.Technique == TemporalAlignmentWithLayout) && s.CPLimit == 0 {
		return fmt.Errorf("dmamem: %v needs a positive CPLimit", s.Technique)
	}
	if s.PLGroups != 0 && (s.PLGroups < 2 || s.PLGroups > layout.MaxGroups) {
		return fmt.Errorf("dmamem: PLGroups %d out of range 2..%d: a layout needs a hot and a cold group; 0 selects the default 2", s.PLGroups, layout.MaxGroups)
	}
	if s.PLHotShare != 0 && (s.PLHotShare < 0 || s.PLHotShare >= 1) {
		return fmt.Errorf("dmamem: PLHotShare %v outside (0,1); 0 selects the default 0.6", s.PLHotShare)
	}
	if s.PLInterval < 0 {
		return fmt.Errorf("dmamem: negative PLInterval %v; 0 selects the default 20ms", s.PLInterval)
	}
	if s.Buses < 0 {
		return fmt.Errorf("dmamem: negative bus count %d; 0 selects the default 3", s.Buses)
	}
	if s.BusBandwidth < 0 {
		return fmt.Errorf("dmamem: negative BusBandwidth %v; 0 selects the PCI-X default", s.BusBandwidth)
	}
	model, err := s.memModel()
	if err != nil {
		return err
	}
	if _, err := staticPolicy(model, s.StaticMode); err != nil {
		return err
	}
	if s.Channels < 0 {
		return fmt.Errorf("dmamem: negative Channels %d; 0 selects the single-channel default", s.Channels)
	}
	if s.ChannelStripePages < 0 {
		return fmt.Errorf("dmamem: negative ChannelStripePages %d; 0 selects page-granular striping", s.ChannelStripePages)
	}
	if s.ChannelBandwidth < 0 {
		return fmt.Errorf("dmamem: negative ChannelBandwidth %v; 0 means no per-channel cap", s.ChannelBandwidth)
	}
	if (s.ChannelStripePages != 0 || s.ChannelBandwidth != 0) && s.Channels == 0 {
		return fmt.Errorf("dmamem: ChannelStripePages/ChannelBandwidth need Channels set")
	}
	if s.Workers < 0 {
		return fmt.Errorf("dmamem: negative Workers %d", s.Workers)
	}
	if s.Channels != 0 {
		topo := memsys.Topology{
			Channels:         s.Channels,
			StripePages:      s.ChannelStripePages,
			ChannelBandwidth: s.ChannelBandwidth,
		}
		if err := topo.Validate(memsys.Default()); err != nil {
			return fmt.Errorf("dmamem: %w", err)
		}
	}
	return nil
}

func (s Simulation) coreConfig() (core.Config, error) {
	cfg := core.Config{}
	if err := s.Validate(); err != nil {
		return cfg, err
	}
	cfg.TraceFile = s.TraceFile
	if s.Buses != 0 || s.BusBandwidth != 0 {
		bc := bus.DefaultConfig()
		if s.Buses != 0 {
			bc.Count = s.Buses
		}
		if s.BusBandwidth != 0 {
			bc.Bandwidth = s.BusBandwidth
		}
		cfg.Buses = bc
	}
	cfg.Tech = s.MemoryTech
	if s.Channels != 0 {
		cfg.Topology = memsys.Topology{
			Channels:         s.Channels,
			StripePages:      s.ChannelStripePages,
			ChannelBandwidth: s.ChannelBandwidth,
		}
	}
	if s.StaticMode != "" {
		// Validate (above) already resolved both; errors are impossible
		// here and would be a registry/model inconsistency.
		model, err := s.memModel()
		if err != nil {
			return cfg, err
		}
		static, err := staticPolicy(model, s.StaticMode)
		if err != nil {
			return cfg, err
		}
		cfg.Policy = static
	}
	switch s.Technique {
	case NoPowerManagement:
		cfg.Policy = policy.AlwaysActive{}
		cfg.Scheme = "no-pm"
	case TemporalAlignment, TemporalAlignmentWithLayout:
		cfg.TA = controller.DefaultTA(0)
		cfg.CPLimit = s.CPLimit
		if s.Technique == TemporalAlignmentWithLayout {
			pl := layout.DefaultConfig()
			if s.PLGroups != 0 {
				pl.Groups = s.PLGroups
			}
			if s.PLHotShare != 0 {
				pl.HotShare = s.PLHotShare
			}
			if s.PLInterval != 0 {
				pl.Interval = sim.Duration(s.PLInterval.Nanoseconds()) * sim.Nanosecond
			}
			cfg.PL = &pl
		}
	}
	return cfg, nil
}

// memModel resolves MemoryTech through the technology registry — the
// single lookup behind Validate and coreConfig (there is deliberately
// no second string switch to fall out of sync). Unknown names error
// loudly, listing every registered technology.
func (s Simulation) memModel() (*energy.Model, error) {
	m, err := energy.Lookup(s.MemoryTech)
	if err != nil {
		return nil, fmt.Errorf("dmamem: %w", err)
	}
	return m, nil
}

// staticPolicy resolves StaticMode against the technology model's
// state names. Empty means no static policy; the operating state and
// unknown names are rejected with the model's low-power states listed.
func staticPolicy(m *energy.Model, mode string) (*policy.Static, error) {
	if mode == "" {
		return nil, nil
	}
	st, err := m.StateIndex(mode)
	if err != nil || st == energy.Active {
		return nil, fmt.Errorf("dmamem: unknown static mode %q for %s (want one of %s)",
			mode, m.Name, strings.Join(m.StateNames()[1:], ", "))
	}
	return &policy.Static{Mode: st}, nil
}

// Techs returns the registered memory technologies MemoryTech accepts,
// sorted by canonical name (the empty string additionally selects the
// paper's RDRAM default). New backends registered through
// internal/energy's registry appear here automatically.
func Techs() []string { return energy.Techs() }

// internalTrace unwraps a possibly-nil public trace for the core
// layer, which accepts nil when a Simulation.TraceFile streams the
// records from disk instead.
func internalTrace(tr *Trace) *trace.Trace {
	if tr == nil {
		return nil
	}
	return tr.t
}

// Run simulates one configuration over a trace and reports the energy
// and performance outcome. The trace may be nil when s.TraceFile names
// a .dmt container to stream from.
func Run(s Simulation, tr *Trace) (*Report, error) {
	cfg, err := s.coreConfig()
	if err != nil {
		return nil, err
	}
	res, err := core.Run(cfg, internalTrace(tr))
	if err != nil {
		return nil, err
	}
	return newReport(res), nil
}

// Comparison is the outcome of running a technique against the
// baseline over the same trace and metering window.
type Comparison struct {
	Baseline  *Report
	Technique *Report
	// Savings is the fractional energy reduction relative to the
	// baseline (the paper's headline metric).
	Savings float64
}

// Compare runs the baseline and the given technique over the trace
// with a shared metering window. The baseline inherits the same
// hardware configuration (buses, static policy) so the comparison
// isolates the technique. The trace may be nil when s.TraceFile names
// a .dmt container: both runs then replay it from disk in bounded
// memory.
func Compare(s Simulation, tr *Trace) (*Comparison, error) {
	return CompareContext(context.Background(), s, tr, 1)
}

// CompareContext is Compare with cancellation and optional
// concurrency: when parallel > 1 the baseline and technique
// simulations run on two goroutines (each simulation is confined to a
// single goroutine — see the internal/sim ownership contract), and the
// resulting reports are bit-identical to Compare's. Cancellation is
// observed mid-run: the engines poll ctx every few thousand
// dispatches, so even a simulation in flight aborts within
// microseconds of wall time with ctx.Err().
func CompareContext(ctx context.Context, s Simulation, tr *Trace, parallel int) (*Comparison, error) {
	tech, err := s.coreConfig()
	if err != nil {
		return nil, err
	}
	baseSim := s
	baseSim.Technique = Baseline
	baseCfg, err := baseSim.coreConfig()
	if err != nil {
		return nil, err
	}
	base, techRes, savings, err := core.RunBaselinePairParallel(ctx, baseCfg, tech, internalTrace(tr), parallel)
	if err != nil {
		return nil, err
	}
	return &Comparison{
		Baseline:  newReport(base),
		Technique: newReport(techRes),
		Savings:   savings,
	}, nil
}

// MemoryGeometry returns the simulated memory system's shape, for
// callers constructing their own traces: chips, pages per chip, page
// size in bytes.
func MemoryGeometry() (chips, pagesPerChip, pageBytes int) {
	g := memsys.Default()
	return g.NumChips, g.PagesPerChip(), g.PageBytes
}
