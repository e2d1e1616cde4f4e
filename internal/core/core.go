// Package core assembles the full simulator: it feeds a memory-access
// trace through the controller, schedules popularity-based layout
// rebalances, derives the DMA-TA slack parameter mu from a CP-Limit,
// and produces the evaluation's reports.
package core

import (
	"context"
	"fmt"

	"dmamem/internal/bus"
	"dmamem/internal/controller"
	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/metrics"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// Config selects what to simulate. The zero value plus a trace gives
// the paper's baseline: 32-chip RDRAM, three PCI-X buses, the dynamic
// threshold policy, interleaved layout, no DMA-aware techniques.
type Config struct {
	// Geometry of the memory system; zero means memsys.Default().
	Geometry memsys.Geometry
	// Topology optionally groups the chips into independently clocked
	// DDR-style channels with channel-interleaved page mapping. The
	// zero value is the legacy single-channel behavior, bit-identical
	// to builds that predate the field.
	Topology memsys.Topology
	// Buses of the I/O subsystem; zero means bus.DefaultConfig().
	Buses bus.Config
	// Policy is the low-level power manager; nil means the dynamic
	// threshold policy (the paper's baseline).
	Policy policy.Policy
	// TA enables temporal alignment. If TA.Mu is zero and CPLimit is
	// set, Mu is derived from the trace calibration.
	TA *controller.TAConfig
	// CPLimit is the client-perceived response-time degradation bound
	// used to derive Mu (e.g. 0.10 for the paper's 10%).
	CPLimit float64
	// PL enables popularity-based layout.
	PL *layout.Config
	// Mapper overrides the static baseline layout (nil = interleaved).
	// Ignored when PL is set.
	Mapper memsys.Mapper
	// Tech selects the memory technology by registry name ("rdram",
	// "ddr400", "ddr3-1600", "ddr4-2400", "lpddr4", or an alias).
	// Empty means MemSpec if set, else the registry default (the
	// paper's RDRAM part). Unknown names error loudly, listing the
	// registered technologies. When the geometry is defaulted, the
	// chip bandwidth follows the resolved model.
	Tech string
	// MemSpec selects the memory technology by explicit legacy 4-state
	// spec; it is converted to its energy.Model form and produces
	// bit-identical reports to registering the same numbers. Mutually
	// exclusive with Tech.
	MemSpec *energy.Spec
	// MeterWindow fixes the energy metering window; zero means the
	// trace duration plus 2 ms of drain. Comparisons between schemes
	// must use equal windows.
	MeterWindow sim.Duration
	// WarmupFraction of the trace feeds the layout manager's counters
	// before the metered run, modelling a server whose layout reached
	// popularity steady state long before the measured window (a trace
	// covers milliseconds of a server that has been running for days,
	// so the counters have seen the popularity distribution many times
	// over). The warm-up rebalance is uncharged; in-run rebalances and
	// their migrations are charged in full. Default 1.0 (two-pass).
	WarmupFraction float64
	// Scheme labels the report; empty derives "baseline"/"dma-ta"/
	// "dma-ta-pl" from TA and PL.
	Scheme string
	// FullScanAccounting makes the controller charge every active chip
	// on every event instead of using its dirty-set accounting.
	// Results are bit-identical either way; the knob exists for the
	// cross-check test and debugging.
	FullScanAccounting bool
	// HeapScheduler backs the engine with the reference binary-heap
	// event store (O(log n) operations) instead of the default
	// hierarchical timer wheel (amortized O(1)). Results are
	// bit-identical either way; the knob exists for the cross-check
	// test and debugging, mirroring FullScanAccounting.
	HeapScheduler bool
	// PerEventFeeder delivers trace records through a self-advancing
	// engine event per distinct record timestamp instead of the
	// default batched cursor feeder that bypasses the scheduler.
	// Results are bit-identical either way (one engine step per
	// distinct timestamp in both modes); the knob exists for the
	// cross-check test and debugging.
	PerEventFeeder bool
	// TraceFile streams the trace from a .dmt container on disk instead
	// of an in-memory trace: pass a nil trace to Run/RunContext and set
	// this path. Records are decoded chunk by chunk (bounded memory
	// regardless of trace length) and the report is bit-identical to
	// running the same records from memory. Mutually exclusive with a
	// non-nil trace and with PerEventFeeder.
	TraceFile string
	// Workers selects the parallel barrier engine: zero (the default)
	// runs the legacy serial event loop; any positive value runs one
	// event loop per topology channel, executed by at most Workers
	// goroutines in deterministic epoch-barrier lockstep (see
	// internal/sim's BarrierEngine and docs/ARCHITECTURE.md). Reports
	// are independent of the worker count by construction; with a
	// single channel they are additionally bit-identical to the serial
	// engine's. Multi-channel runs support every scheme, including PL
	// and gap-observing adaptive policies (the policy must be
	// policy.Replicable): layout rebalances and gap merges execute in
	// the barrier's epoch-synchronized observation stage, and each
	// channel-homogeneous piece of a channel-spanning DMA record counts
	// as its own transfer. Setting Workers with a single-channel
	// topology is accepted, not an error: there is only one shard, so
	// extra workers stay idle, and the adaptive barrier collapses the
	// whole run into one span, making the barrier overhead negligible
	// (a test pins the accepted-and-bit-identical behavior; FixedEpoch
	// restores per-epoch chunking if you want to measure it).
	// Incompatible with PerEventFeeder.
	Workers int
	// BarrierEpoch is the parallel engine's barrier period in simulated
	// time; zero means 50 us. Smaller epochs exchange bus shares more
	// often (closer to the serial allocator's event-granular coupling);
	// larger epochs synchronize less and run faster. Exposed as -epoch
	// on dmamem-bench and dmamem-sim.
	BarrierEpoch sim.Duration
	// FixedEpoch disables the adaptive barrier: every epoch boundary is
	// a full rendezvous, exactly the pre-adaptive engine. Kept as the
	// bit-identical cross-check reference for barrier elision and
	// dynamic span sizing — the adaptive engine only skips boundaries
	// it can prove are no-ops, so reports match this mode exactly.
	FixedEpoch bool
	// MaxEpochSpan caps how many consecutive epochs the adaptive
	// barrier may cover in one elided span (it bounds the per-span
	// trace-staging buffers). Zero means 256; 1 behaves like
	// FixedEpoch; negative errors. The effective span width adapts
	// between 1 and this ceiling with re-split churn and measured
	// barrier stall.
	MaxEpochSpan int
}

// resolveModel turns the Tech / MemSpec selection into the technology
// model the run will use. Exactly one may be set; neither means the
// registry default (the paper's RDRAM part, bit-identical to the
// legacy Spec arithmetic).
func (c Config) resolveModel() (*energy.Model, error) {
	if c.Tech != "" && c.MemSpec != nil {
		return nil, fmt.Errorf("core: both Tech %q and MemSpec %q set; pass one", c.Tech, c.MemSpec.Name)
	}
	if c.MemSpec != nil {
		m := c.MemSpec.Model()
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	}
	return energy.Lookup(c.Tech)
}

// withDefaults resolves the technology model and returns a fully
// populated copy.
func (c Config) withDefaults() (Config, *energy.Model, error) {
	model, err := c.resolveModel()
	if err != nil {
		return c, nil, err
	}
	if c.Geometry == (memsys.Geometry{}) {
		c.Geometry = memsys.Default()
		c.Geometry.ChipBandwidth = model.Bandwidth
	}
	if c.Buses == (bus.Config{}) {
		c.Buses = bus.DefaultConfig()
	}
	if c.Policy == nil {
		// The technology's calibrated demotion chain; for the RDRAM
		// default its waits equal the classic NewDynamic thresholds.
		c.Policy = policy.ChainFor(model)
	}
	if c.WarmupFraction == 0 {
		c.WarmupFraction = 1.0
	}
	if c.Scheme == "" {
		switch {
		case c.TA != nil && c.PL != nil:
			c.Scheme = "dma-ta-pl"
		case c.TA != nil:
			c.Scheme = "dma-ta"
		default:
			c.Scheme = "baseline"
		}
	}
	return c, model, nil
}

// Result is the outcome of a run.
type Result struct {
	Report *metrics.Report
	// Calibration used for the CP-Limit transform (zero-valued when
	// no TA or no CP-Limit was requested).
	Calibration metrics.Calibration
	// Mu actually used by DMA-TA.
	Mu float64
	// LayoutStats when PL ran.
	MigratedPages    int64
	MigrationEnergyJ float64
	Rebalances       int64
}

// SimEvents returns the number of simulation events the run
// dispatched; the experiment runner uses it for events/sec throughput
// reporting.
func (r *Result) SimEvents() uint64 {
	if r == nil || r.Report == nil {
		return 0
	}
	return r.Report.Events
}

// Calibrate derives the CP-Limit -> mu calibration from a trace: the
// client response time and critical-path transfer count from the
// trace's metadata (with documented fallbacks for bare traces) and the
// mean DMA-memory requests per transfer from the trace itself.
func Calibrate(tr *trace.Trace, geo memsys.Geometry, buses bus.Config) metrics.Calibration {
	return calibrate(tr.Meta, trace.Analyze(tr).MeanTransferPages(), geo, buses)
}

// calibrate is the shared CP-Limit calibration core. Both trace
// sources go through it with identical inputs — the in-memory path
// via trace.Analyze, the file-backed path via the .dmt footer's
// aggregate DMA totals — so the derived mu is bit-identical.
func calibrate(meta trace.Meta, meanTransferPages float64, geo memsys.Geometry, buses bus.Config) metrics.Calibration {
	cal := metrics.Calibration{
		MeanClientResponse:      meta.MeanClientResponse,
		TransfersPerRequest:     meta.TransfersPerClientRequest,
		MeanRequestsPerTransfer: meanTransferPages * float64(geo.PageBytes) / memsys.RequestBytes,
		T:                       buses.BeatGap(),
		// Off-line measured transform factor (Section 5.1): half the
		// analytic budget absorbs the queueing and wake amplification
		// between request-level slack and client-perceived time.
		SafetyFactor: 0.5,
	}
	if cal.MeanClientResponse <= 0 {
		// Bare trace: assume a typical data-server client response of
		// 500 us (SAN round trip plus service).
		cal.MeanClientResponse = 500 * sim.Microsecond
	}
	if cal.TransfersPerRequest <= 0 {
		cal.TransfersPerRequest = 1
	}
	if cal.MeanRequestsPerTransfer <= 0 {
		cal.MeanRequestsPerTransfer = float64(geo.PageBytes) / memsys.RequestBytes
	}
	return cal
}

// Run simulates one configuration over a trace.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	return RunContext(context.Background(), cfg, tr)
}

// RunContext is Run with cancellation: the engine polls ctx every few
// thousand dispatches, so a cancelled context aborts a simulation
// mid-run within microseconds of wall time. A run that is never
// cancelled is bit-identical to Run.
//
// The trace may be nil when cfg.TraceFile names a .dmt container: the
// records then stream from disk in bounded memory (see runFileContext)
// with a bit-identical report.
func RunContext(ctx context.Context, cfg Config, tr *trace.Trace) (*Result, error) {
	if tr == nil {
		if cfg.TraceFile == "" {
			return nil, fmt.Errorf("core: nil trace and no Config.TraceFile to stream from")
		}
		return runFileContext(ctx, cfg)
	}
	if cfg.TraceFile != "" {
		return nil, fmt.Errorf("core: both an in-memory trace %q and Config.TraceFile %q given; pass one",
			tr.Name, cfg.TraceFile)
	}
	cfg, model, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := validateWarmupFraction(cfg.WarmupFraction); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("core: empty trace %q", tr.Name)
	}
	maxPage := memsys.PageID(cfg.Geometry.TotalPages())
	for i, r := range tr.Records {
		end := r.Page
		if r.Kind.IsDMA() {
			end += memsys.PageID(r.Pages)
		} else {
			end++
		}
		if r.Page < 0 || end > maxPage {
			return nil, fmt.Errorf("core: record %d touches pages [%d,%d) outside memory of %d pages",
				i, r.Page, end, maxPage)
		}
	}

	res := &Result{}
	ccfg := controller.Config{
		Geometry:           cfg.Geometry,
		Topology:           cfg.Topology,
		Buses:              cfg.Buses,
		Policy:             cfg.Policy,
		TA:                 cfg.TA,
		Mapper:             cfg.Mapper,
		Model:              model,
		InitialState:       0, // Active; the policy idles chips down immediately
		FullScanAccounting: cfg.FullScanAccounting,
	}

	if cfg.TA != nil && cfg.TA.Mu == 0 && cfg.CPLimit > 0 {
		cal := Calibrate(tr, cfg.Geometry, cfg.Buses)
		mu, err := cal.Mu(cfg.CPLimit)
		if err != nil {
			return nil, err
		}
		ta := *cfg.TA // do not mutate the caller's config
		ta.Mu = mu
		ccfg.TA = &ta
		res.Calibration = cal
		res.Mu = mu
	} else if cfg.TA != nil {
		res.Mu = cfg.TA.Mu
	}

	var lm *layout.Manager
	if cfg.PL != nil {
		var err error
		lm, err = layout.New(cfg.Geometry, *cfg.PL)
		if err != nil {
			return nil, err
		}
		warmup(lm, tr, cfg.WarmupFraction)
		ccfg.Layout = lm
	}

	if cfg.Workers > 0 {
		return finishParallel(ctx, cfg, tr, ccfg, lm, res)
	}

	eng := sim.New()
	if cfg.HeapScheduler {
		eng = sim.NewWithHeap()
	}
	ctl, err := controller.New(eng, ccfg)
	if err != nil {
		return nil, err
	}

	if cfg.PerEventFeeder {
		feed(eng, ctl, tr)
	} else {
		eng.SetFeeder(&traceFeeder{ctl: ctl, records: tr.Records})
	}
	traceEnd := sim.Time(tr.Duration())
	if lm != nil {
		scheduleRebalances(eng, ctl, lm, traceEnd)
	}
	if err := eng.RunContext(ctx); err != nil {
		return nil, err
	}

	window := cfg.MeterWindow
	if window == 0 {
		window = tr.Duration() + 2*sim.Millisecond
	}
	end := ctl.Finish(sim.Time(window))
	res.Report = ctl.Report(cfg.Scheme, end)
	if lm != nil {
		res.MigratedPages = lm.MigratedPages
		res.MigrationEnergyJ = lm.MigrationEnergyJ
		res.Rebalances = lm.Rebalances
	}
	return res, nil
}

// validateWarmupFraction rejects fractions outside (0, 1] loudly.
// Both trace paths apply it after defaulting (zero has already become
// 1.0), so an out-of-range fraction can no longer panic the in-memory
// warm-up slice or silently warm the whole file-backed trace.
func validateWarmupFraction(fraction float64) error {
	if !(fraction > 0 && fraction <= 1) {
		return fmt.Errorf("core: WarmupFraction %g outside (0, 1]", fraction)
	}
	return nil
}

// warmupCount is the single truncation both trace paths use to turn
// the warm-up fraction into a record count, so the in-memory and
// file-backed layouts warm over exactly the same prefix.
func warmupCount(fraction float64, records int64) int64 {
	n := int64(fraction * float64(records))
	if n < 0 {
		n = 0
	}
	if n > records {
		n = records
	}
	return n
}

// warmup feeds the first fraction of the trace's DMA references into
// the layout manager and installs the resulting layout without
// charging its cost: the measured window starts from popularity steady
// state.
func warmup(lm *layout.Manager, tr *trace.Trace, fraction float64) {
	n := warmupCount(fraction, int64(len(tr.Records)))
	for _, r := range tr.Records[:n] {
		if !r.Kind.IsDMA() {
			continue
		}
		for p := 0; p < int(r.Pages); p++ {
			lm.Observe(r.Page + memsys.PageID(p))
		}
	}
	lm.Rebalance(nil)
	lm.ResetCosts()
}

// traceFeeder is the default arrival source: a cursor over the trace
// records that the engine's run loop pulls batches from directly (see
// sim.Feeder), so arrivals never pass through the scheduler at all.
// It reports feederPrio as its same-instant priority, which is
// reserved for trace arrivals across the whole simulator — transfer
// completions (priority 0) at the same instant are observed first,
// policy and epoch timers (priorities 2+) after, exactly as with the
// per-event feeder.
type traceFeeder struct {
	ctl     *controller.Controller
	records []trace.Record
	idx     int
	dmaIdx  int
	nextID  int64
}

// feederPrio is the same-instant dispatch priority of trace arrivals,
// for both feeder implementations. No other event source uses it.
const feederPrio = 1

func (f *traceFeeder) Peek() (sim.Time, int8, bool) {
	if f.idx >= len(f.records) {
		return 0, 0, false
	}
	return f.records[f.idx].Time, feederPrio, true
}

func (f *traceFeeder) Fire(e *sim.Engine) {
	now := e.Now()
	for f.idx < len(f.records) && f.records[f.idx].Time == now {
		r := f.records[f.idx]
		f.idx++
		if r.Kind.IsDMA() {
			f.ctl.StartTransfer(dma.FromRecord(f.nextID, r))
			f.nextID++
		} else {
			f.ctl.ProcAccess(r.Page)
		}
	}
}

// nextRelevant reports the earliest undelivered record — every kind,
// or DMA records only — for the adaptive barrier's cross lookahead.
// The DMA scan cursor is monotone, so repeated probes cost amortized
// O(1) over the run.
func (f *traceFeeder) nextRelevant(dmaOnly bool) (sim.Time, bool) {
	if f.idx >= len(f.records) {
		return 0, false
	}
	if !dmaOnly {
		return f.records[f.idx].Time, true
	}
	if f.dmaIdx < f.idx {
		f.dmaIdx = f.idx
	}
	for f.dmaIdx < len(f.records) && !f.records[f.dmaIdx].Kind.IsDMA() {
		f.dmaIdx++
	}
	if f.dmaIdx >= len(f.records) {
		return 0, false
	}
	return f.records[f.dmaIdx].Time, true
}

// feed is the reference arrival path (Config.PerEventFeeder): trace
// records enter through a self-advancing engine event per distinct
// record timestamp. The batched traceFeeder replaces it on the hot
// path; it is kept as the cross-check implementation.
func feed(eng *sim.Engine, ctl *controller.Controller, tr *trace.Trace) {
	var idx int
	var nextID int64
	var step func(e *sim.Engine)
	step = func(e *sim.Engine) {
		for idx < len(tr.Records) && tr.Records[idx].Time == e.Now() {
			r := tr.Records[idx]
			idx++
			if r.Kind.IsDMA() {
				ctl.StartTransfer(dma.FromRecord(nextID, r))
				nextID++
			} else {
				ctl.ProcAccess(r.Page)
			}
		}
		if idx < len(tr.Records) {
			eng.SchedulePrio(tr.Records[idx].Time, feederPrio, step)
		}
	}
	eng.SchedulePrio(tr.Records[0].Time, feederPrio, step)
}

// scheduleRebalances arms the PL interval timer up to the end of the
// trace.
func scheduleRebalances(eng *sim.Engine, ctl *controller.Controller, lm *layout.Manager, end sim.Time) {
	interval := lm.Interval()
	busy := make([]bool, lm.NumPages())
	isBusy := func(p memsys.PageID) bool { return busy[p] }
	var tick func(e *sim.Engine)
	tick = func(e *sim.Engine) {
		ctl.MarkActivePages(busy)
		lm.Rebalance(isBusy)
		clear(busy)
		next := e.Now().Add(interval)
		if next <= end {
			eng.SchedulePrio(next, 5, tick)
		}
	}
	first := sim.Time(interval)
	if first <= end {
		eng.SchedulePrio(first, 5, tick)
	}
}

// pairWindow derives the shared metering window for a baseline/
// technique pair: the trace duration plus 2 ms of drain, read from the
// in-memory trace or — when tr is nil and the configs stream from disk
// — from the .dmt footer of the baseline config's TraceFile (the pair
// must replay the same container, so either footer serves).
func pairWindow(base Config, tr *trace.Trace) (sim.Duration, error) {
	if tr != nil {
		return tr.Duration() + 2*sim.Millisecond, nil
	}
	if base.TraceFile == "" {
		return 0, fmt.Errorf("core: nil trace and no Config.TraceFile to stream from")
	}
	fr, err := trace.OpenDMTFile(base.TraceFile)
	if err != nil {
		return 0, err
	}
	defer fr.Close()
	return fr.Summary().Duration + 2*sim.Millisecond, nil
}

// RunBaselinePair runs the same trace under a baseline config and a
// technique config with a shared metering window, returning both
// results plus the fractional savings. The trace may be nil when both
// configs name the same .dmt container in TraceFile.
func RunBaselinePair(base, tech Config, tr *trace.Trace) (b, t *Result, savings float64, err error) {
	window, err := pairWindow(base, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	base.MeterWindow = window
	tech.MeterWindow = window
	if b, err = Run(base, tr); err != nil {
		return nil, nil, 0, err
	}
	if t, err = Run(tech, tr); err != nil {
		return nil, nil, 0, err
	}
	return b, t, t.Report.Savings(b.Report), nil
}

// RunBaselinePairParallel is RunBaselinePair with cancellation and,
// when parallel > 1, the two runs on separate goroutines (each
// simulation owns its own single-goroutine engine; see internal/sim).
// Results are bit-identical to RunBaselinePair's. Cancellation is
// observed mid-run: the engines poll ctx every few thousand
// dispatches, so a cancelled sweep aborts within microseconds of wall
// time instead of finishing the simulation in flight.
func RunBaselinePairParallel(ctx context.Context, base, tech Config, tr *trace.Trace, parallel int) (b, t *Result, savings float64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err = ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	window, err := pairWindow(base, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	base.MeterWindow = window
	tech.MeterWindow = window
	if parallel <= 1 {
		if b, err = RunContext(ctx, base, tr); err != nil {
			return nil, nil, 0, err
		}
		if t, err = RunContext(ctx, tech, tr); err != nil {
			return nil, nil, 0, err
		}
		return b, t, t.Report.Savings(b.Report), nil
	}
	var baseErr, techErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		t, techErr = RunContext(ctx, tech, tr)
	}()
	b, baseErr = RunContext(ctx, base, tr)
	<-done
	if baseErr != nil {
		return nil, nil, 0, baseErr
	}
	if techErr != nil {
		return nil, nil, 0, techErr
	}
	return b, t, t.Report.Savings(b.Report), nil
}

// Workload is a named trace bundle used by the experiments.
type Workload struct {
	Name  string
	Trace *trace.Trace
}

// SyntheticStWorkload builds the Synthetic-St trace with the paper's
// defaults over the given duration.
func SyntheticStWorkload(d sim.Duration, seed uint64) (*Workload, error) {
	cfg := synth.DefaultSt()
	cfg.Duration = d
	cfg.Seed = seed
	tr, err := synth.GenerateSt(cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: "Synthetic-St", Trace: tr}, nil
}

// SyntheticDbWorkload builds the Synthetic-Db trace with the paper's
// defaults over the given duration.
func SyntheticDbWorkload(d sim.Duration, seed uint64) (*Workload, error) {
	cfg := synth.DefaultDb()
	cfg.St.Duration = d
	cfg.St.Seed = seed
	tr, err := synth.GenerateDb(cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: "Synthetic-Db", Trace: tr}, nil
}
