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
	// cross-check test and debugging. It works with either record
	// source.
	PerEventFeeder bool
	// TraceFile streams the trace from a .dmt container on disk instead
	// of an in-memory trace: pass a nil trace to Run/RunContext and set
	// this path. Both sources reach the simulator as the same record
	// cursor and differ only in where it reads: the file is decoded
	// chunk by chunk (bounded memory regardless of trace length), and
	// the report is bit-identical to running the same records from
	// memory. Mutually exclusive with a non-nil trace.
	TraceFile string
	// Workers selects the parallel barrier engine: zero (the default)
	// runs the legacy serial event loop; any positive value runs one
	// event loop per topology channel, executed by at most Workers
	// goroutines in deterministic epoch-barrier lockstep (see
	// internal/sim's BarrierEngine and docs/ARCHITECTURE.md). Workers
	// is a ceiling, not a demand: the caller's goroutine is one of
	// them, and a span too short for a handoff to pay (measured at run
	// time) runs inline on it, which is most spans on a 2-CPU host. Reports
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
	return calibrate(tr.Summary(), geo, buses)
}

// calibrate is the CP-Limit calibration from a trace summary: its
// metadata and DMA totals, which an in-memory trace computes in one
// pass and a .dmt container carries in its footer, so the derived mu
// is the same either way and calibrating a file never scans it.
func calibrate(sum trace.FileSummary, geo memsys.Geometry, buses bus.Config) metrics.Calibration {
	cal := metrics.Calibration{
		MeanClientResponse:      sum.Meta.MeanClientResponse,
		TransfersPerRequest:     sum.Meta.TransfersPerClientRequest,
		MeanRequestsPerTransfer: sum.MeanTransferPages() * float64(geo.PageBytes) / memsys.RequestBytes,
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
// records then stream from disk in bounded memory with a bit-identical
// report.
func RunContext(ctx context.Context, cfg Config, tr *trace.Trace) (*Result, error) {
	src, err := openSource(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer src.close()
	return run(ctx, cfg, src)
}

// recordSource is where a run's records come from, reduced to what
// the run needs: the summary that sizes it and a factory for cursors
// over the records, which the run streams twice (once to validate and
// warm up, once to simulate).
type recordSource struct {
	sum    trace.FileSummary
	cursor func() *trace.Cursor
	origin string // the container path, for streaming errors
	close  func() error
}

// openSource resolves the record source: the in-memory trace, or the
// .dmt container cfg.TraceFile names. Exactly one must be given. This
// is the only place the two sources differ.
func openSource(cfg Config, tr *trace.Trace) (*recordSource, error) {
	if tr != nil {
		if cfg.TraceFile != "" {
			return nil, fmt.Errorf("core: both an in-memory trace %q and Config.TraceFile %q given; pass one",
				tr.Name, cfg.TraceFile)
		}
		return &recordSource{sum: tr.Summary(), cursor: tr.Cursor, close: func() error { return nil }}, nil
	}
	if cfg.TraceFile == "" {
		return nil, fmt.Errorf("core: nil trace and no Config.TraceFile to stream from")
	}
	fr, err := trace.OpenDMTFile(cfg.TraceFile)
	if err != nil {
		return nil, err
	}
	return &recordSource{sum: fr.Summary(), cursor: fr.Cursor, origin: cfg.TraceFile, close: fr.Close}, nil
}

// run is the run assembly: defaulting, calibration, one validation and
// warm-up pass, then the serial or the barrier engine over a fresh
// cursor.
func run(ctx context.Context, cfg Config, src *recordSource) (*Result, error) {
	cfg, model, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := validateWarmupFraction(cfg.WarmupFraction); err != nil {
		return nil, err
	}
	sum := src.sum
	if sum.Records == 0 {
		return nil, fmt.Errorf("core: empty trace %q", sum.Name)
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
		cal := calibrate(sum, cfg.Geometry, cfg.Buses)
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
		if lm, err = layout.New(cfg.Geometry, *cfg.PL); err != nil {
			return nil, err
		}
		ccfg.Layout = lm
	}
	if err := validateAndWarm(src.cursor(), sum, cfg, lm); err != nil {
		return nil, err
	}

	cur := src.cursor()
	traceEnd := sim.Time(sum.Duration)
	var finish func(end sim.Time) *metrics.Report
	if cfg.Workers > 0 {
		p, err := newParallelRun(cfg, ccfg)
		if err != nil {
			return nil, err
		}
		if err := p.run(ctx, cur, lm, traceEnd); err != nil {
			return nil, err
		}
		finish = p.finish
	} else {
		eng := newEngine(cfg)
		ctl, err := controller.New(eng, ccfg)
		if err != nil {
			return nil, err
		}
		f := &feeder{ctl: ctl, cur: cur}
		if cfg.PerEventFeeder {
			feed(eng, f)
		} else {
			eng.SetFeeder(f)
		}
		if lm != nil {
			scheduleRebalances(eng, ctl, lm, traceEnd)
		}
		if err := eng.RunContext(ctx); err != nil {
			return nil, err
		}
		finish = func(end sim.Time) *metrics.Report { return ctl.Report(cfg.Scheme, ctl.Finish(end)) }
	}
	if err := cur.Err(); err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", src.origin, err)
	}

	window := cfg.MeterWindow
	if window == 0 {
		window = sum.Duration + 2*sim.Millisecond
	}
	res.Report = finish(sim.Time(window))
	if lm != nil {
		res.MigratedPages = lm.MigratedPages
		res.MigrationEnergyJ = lm.MigrationEnergyJ
		res.Rebalances = lm.Rebalances
	}
	return res, nil
}

// newEngine returns the event loop the config's scheduler knob selects.
func newEngine(cfg Config) *sim.Engine {
	if cfg.HeapScheduler {
		return sim.NewWithHeap()
	}
	return sim.New()
}

// validateWarmupFraction rejects fractions outside (0, 1] loudly,
// after defaulting (zero has already become 1.0).
func validateWarmupFraction(fraction float64) error {
	if !(fraction > 0 && fraction <= 1) {
		return fmt.Errorf("core: WarmupFraction %g outside (0, 1]", fraction)
	}
	return nil
}

// validateAndWarm streams the records once before the run. It applies
// trace.Trace.Validate's per-record checks and the memory range check,
// and feeds the DMA references of the first WarmupFraction of the
// records to the layout manager, then installs the resulting layout
// without charging its cost: the measured window starts from
// popularity steady state.
//
// Trace-level violations return at once, but the first range violation
// is held until the scan ends, so a malformed record anywhere in the
// trace wins over an earlier out-of-range one — the precedence of
// validating the whole trace before range-checking it.
func validateAndWarm(cur *trace.Cursor, sum trace.FileSummary, cfg Config, lm *layout.Manager) error {
	maxPage := memsys.PageID(cfg.Geometry.TotalPages())
	warm := int64(0) // records whose DMA pages warm the layout
	if lm != nil {
		warm = int64(cfg.WarmupFraction * float64(sum.Records))
	}
	var rangeErr error
	var last sim.Time
	for i := int64(0); ; i++ {
		r, ok := cur.Next()
		if !ok {
			break
		}
		if err := trace.CheckRecord(sum.Name, i, r, last); err != nil {
			return err
		}
		last = r.Time
		end := r.Page + 1
		if r.Kind.IsDMA() {
			end = r.Page + memsys.PageID(r.Pages)
		}
		if rangeErr == nil && end > maxPage {
			rangeErr = fmt.Errorf("core: record %d touches pages [%d,%d) outside memory of %d pages",
				i, r.Page, end, maxPage)
		}
		if i < warm && r.Kind.IsDMA() {
			for p := 0; p < int(r.Pages); p++ {
				lm.Observe(r.Page + memsys.PageID(p))
			}
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if rangeErr != nil {
		return rangeErr
	}
	if lm != nil {
		lm.Rebalance(nil)
		lm.ResetCosts()
	}
	return nil
}

// feeder is the arrival source of every engine: the run loop pulls
// batches straight from a record cursor (see sim.Feeder), so arrivals
// never pass through the scheduler. The cursor reads an in-memory
// trace, a .dmt stream (one decoded chunk resident) or a barrier
// shard's staging buffer. Its same-instant priority, feederPrio, is
// reserved for trace arrivals across the whole simulator: transfer
// completions (priority 0) at the same instant are observed first,
// policy and epoch timers (priorities 2+) after. A failed .dmt stream
// looks exhausted to the engine; the run checks the cursor's Err after
// the engine stops.
type feeder struct {
	ctl    *controller.Controller
	cur    *trace.Cursor
	nextID int64
}

// feederPrio is the same-instant dispatch priority of trace arrivals.
// No other event source uses it.
const feederPrio = 1

func (f *feeder) Peek() (sim.Time, int8, bool) {
	at, ok := f.cur.NextTime()
	return at, feederPrio, ok
}

func (f *feeder) Fire(e *sim.Engine) {
	now := e.Now()
	for {
		r, ok := f.cur.Peek()
		if !ok || r.Time != now {
			return
		}
		f.cur.Advance()
		if r.Kind.IsDMA() {
			f.ctl.StartTransfer(dma.FromRecord(f.nextID, r))
			f.nextID++
		} else {
			f.ctl.ProcAccess(r.Page)
		}
	}
}

// feed is the reference arrival path (Config.PerEventFeeder): the
// feeder's batches are delivered by a self-advancing engine event per
// distinct record timestamp instead of the engine's feeder hook.
func feed(eng *sim.Engine, f *feeder) {
	var step func(*sim.Engine)
	next := func() {
		if at, prio, ok := f.Peek(); ok {
			eng.SchedulePrio(at, prio, step)
		}
	}
	step = func(e *sim.Engine) {
		f.Fire(e)
		next()
	}
	next()
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
// technique pair: the trace duration plus 2 ms of drain, from the
// baseline config's record source (the pair must replay the same
// records, so either source serves).
func pairWindow(base Config, tr *trace.Trace) (sim.Duration, error) {
	src, err := openSource(base, tr)
	if err != nil {
		return 0, err
	}
	src.close()
	return src.sum.Duration + 2*sim.Millisecond, nil
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
