// Package core assembles the full simulator: it feeds a memory-access
// trace through the controller, schedules popularity-based layout
// rebalances, derives the DMA-TA slack parameter mu from a CP-Limit,
// and produces the evaluation's reports.
package core

import (
	"context"
	"errors"
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
	// Empty means the registry default (the paper's RDRAM part).
	// Unknown names error loudly, listing the registered technologies.
	// When the geometry is defaulted, the chip bandwidth follows the
	// resolved model.
	Tech string
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
	// their migrations are charged in full. Default 1.0. A PL run reads
	// this prefix once before the run; no other scheme reads it.
	WarmupFraction float64
	// Scheme labels the report; empty derives "baseline"/"dma-ta"/
	// "dma-ta-pl" from TA and PL.
	Scheme string
	// TraceFile streams the trace from a .dmt container on disk instead
	// of an in-memory trace: pass a nil trace to Run/RunContext and set
	// this path. Both sources reach the simulator as the same record
	// cursor and differ only in where it reads: the file is decoded
	// chunk by chunk (bounded memory regardless of trace length), and
	// the report is bit-identical to running the same records from
	// memory. Mutually exclusive with a non-nil trace.
	TraceFile string
}

// withDefaults resolves the technology model and returns a fully
// populated copy.
func (c Config) withDefaults() (Config, *energy.Model, error) {
	model, err := energy.Lookup(c.Tech)
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
		// default its waits are 10 ns, 100 ns and 2 us.
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
	MigratedPages int64
	Rebalances    int64
	// Records is the number of trace records the run replayed.
	Records int64
}

// Work returns what the run simulated: its engine dispatches and trace
// records. The experiment runner folds it into -timing's throughput.
func (r *Result) Work() metrics.SimWork {
	if r == nil || r.Report == nil {
		return metrics.SimWork{}
	}
	return metrics.SimWork{Events: r.Report.Events, Records: uint64(r.Records)}
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
// over the records. A run opens one cursor and simulates from it; a PL
// run opens a second, first, for its warm-up prefix.
type recordSource struct {
	sum    trace.FileSummary
	cursor func() *trace.Cursor
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
	return &recordSource{sum: fr.Summary(), cursor: fr.Cursor, close: fr.Close}, nil
}

// run is the run assembly: defaulting, calibration, the PL warm-up,
// then the event loop over one checking cursor. The
// cursor validates each record as the engine reads it, so a trace that
// fails mid-run stops the engine's input and the run returns the
// cursor's error before it closes any accounting.
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

	res := &Result{Records: sum.Records}
	ccfg := controller.Config{
		Geometry:     cfg.Geometry,
		Topology:     cfg.Topology,
		Buses:        cfg.Buses,
		Policy:       cfg.Policy,
		TA:           cfg.TA,
		Mapper:       cfg.Mapper,
		Model:        model,
		InitialState: 0, // Active; the policy idles chips down immediately
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

	maxPage := memsys.PageID(cfg.Geometry.TotalPages())
	open := func() *trace.Cursor {
		c := src.cursor()
		c.Check(maxPage)
		return c
	}
	var lm *layout.Manager
	if cfg.PL != nil {
		if lm, err = layout.New(cfg.Geometry, *cfg.PL); err != nil {
			return nil, err
		}
		ccfg.Layout = lm
		warm := int64(cfg.WarmupFraction * float64(sum.Records))
		if err := warmLayout(open(), warm, lm); err != nil {
			return nil, cursorErr(err)
		}
	}

	eng := sim.New()
	ctl, err := controller.New(eng, ccfg)
	if err != nil {
		return nil, err
	}
	cur := open()
	eng.SetFeeder(&feeder{ctl: ctl, cur: cur})
	if lm != nil {
		scheduleRebalances(eng, ctl, lm, sim.Time(sum.Duration))
	}
	if err := eng.RunContext(ctx); err != nil {
		return nil, err
	}
	if err := cur.Err(); err != nil {
		return nil, cursorErr(err)
	}

	window := cfg.MeterWindow
	if window == 0 {
		window = sum.Duration + 2*sim.Millisecond
	}
	res.Report = ctl.Report(cfg.Scheme, ctl.Finish(sim.Time(window)))
	if lm != nil {
		res.MigratedPages = lm.MigratedPages
		res.Rebalances = lm.Rebalances
	}
	return res, nil
}

// validateWarmupFraction rejects fractions outside (0, 1] loudly,
// after defaulting (zero has already become 1.0).
func validateWarmupFraction(fraction float64) error {
	if !(fraction > 0 && fraction <= 1) {
		return fmt.Errorf("core: WarmupFraction %g outside (0, 1]", fraction)
	}
	return nil
}

// warmLayout feeds the DMA pages of the first n records to the layout
// manager, then installs the resulting layout without charging its
// cost: the measured window starts from popularity steady state. It
// reads those n records and no more.
func warmLayout(cur *trace.Cursor, n int64, lm *layout.Manager) error {
	for i := int64(0); i < n; i++ {
		r, ok := cur.Next()
		if !ok {
			break
		}
		if r.Kind.IsDMA() {
			for p := 0; p < int(r.Pages); p++ {
				lm.Observe(r.Page + memsys.PageID(p))
			}
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	lm.Rebalance(nil)
	lm.ResetCosts()
	return nil
}

// cursorErr words a checking cursor's error for the caller. A record
// outside memory is the run's own check, so it reads as core's; a
// malformed record or container reads as the trace package words it,
// the same whichever source it came from.
func cursorErr(err error) error {
	var re *trace.PageRangeError
	if errors.As(err, &re) {
		return fmt.Errorf("core: %w", err)
	}
	return err
}

// feeder is the run's arrival source: the run loop pulls batches
// straight from a record cursor (see sim.Feeder), so arrivals never
// pass through the scheduler. The cursor reads an in-memory trace or a
// .dmt stream (one decoded chunk resident). Its same-instant priority, feederPrio, is
// reserved for trace arrivals across the whole simulator: transfer
// completions (priority 0) at the same instant are observed first,
// policy and epoch timers (priorities 2+) after. A failed cursor (a
// broken .dmt stream or a record that fails its check) looks exhausted
// to the engine; the run checks the cursor's Err after the engine
// stops.
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

// RunBaselinePairParallel runs the same trace under a baseline config
// and a technique config with a shared metering window, returning both
// results plus the fractional savings. The trace may be nil when both
// configs name the same .dmt container in TraceFile. When parallel > 1
// the two runs go on separate goroutines (each simulation owns its own
// single-goroutine engine; see internal/sim), with results
// bit-identical to parallel 1. Cancellation is observed mid-run: the
// engines poll ctx every few thousand dispatches, so a cancelled sweep
// aborts within microseconds of wall time instead of finishing the
// simulation in flight.
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
