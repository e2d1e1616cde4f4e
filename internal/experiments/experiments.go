// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5) on the simulator. Each experiment
// returns structured data plus a text rendering, so the benchmark
// harness, the CLI and the tests share one implementation.
//
// Every experiment decomposes into independent jobs — one simulation
// run per scheme/workload/sweep-point — executed through a Runner
// worker pool. Results are reassembled in job order, so the output of
// a parallel run is byte-identical to a sequential one; see Runner.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"dmamem/internal/controller"
	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/metrics"
	"dmamem/internal/server"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// Suite holds the shared configuration of an experiment run. A Suite
// is safe for concurrent use by the jobs of one Runner: the workload
// cache is single-flight, so a trace is generated exactly once even
// when several schemes request it simultaneously.
type Suite struct {
	// Duration of generated traces, in simulated time (sim.Duration,
	// picoseconds). The paper's shapes are stable from ~40 ms; the CLI
	// defaults to 100 ms.
	Duration sim.Duration
	// DbDuration for the (much denser) database traces; zero means
	// Duration.
	DbDuration sim.Duration
	// Seed for all generators.
	Seed uint64
	// Runner executes the suite's independent simulation jobs. A nil
	// Runner runs everything sequentially on the calling goroutine;
	// results are byte-identical either way.
	Runner *Runner

	mu        sync.Mutex
	cache     map[string]*cacheEntry
	baselines map[string]*baseEntry
}

// cacheEntry is the single-flight slot for one workload trace: the
// first requester generates, concurrent requesters wait on the Once.
type cacheEntry struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

// workloadNames are the four traces of Table 2, in presentation order.
var workloadNames = []string{"OLTP-St", "Synthetic-St", "OLTP-Db", "Synthetic-Db"}

// NewSuite returns a suite with the given trace duration.
func NewSuite(d sim.Duration, seed uint64) *Suite {
	return &Suite{Duration: d, Seed: seed, cache: map[string]*cacheEntry{}}
}

func (s *Suite) dbDuration() sim.Duration {
	if s.DbDuration != 0 {
		return s.DbDuration
	}
	return s.Duration
}

// workloads returns the four traces of Table 2, generating (in
// parallel, through the suite's Runner) and caching them on first use.
func (s *Suite) workloads(ctx context.Context) ([]*trace.Trace, error) {
	return mapJobs(ctx, s.Runner, len(workloadNames),
		func(i int) string { return "workload/" + workloadNames[i] },
		func(ctx context.Context, i int) (*trace.Trace, error) {
			return s.workload(workloadNames[i])
		})
}

// workload returns one cached trace, generating it on first use.
// Concurrent callers of the same name share a single generation.
func (s *Suite) workload(name string) (*trace.Trace, error) {
	s.mu.Lock()
	if s.cache == nil {
		s.cache = map[string]*cacheEntry{}
	}
	e, ok := s.cache[name]
	if !ok {
		e = &cacheEntry{}
		s.cache[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.tr, e.err = s.generate(name) })
	return e.tr, e.err
}

// generate builds one workload trace. Each generator gets its own
// seed-derived RNG, so concurrent generation of different workloads is
// isolated (verified by the package's race tests).
func (s *Suite) generate(name string) (*trace.Trace, error) {
	var tr *trace.Trace
	var err error
	switch name {
	case "OLTP-St":
		cfg := server.DefaultStorage()
		cfg.Duration = s.Duration
		cfg.Seed = s.Seed + 7
		var res *server.StorageResult
		if res, err = server.GenerateStorage(cfg); err == nil {
			tr = res.Trace
		}
	case "Synthetic-St":
		cfg := synth.DefaultSt()
		cfg.Duration = s.Duration
		cfg.Seed = s.Seed + 1
		tr, err = synth.GenerateSt(cfg)
	case "OLTP-Db":
		cfg := server.DefaultDatabase()
		cfg.Duration = s.dbDuration()
		cfg.Seed = s.Seed + 11
		var res *server.DatabaseResult
		if res, err = server.GenerateDatabase(cfg); err == nil {
			tr = res.Trace
		}
	case "Synthetic-Db":
		cfg := synth.DefaultDb()
		cfg.St.Duration = s.dbDuration()
		cfg.St.Seed = s.Seed + 2
		tr, err = synth.GenerateDb(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: workload %s: %w", name, err)
	}
	return tr, nil
}

// runPair is core.RunBaselinePairParallel on one goroutine. It also
// reports the pair's combined simulated work, so sweep jobs feed
// -timing's throughput.
func runPair(ctx context.Context, base, tech core.Config, tr *trace.Trace) (savings float64, work metrics.SimWork, err error) {
	b, t, savings, err := core.RunBaselinePairParallel(ctx, base, tech, tr, 1)
	if err != nil {
		return 0, metrics.SimWork{}, err
	}
	return savings, b.Work().Plus(t.Work()), nil
}

// taConfig returns the technique configuration for a CP-Limit.
func taConfig(cpLimit float64, pl *layout.Config) core.Config {
	return core.Config{TA: controller.DefaultTA(0), CPLimit: cpLimit, PL: pl}
}

func plConfig(groups int) *layout.Config {
	cfg := layout.DefaultConfig()
	cfg.Groups = groups
	return &cfg
}

// Table1 renders the paper's RDRAM power model from energy.RDRAM (a
// transcription check of the paper's Table 1; powers in watts,
// rendered as milliwatts). Demotions are timed in memory cycles and
// wakes in nanoseconds, as the paper writes them.
func Table1() string {
	m := energy.RDRAM()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: RDRAM power model\n")
	fmt.Fprintf(&b, "%-22s %8s %14s\n", "state/transition", "power", "time")
	row := func(name string, power float64, t string) {
		fmt.Fprintf(&b, "%-22s %6.0fmW %14s\n", name, 1e3*power, t)
	}
	for s := energy.Active; int(s) < m.NumStates(); s++ {
		row(m.StateName(s), m.Power(s), "-")
	}
	for s := energy.Active + 1; int(s) < m.NumStates(); s++ {
		down := m.DownTo(s)
		n, unit := down.Time/m.CycleTime, "memory cycles"
		if n == 1 {
			unit = "memory cycle"
		}
		row("active->"+m.StateName(s), down.Power, fmt.Sprintf("%d %s", n, unit))
	}
	for s := energy.Active + 1; int(s) < m.NumStates(); s++ {
		up := m.UpFrom(s)
		row(m.StateName(s)+"->active", up.Power,
			fmt.Sprintf("+%d ns", up.Time/sim.Nanosecond))
	}
	return b.String()
}

// Table2Row summarizes one workload: DMA transfer rates per
// millisecond of simulated time, processor access rates, and the
// distinct-page footprint.
type Table2Row struct {
	// Name of the workload ("OLTP-St", ...).
	Name string
	// NetPerMs is network DMA transfers per simulated millisecond.
	NetPerMs float64
	// DiskPerMs is disk DMA transfers per simulated millisecond.
	DiskPerMs float64
	// ProcPerMs is processor accesses per simulated millisecond.
	ProcPerMs float64
	// ProcPerTransfer is processor accesses per DMA transfer.
	ProcPerTransfer float64
	// DistinctPages touched by the trace.
	DistinctPages int
}

// Table2 generates the four traces and summarizes them like the
// paper's trace inventory, one analysis job per workload.
func (s *Suite) Table2(ctx context.Context) ([]Table2Row, error) {
	ws, err := s.workloads(ctx)
	if err != nil {
		return nil, err
	}
	return mapJobs(ctx, s.Runner, len(ws),
		func(i int) string { return "table2/" + ws[i].Name },
		func(ctx context.Context, i int) (Table2Row, error) {
			tr := ws[i]
			st := trace.Analyze(tr)
			dur := st.Duration.Seconds() * 1e3
			return Table2Row{
				Name:            tr.Name,
				NetPerMs:        float64(st.NetTransfers) / dur,
				DiskPerMs:       float64(st.DiskTransfers) / dur,
				ProcPerMs:       st.ProcAccessesPerMs(),
				ProcPerTransfer: st.ProcAccessesPerTransfer(),
				DistinctPages:   st.DistinctPages,
			}, nil
		})
}

// FormatTable2 renders Table2 rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: traces\n%-14s %9s %9s %11s %10s %8s\n",
		"trace", "net/ms", "disk/ms", "proc/ms", "proc/xfer", "pages")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9.1f %9.1f %11.0f %10.0f %8d\n",
			r.Name, r.NetPerMs, r.DiskPerMs, r.ProcPerMs, r.ProcPerTransfer, r.DistinctPages)
	}
	return b.String()
}

// BreakdownRow is one bar of a Figure 2(b)/Figure 6 style breakdown.
type BreakdownRow struct {
	// Label of the bar (workload or scheme name).
	Label string
	// Fraction maps an energy category name to its share of the total
	// (0..1).
	Fraction map[string]float64
	// TotalJ is the total energy of the run in joules.
	TotalJ float64
}

func breakdownRow(label string, e energy.Breakdown) BreakdownRow {
	r := BreakdownRow{Label: label, Fraction: map[string]float64{}, TotalJ: e.Total()}
	for c := energy.Category(0); c < energy.NumCategories; c++ {
		r.Fraction[c.String()] = e.Fraction(c)
	}
	return r
}

// FormatBreakdowns renders breakdown bars.
func FormatBreakdowns(title string, rows []BreakdownRow) string {
	cats := []string{"active-serving", "active-idle-dma", "active-idle-threshold",
		"transition", "low-power", "migration", "proc-serving"}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-22s", title, "scheme")
	for _, c := range cats {
		fmt.Fprintf(&b, " %9s", shortCat(c))
	}
	fmt.Fprintf(&b, " %10s\n", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s", r.Label)
		for _, c := range cats {
			fmt.Fprintf(&b, " %8.1f%%", 100*r.Fraction[c])
		}
		fmt.Fprintf(&b, " %8.2fmJ\n", 1e3*r.TotalJ)
	}
	return b.String()
}

func shortCat(c string) string {
	switch c {
	case "active-serving":
		return "serving"
	case "active-idle-dma":
		return "idle-dma"
	case "active-idle-threshold":
		return "idle-thr"
	case "proc-serving":
		return "proc"
	}
	return c
}

// Fig2b computes the baseline energy breakdown for the two storage
// workloads (the paper reports 48-51% active-idle-DMA, 26-27% serving,
// 3-4% threshold idle), one run per workload.
func (s *Suite) Fig2b(ctx context.Context) ([]BreakdownRow, error) {
	names := []string{"OLTP-St", "Synthetic-St"}
	return mapJobs(ctx, s.Runner, len(names),
		func(i int) string { return "fig2b/" + names[i] },
		func(ctx context.Context, i int) (BreakdownRow, error) {
			tr, err := s.workload(names[i])
			if err != nil {
				return BreakdownRow{}, err
			}
			res, err := core.RunContext(ctx, core.Config{}, tr)
			if err != nil {
				return BreakdownRow{}, err
			}
			return breakdownRow(names[i], res.Report.Energy), nil
		})
}

// Fig4 returns the page-popularity CDF of the OLTP-St trace (the paper
// shows ~20% of pages receiving ~60% of DMA accesses).
func (s *Suite) Fig4(ctx context.Context, points int) ([]trace.CDFPoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := s.workload("OLTP-St")
	if err != nil {
		return nil, err
	}
	return trace.Analyze(tr).PopularityCDF(points), nil
}

// FormatFig4 renders the CDF.
func FormatFig4(pts []trace.CDFPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: page popularity CDF (OLTP-St)\n%10s %10s\n", "pages%", "accesses%")
	for _, p := range pts {
		fmt.Fprintf(&b, "%9.0f%% %9.1f%%\n", 100*p.PageFrac, 100*p.AccessFrac)
	}
	return b.String()
}

// Fig5Point is one curve sample: savings over baseline at a CP-Limit.
type Fig5Point struct {
	// Workload the point belongs to.
	Workload string
	// Scheme is "dma-ta", "dma-ta-pl-2", "dma-ta-pl-3" or "dma-ta-pl-6".
	Scheme string
	// CPLimit is the client-perceived degradation bound (fraction,
	// e.g. 0.10).
	CPLimit float64
	// Savings is the fractional energy reduction over the baseline.
	Savings float64
	// UF is the utilization factor of the run (Section 5.3).
	UF float64
}

// FormatFig5 renders the savings curves grouped by workload.
func FormatFig5(pts []Fig5Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: energy savings over baseline vs CP-Limit\n")
	byWorkload := map[string][]Fig5Point{}
	var order []string
	for _, p := range pts {
		if _, ok := byWorkload[p.Workload]; !ok {
			order = append(order, p.Workload)
		}
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	for _, w := range order {
		fmt.Fprintf(&b, "%s:\n%-14s %9s %10s %6s\n", w, "scheme", "cp-limit", "savings", "uf")
		for _, p := range byWorkload[w] {
			fmt.Fprintf(&b, "%-14s %8.0f%% %9.1f%% %6.2f\n",
				p.Scheme, 100*p.CPLimit, 100*p.Savings, p.UF)
		}
	}
	return b.String()
}

// Fig6 computes the energy breakdowns of baseline, DMA-TA and
// DMA-TA-PL on OLTP-St at 10% CP-Limit (the paper's Figure 6), one run
// per scheme.
func (s *Suite) Fig6(ctx context.Context) ([]BreakdownRow, error) {
	tr, err := s.workload("OLTP-St")
	if err != nil {
		return nil, err
	}
	window := tr.Duration() + 2*sim.Millisecond
	schemes := []struct {
		label string
		cfg   core.Config
	}{
		{"baseline", core.Config{}},
		{"dma-ta", taConfig(0.10, nil)},
		{"dma-ta-pl", taConfig(0.10, plConfig(2))},
	}
	return mapJobs(ctx, s.Runner, len(schemes),
		func(i int) string { return "fig6/" + schemes[i].label },
		func(ctx context.Context, i int) (BreakdownRow, error) {
			cfg := schemes[i].cfg
			cfg.MeterWindow = window
			res, err := core.RunContext(ctx, cfg, tr)
			if err != nil {
				return BreakdownRow{}, err
			}
			return breakdownRow(schemes[i].label, res.Report.Energy), nil
		})
}

// Fig7Point is a utilization-factor sample.
type Fig7Point struct {
	// Scheme is "baseline", "dma-ta" or "dma-ta-pl".
	Scheme string
	// CPLimit is the degradation bound of the run (fraction; 0 for the
	// baseline).
	CPLimit float64
	// UF is the measured utilization factor.
	UF float64
}

// Fig7 sweeps CP-Limit and reports the utilization factor of DMA-TA
// and DMA-TA-PL on OLTP-St (paper: baseline ~0.33, DMA-TA-PL ~0.63 at
// 10% and ~0.75 at 30%), one run per (scheme, CP-Limit) point.
func (s *Suite) Fig7(ctx context.Context, cpLimits []float64) ([]Fig7Point, error) {
	tr, err := s.workload("OLTP-St")
	if err != nil {
		return nil, err
	}
	type spec struct {
		label   string
		cpLimit float64
		cfg     core.Config
	}
	specs := []spec{{"baseline", 0, core.Config{}}}
	for _, cp := range cpLimits {
		specs = append(specs,
			spec{"dma-ta", cp, taConfig(cp, nil)},
			spec{"dma-ta-pl", cp, taConfig(cp, plConfig(2))})
	}
	return mapJobs(ctx, s.Runner, len(specs),
		func(i int) string { return fmt.Sprintf("fig7/%s/cp=%.2f", specs[i].label, specs[i].cpLimit) },
		func(ctx context.Context, i int) (Fig7Point, error) {
			res, err := core.RunContext(ctx, specs[i].cfg, tr)
			if err != nil {
				return Fig7Point{}, err
			}
			return Fig7Point{Scheme: specs[i].label, CPLimit: specs[i].cpLimit,
				UF: res.Report.UtilizationFactor}, nil
		})
}

// FormatFig7 renders utilization factors.
func FormatFig7(pts []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: utilization factor vs CP-Limit (OLTP-St)\n%-12s %9s %6s\n",
		"scheme", "cp-limit", "uf")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12s %8.0f%% %6.3f\n", p.Scheme, 100*p.CPLimit, p.UF)
	}
	return b.String()
}

// SweepPoint is a generic (x, savings) sample for Figures 8-10.
type SweepPoint struct {
	// Workload the point belongs to.
	Workload string
	// Scheme is "dma-ta" or "dma-ta-pl".
	Scheme string
	// X is the sweep variable (units depend on the figure: transfers
	// per millisecond, processor accesses per transfer, or a bandwidth
	// ratio).
	X float64
	// Savings is the fractional energy reduction over the baseline.
	Savings float64
}

// sweepSchemes are the two techniques the sweep figures compare.
// sweepSchemeConfig builds a fresh configuration per job, so no config
// pointers are shared between concurrently running simulations.
var sweepSchemes = []string{"dma-ta", "dma-ta-pl"}

func sweepSchemeConfig(label string) core.Config {
	if label == "dma-ta-pl" {
		return taConfig(0.10, plConfig(2))
	}
	return taConfig(0.10, nil)
}

// FormatSweep renders a sweep with a caption for the x-axis.
func FormatSweep(title, xlabel string, pts []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s %-12s %10s %9s\n", title, "workload", "scheme", xlabel, "savings")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-14s %-12s %10.2f %8.1f%%\n", p.Workload, p.Scheme, p.X, 100*p.Savings)
	}
	return b.String()
}
