package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dmamem/internal/bus"
	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/metrics"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
)

// SuiteSpec is the serializable shape of a Suite: everything a
// service job needs to reconstruct the exact experiment configuration.
// Every field round-trips through JSON without loss, so a Suite built
// from a decoded spec produces bit-identical simulations.
type SuiteSpec struct {
	// Duration of generated traces (sim.Duration, picoseconds).
	Duration sim.Duration
	// DbDuration for the denser database traces; zero means Duration.
	DbDuration sim.Duration
	// Seed for all generators.
	Seed uint64
}

// NewSuiteFromSpec builds a suite from a serialized spec. Workloads
// and baselines are generated lazily and cached per suite.
func NewSuiteFromSpec(sp SuiteSpec) *Suite {
	s := NewSuite(sp.Duration, sp.Seed)
	s.DbDuration = sp.DbDuration
	return s
}

// Grid names understood by GridSpec. Each identifies one family of
// independent sweep points; the parameters of the spec select the
// points.
const (
	// GridFig5 sweeps CP-Limit for every Table 2 workload and scheme
	// (CPLimits x {dma-ta, dma-ta-pl-G for G in Groups}), the paper's
	// headline figure. Each run is scored against its workload's
	// cached single-flight baseline.
	GridFig5 = "fig5"
	// GridFig8 sweeps Synthetic-St arrival rate (RatesPerMs), the
	// paper's workload intensity sweep. Each (rate, scheme) job
	// regenerates its own trace and runs a baseline/technique pair.
	GridFig8 = "fig8"
	// GridFig9 sweeps processor accesses per transfer in Synthetic-Db
	// (PerTransfer); OLTP-Db averages 233 accesses per transfer.
	GridFig9 = "fig9"
	// GridFig10 sweeps I/O bus bandwidth (BusBW) over Workloads with
	// the memory rate fixed at 3.2 GB/s, one job per (workload,
	// bandwidth, scheme).
	GridFig10 = "fig10"
	// gridNoop yields Points trivial results without running any
	// simulation, so what a grid job costs beyond its simulations
	// (admission, dispatch, serialization) can be measured alone.
	gridNoop = "noop"
)

// GridSpec names a grid of independent sweep points and its
// parameters. A spec is pure data: the same spec resolved against
// suites built from the same SuiteSpec enumerates the same points in
// the same order, so a grid submitted to the service as JSON runs
// exactly the points the CLI runs, and reassembling results by point
// index keeps them deterministic.
type GridSpec struct {
	// Name selects the grid (GridFig5, GridFig8, ...).
	Name string
	// CPLimits are the CP-Limit sweep values (GridFig5).
	CPLimits []float64 `json:",omitempty"`
	// Groups are the DMA-TA-PL group counts swept next to plain DMA-TA
	// (GridFig5).
	Groups []int `json:",omitempty"`
	// RatesPerMs are the arrival-rate sweep values (GridFig8).
	RatesPerMs []float64 `json:",omitempty"`
	// PerTransfer are the processor-accesses-per-transfer sweep values
	// (GridFig9).
	PerTransfer []int `json:",omitempty"`
	// BusBW are the I/O bus bandwidths in bytes/s (GridFig10).
	BusBW []float64 `json:",omitempty"`
	// Workloads restricts GridFig10 to the named Table 2 workloads;
	// empty means the paper's pair {OLTP-St, Synthetic-St}.
	Workloads []string `json:",omitempty"`
	// Channels adds a memory-channel dimension to GridFig10: every
	// (workload, bus bandwidth) pair is additionally swept over these
	// channel counts, each simulated under a memsys.Topology with that
	// many independently clocked channels (channel bandwidth pinned to
	// one chip's rate, DDR style). Empty means the legacy
	// single-channel RDRAM points, byte-identical to specs that predate
	// the field.
	Channels []int `json:",omitempty"`
	// Techs adds a memory-technology dimension to GridFig10: every
	// point is additionally swept over these power-model backends
	// (registry names, see energy.Techs), with the bandwidth ratio on
	// the x axis derived from each backend's own memory rate. Empty
	// means the legacy RDRAM points, byte-identical to specs that
	// predate the field.
	Techs []string `json:",omitempty"`
	// Points is the number of trivial points of gridNoop.
	Points int `json:",omitempty"`
}

// resolvedGrid is the runnable form of a GridSpec: a point count,
// stable per-point labels, and a runner. run returns the point value
// (a JSON-serializable struct), what the point simulated
// (observability only), and an error.
type resolvedGrid struct {
	n     int
	label func(i int) string
	run   func(ctx context.Context, i int) (any, metrics.SimWork, error)
}

// resolveGrid turns a spec into its runnable form. Resolution is
// cheap and deterministic — no traces are generated until a point
// runs — so the service resolves grids at admission just to validate
// and size them.
func (s *Suite) resolveGrid(gs GridSpec) (*resolvedGrid, error) {
	switch gs.Name {
	case GridFig5:
		return s.fig5Grid(gs), nil
	case GridFig8:
		return s.fig8Grid(gs), nil
	case GridFig9:
		return s.fig9Grid(gs), nil
	case GridFig10:
		// Resolve technologies eagerly so a typo fails the whole grid
		// loudly instead of erroring one point at a time mid-sweep.
		for _, tech := range gs.Techs {
			if _, err := energy.Lookup(tech); err != nil {
				return nil, err
			}
		}
		return s.fig10Grid(gs), nil
	case gridNoop:
		return &resolvedGrid{
			n:     gs.Points,
			label: func(i int) string { return fmt.Sprintf("noop/%d", i) },
			run: func(ctx context.Context, i int) (any, metrics.SimWork, error) {
				return SweepPoint{Workload: "noop", Scheme: "noop", X: float64(i)}, metrics.SimWork{}, nil
			},
		}, nil
	}
	return nil, fmt.Errorf("experiments: unknown grid %q", gs.Name)
}

// GridRun resolves and executes a grid on the suite's Runner and
// returns the points in grid order. Every point writes its own slot,
// so the output is byte-identical at any Runner parallelism.
func GridRun[T any](ctx context.Context, s *Suite, gs GridSpec) ([]T, error) {
	g, err := s.resolveGrid(gs)
	if err != nil {
		return nil, err
	}
	vals, err := runGrid(ctx, s.Runner, g, nil)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(vals))
	for i, v := range vals {
		p, ok := v.(T)
		if !ok {
			return nil, fmt.Errorf("experiments: grid %s point %d is %T, want %T", gs.Name, i, v, out[i])
		}
		out[i] = p
	}
	return out, nil
}

// runGrid fans the grid's points across the runner, each writing its
// own slot, and returns the values in point order. onPoint, when
// non-nil, is called after each finished point, from the goroutine
// that ran it.
func runGrid(ctx context.Context, r *Runner, g *resolvedGrid, onPoint func(i int, label string)) ([]any, error) {
	out := make([]any, g.n)
	jobs := make([]job, g.n)
	for i := 0; i < g.n; i++ {
		i := i
		j := &jobs[i]
		*j = job{Label: g.label(i), Run: func(ctx context.Context) error {
			v, work, err := g.run(ctx, i)
			if err != nil {
				return err
			}
			j.Work = work
			out[i] = v
			if onPoint != nil {
				onPoint(i, j.Label)
			}
			return nil
		}}
	}
	if err := r.do(ctx, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// baseEntry is the single-flight slot for one workload's baseline
// run, mirroring the workload cache: sweeps over the same workload
// share one baseline simulation per suite, and because the baseline
// is a pure function of (config, trace) it is the same report bit for
// bit whichever point computes it.
type baseEntry struct {
	once sync.Once
	res  *core.Result
	err  error
}

// baseline returns the cached baseline result for a workload,
// simulating it on first use with the suite's standard metering
// window.
func (s *Suite) baseline(ctx context.Context, name string) (*core.Result, error) {
	s.mu.Lock()
	if s.baselines == nil {
		s.baselines = map[string]*baseEntry{}
	}
	e, ok := s.baselines[name]
	if !ok {
		e = &baseEntry{}
		s.baselines[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		tr, err := s.workload(name)
		if err != nil {
			e.err = err
			return
		}
		start := time.Now()
		e.res, e.err = core.RunContext(ctx, core.Config{MeterWindow: tr.Duration() + 2*sim.Millisecond}, tr)
		if e.err == nil && s.Runner != nil && s.Runner.Timings != nil {
			s.Runner.Timings.AddSim("baseline/"+name, time.Since(start), e.res.Work())
		}
	})
	return e.res, e.err
}

// fig5Grid enumerates the Figure 5 points: for every Table 2 workload
// and CP-Limit, plain DMA-TA followed by DMA-TA-PL at each group
// count. Each point runs the technique against the workload's cached
// baseline.
func (s *Suite) fig5Grid(gs GridSpec) *resolvedGrid {
	type spec struct {
		wi      int
		scheme  string
		cpLimit float64
		groups  int // 0 = plain DMA-TA
	}
	var specs []spec
	for wi := range workloadNames {
		for _, cp := range gs.CPLimits {
			specs = append(specs, spec{wi, "dma-ta", cp, 0})
			for _, g := range gs.Groups {
				specs = append(specs, spec{wi, fmt.Sprintf("dma-ta-pl-%d", g), cp, g})
			}
		}
	}
	return &resolvedGrid{
		n: len(specs),
		label: func(i int) string {
			sp := specs[i]
			return fmt.Sprintf("fig5/%s/%s/cp=%.2f", workloadNames[sp.wi], sp.scheme, sp.cpLimit)
		},
		run: func(ctx context.Context, i int) (any, metrics.SimWork, error) {
			sp := specs[i]
			tr, err := s.workload(workloadNames[sp.wi])
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			base, err := s.baseline(ctx, workloadNames[sp.wi])
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			cfg := taConfig(sp.cpLimit, nil)
			if sp.groups > 0 {
				cfg = taConfig(sp.cpLimit, plConfig(sp.groups))
			}
			cfg.MeterWindow = tr.Duration() + 2*sim.Millisecond
			res, err := core.RunContext(ctx, cfg, tr)
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			return Fig5Point{
				Workload: tr.Name, Scheme: sp.scheme, CPLimit: sp.cpLimit,
				Savings: res.Report.Savings(base.Report),
				UF:      res.Report.UtilizationFactor,
			}, res.Work(), nil
		},
	}
}

// fig8Grid enumerates the workload-intensity sweep: one point per
// (arrival rate, scheme), each regenerating its own trace (the
// deterministic generator makes duplicate generation bit-identical)
// and running a baseline/technique pair.
func (s *Suite) fig8Grid(gs GridSpec) *resolvedGrid {
	type spec struct {
		rate   float64
		scheme int
	}
	var specs []spec
	for _, rate := range gs.RatesPerMs {
		for si := range sweepSchemes {
			specs = append(specs, spec{rate, si})
		}
	}
	return &resolvedGrid{
		n: len(specs),
		label: func(i int) string {
			return fmt.Sprintf("fig8/%s/rate=%g", sweepSchemes[specs[i].scheme], specs[i].rate)
		},
		run: func(ctx context.Context, i int) (any, metrics.SimWork, error) {
			sp := specs[i]
			cfg := synth.DefaultSt()
			cfg.Duration = s.Duration
			cfg.Seed = s.Seed + 1
			cfg.RatePerMs = sp.rate
			tr, err := synth.GenerateSt(cfg)
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			savings, work, err := runPair(ctx, core.Config{}, sweepSchemeConfig(sweepSchemes[sp.scheme]), tr)
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			return SweepPoint{Workload: "Synthetic-St", Scheme: sweepSchemes[sp.scheme],
				X: sp.rate, Savings: savings}, work, nil
		},
	}
}

// fig9Grid enumerates the processor-interference sweep: one point per
// (accesses-per-transfer, scheme) on Synthetic-Db.
func (s *Suite) fig9Grid(gs GridSpec) *resolvedGrid {
	type spec struct {
		per    int
		scheme int
	}
	var specs []spec
	for _, per := range gs.PerTransfer {
		for si := range sweepSchemes {
			specs = append(specs, spec{per, si})
		}
	}
	return &resolvedGrid{
		n: len(specs),
		label: func(i int) string {
			return fmt.Sprintf("fig9/%s/per=%d", sweepSchemes[specs[i].scheme], specs[i].per)
		},
		run: func(ctx context.Context, i int) (any, metrics.SimWork, error) {
			sp := specs[i]
			cfg := synth.DefaultDb()
			cfg.St.Duration = s.dbDuration()
			cfg.St.Seed = s.Seed + 2
			cfg.ProcRatePerMs = 0
			cfg.ProcPerTransfer = sp.per
			tr, err := synth.GenerateDb(cfg)
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			savings, work, err := runPair(ctx, core.Config{}, sweepSchemeConfig(sweepSchemes[sp.scheme]), tr)
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			return SweepPoint{Workload: "Synthetic-Db", Scheme: sweepSchemes[sp.scheme],
				X: float64(sp.per), Savings: savings}, work, nil
		},
	}
}

// fig10Grid enumerates the bandwidth-ratio sweep: one point per
// (workload, bus bandwidth, channel count, technology, scheme), the
// memory rate taken from the technology backend (3.2 GB/s for the
// default RDRAM part). Without Channels and Techs it degenerates to
// the classic (workload, bus bandwidth, scheme) enumeration, byte for
// byte.
func (s *Suite) fig10Grid(gs GridSpec) *resolvedGrid {
	workloads := gs.Workloads
	if len(workloads) == 0 {
		workloads = []string{"OLTP-St", "Synthetic-St"}
	}
	chans := gs.Channels
	if len(chans) == 0 {
		chans = []int{0} // legacy single-channel RDRAM point
	}
	techs := gs.Techs
	if len(techs) == 0 {
		techs = []string{""} // legacy RDRAM point, no name suffix
	}
	type spec struct {
		workload string
		bw       float64
		channels int    // 0 = topology disabled
		tech     string // "" = legacy RDRAM default
		scheme   int
	}
	var specs []spec
	for _, name := range workloads {
		for _, bw := range gs.BusBW {
			for _, ch := range chans {
				for _, tech := range techs {
					for si := range sweepSchemes {
						specs = append(specs, spec{name, bw, ch, tech, si})
					}
				}
			}
		}
	}
	schemeName := func(sp spec) string {
		name := sweepSchemes[sp.scheme]
		if sp.channels > 0 {
			name = fmt.Sprintf("%s-%dch", name, sp.channels)
		}
		if sp.tech != "" {
			name = name + "@" + sp.tech
		}
		return name
	}
	return &resolvedGrid{
		n: len(specs),
		label: func(i int) string {
			sp := specs[i]
			return fmt.Sprintf("fig10/%s/%s/bw=%g", sp.workload, schemeName(sp), sp.bw)
		},
		run: func(ctx context.Context, i int) (any, metrics.SimWork, error) {
			sp := specs[i]
			tr, err := s.workload(sp.workload)
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			m, err := energy.Lookup(sp.tech)
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			memBW := m.Bandwidth
			bc := bus.Config{Count: 3, Bandwidth: sp.bw}
			base := core.Config{Buses: bc, Tech: sp.tech}
			tech := sweepSchemeConfig(sweepSchemes[sp.scheme])
			tech.Buses = bc
			tech.Tech = sp.tech
			if sp.channels > 0 {
				topo := memsys.Topology{Channels: sp.channels, ChannelBandwidth: memBW}
				base.Topology = topo
				tech.Topology = topo
			}
			savings, work, err := runPair(ctx, base, tech, tr)
			if err != nil {
				return nil, metrics.SimWork{}, err
			}
			return SweepPoint{Workload: sp.workload, Scheme: schemeName(sp),
				X: memBW / sp.bw, Savings: savings}, work, nil
		},
	}
}
