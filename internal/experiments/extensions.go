package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/server"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
)

// The experiments in this file go beyond the paper's figures: its
// stated future work (TPC-H style decision support), its Section 5.4
// aside about other memory technologies, and seed-replicated runs that
// attach dispersion to the headline numbers.

// SeedStats summarizes replicated runs of one configuration. All
// savings values are fractions of baseline energy (0.10 = 10%).
type SeedStats struct {
	// Scheme that was replicated.
	Scheme string
	// N is the number of seeds.
	N int
	// Mean fractional savings over the N seeds.
	Mean float64
	// StdDev is the sample standard deviation of the savings.
	StdDev float64
	// Min and Max are the extreme savings observed.
	Min, Max float64
}

// MultiSeedSavings reruns a technique over n differently seeded
// Synthetic-St traces and returns savings statistics — the dispersion
// behind a Figure 5 point. The per-seed runs are independent jobs on
// r's pool (nil r = sequential).
func MultiSeedSavings(ctx context.Context, r *Runner, d sim.Duration, n int, cfg core.Config) (SeedStats, error) {
	if n <= 0 {
		return SeedStats{}, fmt.Errorf("experiments: %d seeds", n)
	}
	vals, err := mapJobs(ctx, r, n,
		func(i int) string { return fmt.Sprintf("seeds/%s/seed=%d", cfg.Scheme, i+1) },
		func(ctx context.Context, i int) (float64, error) {
			scfg := synth.DefaultSt()
			scfg.Duration = d
			scfg.Seed = uint64(i + 1)
			tr, err := synth.GenerateSt(scfg)
			if err != nil {
				return 0, err
			}
			_, _, s, err := core.RunBaselinePair(core.Config{}, cfg, tr)
			if err != nil {
				return 0, err
			}
			return s, nil
		})
	if err != nil {
		return SeedStats{}, err
	}
	st := SeedStats{Scheme: cfg.Scheme, N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		st.Mean += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean /= float64(n)
	for _, v := range vals {
		st.StdDev += (v - st.Mean) * (v - st.Mean)
	}
	if n > 1 {
		st.StdDev = math.Sqrt(st.StdDev / float64(n-1))
	}
	return st, nil
}

// DSSRow is the decision-support extension result.
type DSSRow struct {
	// Scheme is "dma-ta" or "dma-ta-pl".
	Scheme string
	// Savings is the fractional energy reduction over the baseline.
	Savings float64
	// UF is the technique's utilization factor.
	UF float64
	// BaselineUF is the baseline's utilization factor.
	BaselineUF float64
}

// DSSExtension runs the TPC-H style scan workload (the paper's future
// work) under both techniques, one job per scheme on r's pool. The
// result is an honest negative: scan buffers are recycled round-robin,
// so there is no popularity skew for PL to exploit, and scans already
// stream near-continuously.
func DSSExtension(ctx context.Context, r *Runner, d sim.Duration, seed uint64) ([]DSSRow, error) {
	cfg := server.DefaultDSS()
	cfg.Duration = d
	cfg.Seed = seed
	res, err := server.GenerateDSS(cfg)
	if err != nil {
		return nil, err
	}
	tr := res.Trace
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("no decision-support query starts within %gms, so the trace is empty; use a longer duration",
			float64(d)/float64(sim.Millisecond))
	}
	return mapJobs(ctx, r, len(sweepSchemes),
		func(i int) string { return "dss/" + sweepSchemes[i] },
		func(ctx context.Context, i int) (DSSRow, error) {
			base, tech, savings, err := core.RunBaselinePair(core.Config{}, sweepSchemeConfig(sweepSchemes[i]), tr)
			if err != nil {
				return DSSRow{}, err
			}
			return DSSRow{
				Scheme:     sweepSchemes[i],
				Savings:    savings,
				UF:         tech.Report.UtilizationFactor,
				BaselineUF: base.Report.UtilizationFactor,
			}, nil
		})
}

// TechState is one power state's share of a technology row: its name
// in the backend model and the resident energy spent in it.
type TechState struct {
	// Name of the state ("active", "precharge-powerdown", ...).
	Name string
	// Joules resident in the state over the technique run.
	Joules float64
}

// TechRow compares memory technologies (Section 5.4's aside), one row
// per registered power-model backend.
type TechRow struct {
	// Tech is the registry name the row ran under ("rdram",
	// "ddr4-2400"; see energy.Techs).
	Tech string
	// Part is the backend model's part name ("rdram-1600",
	// "lpddr4-3200").
	Part string
	// Ratio is memory bandwidth over I/O bus bandwidth.
	Ratio float64
	// BaselineUF is the baseline utilization factor on this part.
	BaselineUF float64
	// Savings is DMA-TA-PL's fractional energy reduction.
	Savings float64
	// States is the technique run's per-state resident energy in the
	// model's depth order. States plus TransitionJ and MigrationJ sums
	// to TotalJ (up to float summation order).
	States []TechState
	// TransitionJ is energy spent moving between power states.
	TransitionJ float64
	// MigrationJ is energy spent copying pages for PL.
	MigrationJ float64
	// TotalJ is the technique run's total system energy, joules.
	TotalJ float64
}

// TechExtension runs DMA-TA-PL on every named power-model backend over
// the same Synthetic-St arrival process, one job per technology on r's
// pool. Empty techs sweeps every registered backend (energy.Techs).
func TechExtension(ctx context.Context, r *Runner, d sim.Duration, seed uint64, techs []string) ([]TechRow, error) {
	if len(techs) == 0 {
		techs = energy.Techs()
	}
	models := make([]*energy.Model, len(techs))
	for i, name := range techs {
		m, err := energy.Lookup(name)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	scfg := synth.DefaultSt()
	scfg.Duration = d
	scfg.Seed = seed
	tr, err := synth.GenerateSt(scfg)
	if err != nil {
		return nil, err
	}
	return mapJobs(ctx, r, len(techs),
		func(i int) string { return "tech/" + techs[i] },
		func(ctx context.Context, i int) (TechRow, error) {
			base := core.Config{Tech: techs[i]}
			tech := taConfig(0.10, plConfig(2))
			tech.Tech = techs[i]
			b, tc, savings, err := core.RunBaselinePair(base, tech, tr)
			if err != nil {
				return TechRow{}, err
			}
			rep := tc.Report
			row := TechRow{
				Tech:        techs[i],
				Part:        models[i].Name,
				Ratio:       models[i].Bandwidth / 1.064e9,
				BaselineUF:  b.Report.UtilizationFactor,
				Savings:     savings,
				TransitionJ: rep.Energy[energy.CatTransition],
				MigrationJ:  rep.Energy[energy.CatMigration],
				TotalJ:      rep.TotalEnergy(),
			}
			for s, name := range rep.StateNames {
				row.States = append(row.States, TechState{Name: name, Joules: rep.StateEnergy[s]})
			}
			return row, nil
		})
}

// ParseTechList parses a comma-separated technology flag value
// ("ddr4-2400, LPDDR4") into registry names: entries are trimmed and
// lower-cased, validated against the registry, and rejected when two
// entries (aliases included) select the same backend. Empty input
// returns nil, meaning "the default technology".
func ParseTechList(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	seen := map[string]string{} // part name -> first flag entry selecting it
	var out []string
	for _, part := range strings.Split(s, ",") {
		name := strings.ToLower(strings.TrimSpace(part))
		if name == "" {
			return nil, fmt.Errorf("experiments: empty entry in technology list %q", s)
		}
		m, err := energy.Lookup(name)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[m.Name]; dup {
			return nil, fmt.Errorf("experiments: technology %q duplicates %q in list %q (both select %s)",
				name, prev, s, m.Name)
		}
		seen[m.Name] = name
		out = append(out, name)
	}
	return out, nil
}

// FormatDSS renders the decision-support extension.
func FormatDSS(rows []DSSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: TPC-H style decision support (paper future work)\n")
	fmt.Fprintf(&b, "%-12s %9s %8s %8s\n", "scheme", "savings", "uf", "base-uf")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.1f%% %8.2f %8.2f\n", r.Scheme, 100*r.Savings, r.UF, r.BaselineUF)
	}
	b.WriteString("(scan buffers carry no popularity skew; PL has nothing to cluster)\n")
	return b.String()
}

// FormatTech renders the technology comparison: one summary line per
// backend, then its per-state energy breakdown, whose terms sum back
// to the total.
func FormatTech(rows []TechRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: memory technology backends (Section 5.4)\n")
	fmt.Fprintf(&b, "%-12s %-14s %8s %8s %9s %10s\n", "tech", "part", "ratio", "base-uf", "savings", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-14s %8.2f %8.2f %8.1f%% %8.2fmJ\n",
			r.Tech, r.Part, r.Ratio, r.BaselineUF, 100*r.Savings, 1e3*r.TotalJ)
		parts := make([]string, 0, len(r.States)+2)
		for _, st := range r.States {
			parts = append(parts, fmt.Sprintf("%s %.2fmJ", st.Name, 1e3*st.Joules))
		}
		parts = append(parts,
			fmt.Sprintf("transition %.2fmJ", 1e3*r.TransitionJ),
			fmt.Sprintf("migration %.2fmJ", 1e3*r.MigrationJ))
		fmt.Fprintf(&b, "  states: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// FormatSeedStats renders replicated-run statistics.
func FormatSeedStats(s SeedStats) string {
	return fmt.Sprintf("%s over %d seeds: %.1f%% +- %.1f%% (min %.1f%%, max %.1f%%)",
		s.Scheme, s.N, 100*s.Mean, 100*s.StdDev, 100*s.Min, 100*s.Max)
}

// Fig5PLConfig returns the DMA-TA-PL(2) configuration of Figure 5's
// headline point (10% CP-Limit), for callers replicating it.
func Fig5PLConfig() core.Config {
	cfg := taConfig(0.10, plConfig(2))
	cfg.Scheme = "dma-ta-pl"
	return cfg
}
