package experiments

import (
	"context"
	"fmt"
	"strings"

	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
)

// The experiment in this file goes beyond the paper's figures: its
// Section 5.4 aside about other memory technologies.

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
			b, tc, savings, err := core.RunBaselinePairParallel(ctx, base, tech, tr, 1)
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
