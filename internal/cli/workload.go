package cli

import (
	"flag"
	"io"
	"time"

	"dmamem"
	"dmamem/internal/server"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// workloadNames lists the -workload values, in Table 2 order.
const workloadNames = "synthetic-st, synthetic-db, oltp-st, oltp-db"

// workloads maps each -workload name onto its generator. synthetic or
// server makes the trace in memory, for dmamem-sim; record streams the
// same trace to a .dmt container, for dmamem-trace record. The
// synthetic generators stream record by record, so an hour-scale trace
// records in flat memory; the server models need their whole event
// history and write it out once built.
var workloads = map[string]struct {
	synthetic func(dmamem.SyntheticOptions) (*dmamem.Trace, error)
	server    func(dmamem.ServerOptions) (*dmamem.Trace, error)
	record    func(io.Writer, trace.WriterOptions, sim.Duration, uint64) error
}{
	"synthetic-st": {
		synthetic: dmamem.SyntheticStorageTrace,
		record:    synthRecord("Synthetic-St", synth.GenerateStTo),
	},
	"synthetic-db": {
		synthetic: dmamem.SyntheticDatabaseTrace,
		record: synthRecord("Synthetic-Db", func(c synth.StConfig, emit func(trace.Record) error) error {
			return synth.GenerateDbTo(synth.DbOf(c), emit)
		}),
	},
	"oltp-st": {
		server: dmamem.StorageServerTrace,
		record: func(w io.Writer, opt trace.WriterOptions, d sim.Duration, seed uint64) error {
			cfg := server.DefaultStorage()
			cfg.Duration, cfg.Seed = d, seed
			res, err := server.GenerateStorage(cfg)
			if err != nil {
				return err
			}
			return res.Trace.WriteDMT(w, opt)
		},
	},
	"oltp-db": {
		server: dmamem.DatabaseServerTrace,
		record: func(w io.Writer, opt trace.WriterOptions, d sim.Duration, seed uint64) error {
			cfg := server.DefaultDatabase()
			cfg.Duration, cfg.Seed = d, seed
			res, err := server.GenerateDatabase(cfg)
			if err != nil {
				return err
			}
			return res.Trace.WriteDMT(w, opt)
		},
	},
}

// synthRecord streams the synthetic generator gen, run over the
// Synthetic-St defaults at the given duration and seed, into a fresh
// .dmt writer.
func synthRecord(name string, gen func(synth.StConfig, func(trace.Record) error) error) func(io.Writer, trace.WriterOptions, sim.Duration, uint64) error {
	return func(w io.Writer, opt trace.WriterOptions, d sim.Duration, seed uint64) error {
		cfg := synth.DefaultSt()
		cfg.Duration, cfg.Seed = d, seed
		tw, err := trace.NewWriter(w, name, opt)
		if err != nil {
			return err
		}
		tw.SetMeta(synth.SyntheticMeta())
		if err := gen(cfg, tw.Append); err != nil {
			return err
		}
		return tw.Close()
	}
}

// Gen holds -workload, -duration and -seed, which shape a generated
// trace the same way in every command.
type Gen struct {
	workload string
	duration time.Duration
	seed     uint64
}

// AddGen defines -workload, -duration and -seed on fs.
func AddGen(fs *flag.FlagSet) *Gen {
	g := &Gen{}
	fs.StringVar(&g.workload, "workload", "synthetic-st", "workload to generate: "+workloadNames)
	fs.DurationVar(&g.duration, "duration", 100*time.Millisecond, "generated trace duration")
	fs.Uint64Var(&g.seed, "seed", 1, "generator seed (nonzero)")
	return g
}

// Validate rejects an unknown -workload, a -duration that is not
// positive and -seed 0. The generator options read a zero duration or
// seed as "the default", so unchecked, -duration 0 ran 100ms and
// -seed 0 ran the model's default seed.
func (g *Gen) Validate() error {
	if _, ok := workloads[g.workload]; !ok {
		return Usagef("unknown -workload %q (valid: %s)", g.workload, workloadNames)
	}
	if err := Positive("duration", g.duration); err != nil {
		return err
	}
	if g.seed == 0 {
		return Usagef("-seed 0 is not a seed; the generators read 0 as their default")
	}
	return nil
}

// Trace generates the workload in memory.
func (g *Gen) Trace() (*dmamem.Trace, error) {
	w := workloads[g.workload]
	if w.synthetic != nil {
		return w.synthetic(dmamem.SyntheticOptions{Duration: g.duration, Seed: g.seed})
	}
	return w.server(dmamem.ServerOptions{Duration: g.duration, Seed: g.seed})
}

// Record streams the workload to w as a .dmt container.
func (g *Gen) Record(w io.Writer, opt trace.WriterOptions) error {
	return workloads[g.workload].record(w, opt, sim.FromStd(g.duration), g.seed)
}
