// Command dmamem-trace records and inspects .dmt memory-access traces
// (docs/TRACE_FORMAT.md).
//
// Usage:
//
//	dmamem-trace record -workload synthetic-st -duration 1s -o trace.dmt
//	dmamem-trace info trace.dmt
//	dmamem-trace cdf  trace.dmt          # Figure 4 style popularity CDF
//
// record streams a workload straight to the columnar .dmt container:
// the synthetic generators emit record by record into the chunked
// writer, so an hour-scale trace records in flat memory. info prints
// the footer summary without decoding a single record; cdf loads the
// trace and prints its Table 2 summary and popularity CDF. To simulate
// a recorded trace, run dmamem-sim -trace trace.dmt. Stray positional
// arguments exit 2 with the usage line.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dmamem"
	"dmamem/internal/server"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:], false)
	case "cdf":
		info(os.Args[2:], true)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dmamem-trace record [flags] | info trace.dmt | cdf trace.dmt")
	os.Exit(2)
}

func fromStd(d time.Duration) sim.Duration {
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond
}

// record streams a workload to a .dmt container. The synthetic
// workloads never hold more than the writer's current chunk in
// memory, whatever the duration; the server models build their trace
// in memory first (they need the full event history) and then stream
// it out.
func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workload := fs.String("workload", "synthetic-st", "synthetic-st | synthetic-db | oltp-st | oltp-db")
	duration := fs.Duration("duration", 100*time.Millisecond, "trace duration")
	seed := fs.Uint64("seed", 1, "generator seed")
	chunk := fs.Int("chunk", 0, "records per chunk (0 = default)")
	out := fs.String("o", "trace.dmt", "output .dmt file")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	opt := trace.WriterOptions{ChunkRecords: *chunk}

	switch *workload {
	case "synthetic-st":
		cfg := synth.DefaultSt()
		cfg.Duration, cfg.Seed = fromStd(*duration), *seed
		err = stream(f, "Synthetic-St", opt, func(emit func(trace.Record) error) error {
			return synth.GenerateStTo(cfg, emit)
		})
	case "synthetic-db":
		// Mirror dmamem.SyntheticDatabaseTrace: network DMAs only, and
		// the default seed moves off the St default so the two
		// synthetic workloads draw distinct streams.
		cfg := synth.DefaultDb()
		cfg.St.Duration, cfg.St.Seed = fromStd(*duration), *seed
		if cfg.St.Seed == 1 {
			cfg.St.Seed = 2
		}
		err = stream(f, "Synthetic-Db", opt, func(emit func(trace.Record) error) error {
			return synth.GenerateDbTo(cfg, emit)
		})
	case "oltp-st":
		cfg := server.DefaultStorage()
		cfg.Duration, cfg.Seed = fromStd(*duration), *seed
		res, gerr := server.GenerateStorage(cfg)
		if gerr != nil {
			err = gerr
			break
		}
		err = res.Trace.WriteDMT(f, opt)
	case "oltp-db":
		cfg := server.DefaultDatabase()
		cfg.Duration, cfg.Seed = fromStd(*duration), *seed
		res, gerr := server.GenerateDatabase(cfg)
		if gerr != nil {
			err = gerr
			break
		}
		err = res.Trace.WriteDMT(f, opt)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st, err := dmamem.StatTraceFile(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, describe(st))
}

// stream runs one generator callback into a fresh .dmt writer.
func stream(f *os.File, name string, opt trace.WriterOptions, gen func(emit func(trace.Record) error) error) error {
	w, err := trace.NewWriter(f, name, opt)
	if err != nil {
		return err
	}
	w.SetMeta(synth.SyntheticMeta())
	if err := gen(w.Append); err != nil {
		return err
	}
	return w.Close()
}

func describe(st dmamem.TraceFileInfo) string {
	return fmt.Sprintf("%q, %d records (%d DMA transfers, %d pages) in %d chunks of %d, duration %v",
		st.Name, st.Records, st.DMATransfers, st.DMAPages, st.Chunks, st.ChunkRecords, st.Duration)
}

func info(args []string, cdf bool) {
	if len(args) != 1 {
		usage()
	}
	path := args[0]
	if !cdf {
		// Footer-only summary: no record is ever decoded.
		st, err := dmamem.StatTraceFile(path)
		if err != nil {
			fatal(err)
		}
		fmt.Println(describe(st))
		return
	}
	tr, err := dmamem.ReadTraceFile(path)
	if err != nil {
		fatal(err)
	}
	fmt.Println(tr.Summary())
	fmt.Printf("burstiness (inter-arrival CV): %.2f; chip-load skew (CV): %.2f\n",
		tr.Burstiness(), tr.ChipLoadSkew())
	fmt.Printf("%10s %10s\n", "pages%", "accesses%")
	for _, p := range tr.PopularityCurve(10) {
		fmt.Printf("%9.0f%% %9.1f%%\n", 100*p.PageFrac, 100*p.AccessFrac)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmamem-trace:", err)
	os.Exit(1)
}
