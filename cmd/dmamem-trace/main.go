// Command dmamem-trace records and inspects .dmt memory-access traces
// (docs/TRACE_FORMAT.md).
//
// Usage:
//
//	dmamem-trace record -workload synthetic-st -duration 1s -o trace.dmt
//	dmamem-trace info trace.dmt
//	dmamem-trace cdf  trace.dmt          # Figure 4 style popularity CDF
//
// record writes the trace dmamem-sim generates for the same -workload,
// -duration and -seed (replay it with dmamem-sim -trace); synthetic
// workloads stream record by record into the chunked writer, so an
// hour-scale trace records in flat memory. The file is renamed into
// place once complete, so a failed run leaves an existing one
// untouched. info prints the footer summary without decoding a record;
// cdf prints the Table 2 summary and popularity CDF. Bad flags and
// stray arguments exit 2 with a usage message before any file is
// written.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dmamem"
	"dmamem/internal/cli"
	"dmamem/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	err := errUsage
	if len(args) > 0 {
		switch args[0] {
		case "record":
			fs, record := recordCommand(stdout)
			err = cli.Run(fs, args[1:], stderr, record)
		case "info", "cdf":
			err = info(args[1:], stdout, args[0] == "cdf")
		}
	}
	return cli.Exit(stderr, "dmamem-trace", err)
}

var errUsage = cli.Usagef("usage: dmamem-trace record [flags] | info trace.dmt | cdf trace.dmt")

// recordCommand defines record's flags and returns the body that
// streams the workload to a .dmt container.
func recordCommand(stdout io.Writer) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("dmamem-trace record", flag.ContinueOnError)
	gen := cli.AddGen(fs)
	chunk := fs.Int("chunk", 0, "records per chunk (0 = default)")
	out := fs.String("o", "trace.dmt", "output .dmt file")
	return fs, func() error {
		if err := gen.Validate(); err != nil {
			return err
		}
		if *chunk < 0 || *chunk > trace.MaxChunkRecords {
			return cli.Usagef("-chunk %d outside [0, %d] (0 = default)", *chunk, trace.MaxChunkRecords)
		}
		opt := trace.WriterOptions{ChunkRecords: *chunk}
		if err := writeFile(*out, func(w io.Writer) error { return gen.Record(w, opt) }); err != nil {
			return err
		}
		st, err := dmamem.StatTraceFile(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %s\n", *out, describe(st))
		return nil
	}
}

// writeFile runs write into a temporary file beside path and renames
// it to path only when write and the close succeed; on any error the
// temporary file is removed and path is left as it was.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// CreateTemp makes the file owner-only; a trace is shared.
		err = os.Chmod(f.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

func describe(st dmamem.TraceFileInfo) string {
	return fmt.Sprintf("%q, %d records (%d DMA transfers, %d pages) in %d chunks of %d, duration %v",
		st.Name, st.Records, st.DMATransfers, st.DMAPages, st.Chunks, st.ChunkRecords, st.Duration)
}

func info(args []string, stdout io.Writer, cdf bool) error {
	if len(args) != 1 {
		return errUsage
	}
	path := args[0]
	if !cdf {
		// Footer-only summary: no record is ever decoded.
		st, err := dmamem.StatTraceFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, describe(st))
		return nil
	}
	tr, err := dmamem.ReadTraceFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, tr.Summary())
	fmt.Fprintf(stdout, "burstiness (inter-arrival CV): %.2f; chip-load skew (CV): %.2f\n",
		tr.Burstiness(), tr.ChipLoadSkew())
	fmt.Fprintf(stdout, "%10s %10s\n", "pages%", "accesses%")
	for _, p := range tr.PopularityCurve(10) {
		fmt.Fprintf(stdout, "%9.0f%% %9.1f%%\n", 100*p.PageFrac, 100*p.AccessFrac)
	}
	return nil
}
