// Command dmamem-sim runs one simulation over a trace and prints the
// energy report: by default the technique beside the baseline, with
// the savings.
//
// Usage:
//
//	dmamem-sim [-workload synthetic-st] [-duration 100ms] [-seed 1] [flags]
//	dmamem-sim -trace file.dmt [flags]
//
// -workload, -duration and -seed generate the trace dmamem-trace
// record writes for the same flags; -trace streams a recorded one from
// disk in flat memory and rejects them rather than ignore them.
// dmamem-sim -h lists the simulation flags. The trace description goes
// to stderr, so stdout holds only the report (with -json, one JSON
// document).
// Bad flags exit 2 before any trace is generated or read.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"dmamem"
	"dmamem/internal/cli"
	"dmamem/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs, simulate := command(stdout, stderr)
	return cli.Exit(stderr, "dmamem-sim", cli.Run(fs, args, stderr, simulate))
}

// command defines the flags and returns the body that reads them.
func command(stdout, stderr io.Writer) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("dmamem-sim", flag.ContinueOnError)
	traceFile := fs.String("trace", "", ".dmt trace to replay, streamed from disk (default: generate -workload)")
	gen := cli.AddGen(fs)
	scheme := fs.String("scheme", "dma-ta-pl", "energy management scheme: baseline | dma-ta | dma-ta-pl | no-pm")
	techFlag := fs.String("tech", "", "memory technology backend (registry name, e.g. ddr4-2400; empty = rdram)")
	cpLimit := fs.Float64("cp-limit", 0.10, "client-perceived degradation bound for DMA-TA")
	groups := fs.Int("groups", 2, "PL popularity groups")
	channels := fs.Int("channels", 0, "memory channels (0 = legacy single-channel)")
	stripePages := fs.Int("stripe-pages", 0, "pages per channel stripe (0 = 1; needs -channels)")
	channelBW := fs.Float64("channel-bw", 0, "per-channel bandwidth cap, bytes/s (0 = uncapped; needs -channels)")
	compare := fs.Bool("compare", true, "also run the baseline and report savings")
	jsonOut := fs.Bool("json", false, "emit the report(s) as JSON")
	return fs, func() error {
		tech, err := parseTech(*techFlag)
		if err != nil {
			return err
		}
		if *traceFile != "" {
			err = rejectGenFlags(fs)
		} else {
			err = gen.Validate()
		}
		if err != nil {
			return err
		}
		technique, err := parseScheme(*scheme)
		if err != nil {
			return err
		}
		s := dmamem.Simulation{
			CPLimit: *cpLimit, PLGroups: *groups, MemoryTech: tech,
			Channels: *channels, ChannelStripePages: *stripePages, ChannelBandwidth: *channelBW,
			Technique: technique,
		}
		if err := s.Validate(); err != nil {
			return cli.Usagef("%w", err)
		}

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		var tr *dmamem.Trace
		if *traceFile != "" {
			// Stream the container from disk: the report is bit-identical
			// to loading it, in flat memory.
			s.TraceFile = *traceFile
			st, err := dmamem.StatTraceFile(*traceFile)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "trace %s: %d records over %v (streaming from %s)\n",
				st.Name, st.Records, st.Duration, *traceFile)
		} else {
			if tr, err = gen.Trace(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "trace %s: %s\n", tr.Name(), tr.Summary())
		}

		if *compare && s.Technique != dmamem.Baseline {
			// Two independent runs: the same report on one goroutine or two.
			cmp, err := dmamem.CompareContext(ctx, s, tr, min(2, runtime.GOMAXPROCS(0)))
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(stdout, cmp)
			}
			fmt.Fprintln(stdout, "baseline: ", cmp.Baseline)
			fmt.Fprintln(stdout, "          ", cmp.Baseline.Breakdown)
			fmt.Fprintln(stdout, "technique:", cmp.Technique)
			fmt.Fprintln(stdout, "          ", cmp.Technique.Breakdown)
			fmt.Fprintf(stdout, "energy savings: %.1f%%\n", 100*cmp.Savings)
			if cmp.Technique.Mu > 0 {
				fmt.Fprintf(stdout, "derived mu: %.2f (gather delay %v/transfer)\n",
					cmp.Technique.Mu, cmp.Technique.MeanGatherDelay)
			}
			return nil
		}
		rep, err := dmamem.Run(s, tr)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emitJSON(stdout, rep)
		}
		fmt.Fprintln(stdout, rep)
		fmt.Fprintln(stdout, rep.Breakdown)
		return nil
	}
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// rejectGenFlags rejects -workload, -duration and -seed set explicitly
// beside -trace: the trace comes from the file, so ignoring them would
// misreport what ran.
func rejectGenFlags(fs *flag.FlagSet) error {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workload" || f.Name == "duration" || f.Name == "seed" {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) == 0 {
		return nil
	}
	return cli.Usagef("-trace replays a recorded trace, so %s would be ignored; drop them or drop -trace",
		strings.Join(ignored, ", "))
}

// parseScheme maps the -scheme flag onto the technique of that name.
func parseScheme(name string) (dmamem.Technique, error) {
	for t := dmamem.Baseline; t <= dmamem.NoPowerManagement; t++ {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, cli.Usagef("unknown -scheme %q (valid: baseline, dma-ta, dma-ta-pl, no-pm)", name)
}

// parseTech resolves the single -tech value through the shared
// experiments.ParseTechList helper (trimmed, lower-cased, validated
// against the registry). dmamem-sim runs one simulation, so lists are
// rejected here with a pointer at dmamem-bench.
func parseTech(s string) (string, error) {
	techs, err := experiments.ParseTechList(s)
	if err != nil {
		return "", cli.Usagef("%w", err)
	}
	switch len(techs) {
	case 0:
		return "", nil
	case 1:
		return techs[0], nil
	}
	return "", cli.Usagef("-tech %q names %d technologies; dmamem-sim runs one (dmamem-bench -tech sweeps lists)", s, len(techs))
}
