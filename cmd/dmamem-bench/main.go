// Command dmamem-bench regenerates the tables and figures of the
// paper's evaluation.
//
// Usage:
//
//	dmamem-bench [-fig all|table1|table2|2a|3|2b|4|5|6|7|8|9|10|tech]
//	             [-duration 100ms] [-db-duration 25ms] [-seed 1]
//	             [-parallel N] [-timing]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	             [-channels 1,2,4] [-tech ddr4-2400,lpddr4]
//
// Each figure prints the same series the paper plots; EXPERIMENTS.md
// records the paper-vs-measured comparison. To simulate a recorded
// .dmt trace, run dmamem-sim -trace file.dmt.
//
// -parallel fans independent simulation runs across goroutines; the
// printed output is byte-identical at any value. Each simulation runs
// on one event loop, whatever its channel count. -timing (a per-run
// wall-clock summary with the event and trace-record counts, trace
// records/sec and allocations per record), -cpuprofile and -memprofile
// write to stderr and to files only.
//
// -channels adds a memory-channel dimension to the figure 10 sweep:
// each (workload, bus bandwidth) pair is re-simulated at every listed
// channel count, with the per-channel bandwidth pinned to one chip's
// 3.2 GB/s rate. -tech names the memory power-model backends
// (dmamem.Techs) the tech extension compares and the figure 10 sweep
// runs under; each backend's own memory rate sets the bandwidth ratio
// on the x axis. Empty sweeps every backend in the tech extension and
// keeps figure 10 on the RDRAM default. Bad flags exit 2 before any
// figure runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"dmamem/internal/cli"
	"dmamem/internal/experiments"
	"dmamem/internal/metrics"
	"dmamem/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs, bench := command(stdout, stderr)
	return cli.Exit(stderr, "dmamem-bench", cli.Run(fs, args, stderr, bench))
}

// command defines the flags and returns the body that reads them. The
// body returns its error, so deferred cleanup, the profile writers in
// particular, runs on the error paths too.
func command(stdout, stderr io.Writer) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("dmamem-bench", flag.ContinueOnError)
	duration := fs.Duration("duration", 100*time.Millisecond, "trace duration")
	dbDuration := fs.Duration("db-duration", 25*time.Millisecond, "database trace duration (denser traces)")
	seed := fs.Uint64("seed", 1, "generator seed")
	fig := fs.String("fig", "all", "which figure/table to regenerate")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent simulation runs (1 = sequential)")
	timing := fs.Bool("timing", false, "print a per-run wall-clock timing summary to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	channelsFlag := fs.String("channels", "", "comma-separated channel counts added to the figure 10 sweep (e.g. 1,2,4; empty = legacy single-channel)")
	techFlag := fs.String("tech", "", "comma-separated memory technologies for the tech extension and the figure 10 sweep (e.g. ddr4-2400,lpddr4; empty = every backend for tech, RDRAM-only for figure 10)")
	return fs, func() (err error) {
		if *parallel <= 0 {
			return cli.Usagef("-parallel %d must be at least 1 (goroutines fanning out independent runs)", *parallel)
		}
		if err := cli.Positive("duration", *duration); err != nil {
			return err
		}
		if err := cli.Positive("db-duration", *dbDuration); err != nil {
			return err
		}
		if err := validateFig(*fig); err != nil {
			return err
		}
		channels, err := parseChannels(*channelsFlag)
		if err != nil {
			return err
		}
		techs, err := experiments.ParseTechList(*techFlag)
		if err != nil {
			return cli.Usagef("bad -tech: %v", err)
		}

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if *memprofile != "" {
			defer func() {
				f, err := os.Create(*memprofile)
				if err != nil {
					fmt.Fprintf(stderr, "dmamem-bench: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // flush recent allocations into the profile
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(stderr, "dmamem-bench: %v\n", err)
				}
			}()
		}

		runner := experiments.NewRunner(*parallel)
		var memBefore runtime.MemStats
		if *timing {
			runner.Timings = &metrics.Timings{}
			runtime.ReadMemStats(&memBefore)
		}
		s := experiments.NewSuite(sim.FromStd(*duration), *seed)
		s.DbDuration = sim.FromStd(*dbDuration)
		s.Runner = runner
		start := time.Now()

		run := func(name string, f func() error) {
			if !slices.Contains(figNames, name) {
				panic("dmamem-bench: figure " + name + " missing from figNames")
			}
			if err != nil || (*fig != "all" && *fig != name) {
				return
			}
			if ferr := f(); ferr != nil {
				err = fmt.Errorf("%s: %w", name, ferr)
				return
			}
			fmt.Fprintln(stdout)
		}

		run("table1", func() error {
			fmt.Fprint(stdout, experiments.Table1())
			return nil
		})
		run("table2", func() error { return show(stdout, experiments.FormatTable2)(s.Table2(ctx)) })
		run("2a", func() error {
			fmt.Fprint(stdout, experiments.NewTimeline(1, 4))
			return nil
		})
		run("3", func() error {
			fmt.Fprint(stdout, experiments.NewTimeline(3, 4))
			return nil
		})
		run("2b", func() error {
			return show(stdout, breakdowns("Figure 2(b): baseline energy breakdown"))(s.Fig2b(ctx))
		})
		run("4", func() error { return show(stdout, experiments.FormatFig4)(s.Fig4(ctx, 10)) })
		run("5", func() error {
			return show(stdout, experiments.FormatFig5)(experiments.GridRun[experiments.Fig5Point](ctx, s, experiments.GridSpec{
				Name:     experiments.GridFig5,
				CPLimits: []float64{0.01, 0.05, 0.10, 0.20, 0.30},
				Groups:   []int{2, 3, 6},
			}))
		})
		run("6", func() error {
			return show(stdout, breakdowns("Figure 6: OLTP-St breakdowns at 10% CP-Limit"))(s.Fig6(ctx))
		})
		run("7", func() error {
			return show(stdout, experiments.FormatFig7)(s.Fig7(ctx, []float64{0.01, 0.05, 0.10, 0.20, 0.30}))
		})
		run("8", func() error {
			return show(stdout, sweep("Figure 8: savings vs workload intensity (Synthetic-St, 10% CP-Limit)", "xfers/ms"))(
				experiments.GridRun[experiments.SweepPoint](ctx, s, experiments.GridSpec{
					Name:       experiments.GridFig8,
					RatesPerMs: []float64{25, 50, 100, 200, 400},
				}))
		})
		run("9", func() error {
			return show(stdout, sweep("Figure 9: savings vs processor accesses per transfer (Synthetic-Db, 10% CP-Limit)", "proc/xfer"))(
				experiments.GridRun[experiments.SweepPoint](ctx, s, experiments.GridSpec{
					Name:        experiments.GridFig9,
					PerTransfer: []int{0, 50, 100, 233, 400},
				}))
		})
		run("10", func() error {
			return show(stdout, sweep("Figure 10: savings vs memory/I-O bandwidth ratio (10% CP-Limit)", "ratio"))(
				experiments.GridRun[experiments.SweepPoint](ctx, s, experiments.GridSpec{
					Name:     experiments.GridFig10,
					BusBW:    []float64{0.5e9, 1.064e9, 2e9, 3e9},
					Channels: channels,
					Techs:    techs,
				}))
		})
		run("tech", func() error {
			return show(stdout, experiments.FormatTech)(experiments.TechExtension(ctx, runner, sim.FromStd(*duration), *seed, techs))
		})
		if *timing {
			var memAfter runtime.MemStats
			runtime.ReadMemStats(&memAfter)
			runner.Timings.SetAllocs(memAfter.Mallocs - memBefore.Mallocs)
			fmt.Fprint(stderr, runner.Timings.Summary(time.Since(start)))
		}
		return err
	}
}

// show returns a figure body's tail: it prints the run's result with
// format, unless the run failed.
func show[T any](w io.Writer, format func(T) string) func(T, error) error {
	return func(v T, err error) error {
		if err == nil {
			fmt.Fprint(w, format(v))
		}
		return err
	}
}

func breakdowns(title string) func([]experiments.BreakdownRow) string {
	return func(rows []experiments.BreakdownRow) string { return experiments.FormatBreakdowns(title, rows) }
}

func sweep(title, xlabel string) func([]experiments.SweepPoint) string {
	return func(pts []experiments.SweepPoint) string { return experiments.FormatSweep(title, xlabel, pts) }
}

// figNames lists the -fig values in the order "all" prints them.
var figNames = []string{"table1", "table2", "2a", "3", "2b", "4", "5", "6", "7", "8", "9", "10", "tech"}

// validateFig rejects a -fig value that names no figure; without the
// check a typo printed nothing and exited 0.
func validateFig(fig string) error {
	if fig == "all" || slices.Contains(figNames, fig) {
		return nil
	}
	return cli.Usagef("unknown -fig %q (valid: all, %s)", fig, strings.Join(figNames, ", "))
}

// parseChannels turns the -channels flag into the GridSpec.Channels
// slice: "" means nil (legacy points), otherwise positive
// comma-separated channel counts.
func parseChannels(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n <= 0 {
			return nil, cli.Usagef("bad -channels entry %q (want positive integers, e.g. 1,2,4)", part)
		}
		out = append(out, n)
	}
	return out, nil
}
