// Command dmamem-bench regenerates the tables and figures of the
// paper's evaluation.
//
// Usage:
//
//	dmamem-bench [-duration 100ms] [-seed 1] [-parallel N] [-timing]
//	             [-workers N] [-epoch 50us]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	             [-channels 1,2,4]
//	             [-tech ddr4-2400,lpddr4]
//	             [-fig all|2a|2b|3|4|5|6|7|8|9|10|table1|table2|dss|tech|seeds]
//
// To simulate a recorded .dmt trace, run dmamem-sim -trace file.dmt.
//
// Each figure prints the same series the paper plots; EXPERIMENTS.md
// records the paper-vs-measured comparison. Independent simulation
// runs are fanned across -parallel worker goroutines (default
// GOMAXPROCS); the printed output is byte-identical at any
// parallelism. -timing prints a per-run wall-clock summary to stderr,
// including events/sec and allocations per event when available.
// -cpuprofile and -memprofile write pprof profiles of the whole run
// for `go tool pprof`.
//
// -workers N parallelises WITHIN each simulation: every run uses the
// epoch-barrier parallel engine with N event-loop goroutines (one per
// memory channel, capped at the channel count) instead of the serial
// reference engine. Results stay byte-identical at any worker count.
// This is orthogonal to -parallel, which fans out independent runs.
// Both flags must be at least 1; -workers 1 keeps the serial engine.
// -epoch sets the parallel engine's barrier period; it changes no
// printed result.
//
// -channels 1,2,4 adds a memory-channel dimension to the figure 10
// sweep: each (workload, bus bandwidth) pair is re-simulated under a
// channel-interleaved topology at every listed channel count, with the
// per-channel bandwidth pinned to one chip's 3.2 GB/s rate.
//
// -tech names the memory power-model backends (registry names, see
// dmamem.Techs) the tech extension compares and the figure 10 sweep
// runs under; each backend's own memory rate sets the bandwidth ratio
// on the x axis. Empty sweeps every registered backend in the tech
// extension and keeps figure 10 on the legacy RDRAM default.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"dmamem/internal/experiments"
	"dmamem/internal/metrics"
	"dmamem/internal/sim"
)

func main() { os.Exit(realMain()) }

// realMain carries the exit code back to main so deferred cleanup —
// profile writers in particular — runs on the error paths too.
func realMain() int {
	duration := flag.Duration("duration", 100*time.Millisecond, "trace duration")
	dbDuration := flag.Duration("db-duration", 25*time.Millisecond, "database trace duration (denser traces)")
	seed := flag.Uint64("seed", 1, "generator seed")
	fig := flag.String("fig", "all", "which figure/table to regenerate")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent simulation runs (1 = sequential)")
	workers := flag.Int("workers", 1, "most event-loop goroutines inside each simulation; short spans run inline (1 = serial reference engine)")
	epoch := flag.Duration("epoch", 0, "barrier period of the parallel engine (0 = default 50us; needs -workers > 1)")
	timing := flag.Bool("timing", false, "print a per-run wall-clock timing summary to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	channelsFlag := flag.String("channels", "", "comma-separated channel counts added to the figure 10 sweep (e.g. 1,2,4; empty = legacy single-channel)")
	techFlag := flag.String("tech", "", "comma-separated memory technologies for the tech extension and the figure 10 sweep (e.g. ddr4-2400,lpddr4; empty = every backend for tech, RDRAM-only for figure 10)")
	flag.Parse()

	if err := validateConcurrency(*parallel, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "dmamem-bench: %v\n", err)
		return 2
	}
	if err := validateEpoch(*epoch, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "dmamem-bench: %v\n", err)
		return 2
	}
	if err := validateFig(*fig); err != nil {
		fmt.Fprintf(os.Stderr, "dmamem-bench: %v\n", err)
		return 2
	}
	channels, err := parseChannels(*channelsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmamem-bench: %v\n", err)
		return 2
	}
	techs, err := experiments.ParseTechList(*techFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmamem-bench: bad -tech: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmamem-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dmamem-bench: %v\n", err)
			return 1
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
				fmt.Fprintf(os.Stderr, "dmamem-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent allocations into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dmamem-bench: %v\n", err)
			}
		}()
	}

	runner := experiments.NewRunner(*parallel)
	var memBefore runtime.MemStats
	if *timing {
		runner.Timings = &metrics.Timings{}
		runtime.ReadMemStats(&memBefore)
	}
	s := experiments.NewSuite(fromStd(*duration), *seed)
	s.DbDuration = fromStd(*dbDuration)
	s.Runner = runner
	s.Workers = engineWorkers(*workers)
	s.BarrierEpoch = fromStd(*epoch)
	start := time.Now()

	failed := false
	run := func(name string, f func() error) {
		if !slices.Contains(figNames, name) {
			panic("dmamem-bench: figure " + name + " missing from figNames")
		}
		if failed || (*fig != "all" && *fig != name) {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "dmamem-bench: %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Println()
	}

	run("table1", func() error {
		fmt.Print(experiments.Table1())
		return nil
	})
	run("table2", func() error {
		rows, err := s.Table2(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable2(rows))
		return nil
	})
	run("2a", func() error {
		fmt.Print(experiments.NewTimeline(1, 4).String())
		return nil
	})
	run("3", func() error {
		fmt.Print(experiments.NewTimeline(3, 4).String())
		return nil
	})
	run("2b", func() error {
		rows, err := s.Fig2b(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatBreakdowns(
			"Figure 2(b): baseline energy breakdown", rows))
		return nil
	})
	run("4", func() error {
		pts, err := s.Fig4(ctx, 10)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig4(pts))
		return nil
	})
	run("5", func() error {
		pts, err := experiments.GridRun[experiments.Fig5Point](ctx, s, experiments.GridSpec{
			Name:     experiments.GridFig5,
			CPLimits: []float64{0.01, 0.05, 0.10, 0.20, 0.30},
			Groups:   []int{2, 3, 6},
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig5(pts))
		return nil
	})
	run("6", func() error {
		rows, err := s.Fig6(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatBreakdowns(
			"Figure 6: OLTP-St breakdowns at 10% CP-Limit", rows))
		return nil
	})
	run("7", func() error {
		pts, err := s.Fig7(ctx, []float64{0.01, 0.05, 0.10, 0.20, 0.30})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig7(pts))
		return nil
	})
	run("8", func() error {
		pts, err := experiments.GridRun[experiments.SweepPoint](ctx, s, experiments.GridSpec{
			Name:       experiments.GridFig8,
			RatesPerMs: []float64{25, 50, 100, 200, 400},
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep(
			"Figure 8: savings vs workload intensity (Synthetic-St, 10% CP-Limit)",
			"xfers/ms", pts))
		return nil
	})
	run("9", func() error {
		pts, err := experiments.GridRun[experiments.SweepPoint](ctx, s, experiments.GridSpec{
			Name:        experiments.GridFig9,
			PerTransfer: []int{0, 50, 100, 233, 400},
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep(
			"Figure 9: savings vs processor accesses per transfer (Synthetic-Db, 10% CP-Limit)",
			"proc/xfer", pts))
		return nil
	})
	run("10", func() error {
		pts, err := experiments.GridRun[experiments.SweepPoint](ctx, s, experiments.GridSpec{
			Name:     experiments.GridFig10,
			BusBW:    []float64{0.5e9, 1.064e9, 2e9, 3e9},
			Channels: channels,
			Techs:    techs,
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep(
			"Figure 10: savings vs memory/I-O bandwidth ratio (10% CP-Limit)",
			"ratio", pts))
		return nil
	})
	run("dss", func() error {
		rows, err := experiments.DSSExtension(ctx, runner, fromStd(*duration), *seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatDSS(rows))
		return nil
	})
	run("tech", func() error {
		rows, err := experiments.TechExtension(ctx, runner, fromStd(*duration), *seed, techs)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTech(rows))
		return nil
	})
	run("seeds", func() error {
		// Dispersion behind the headline Figure 5 point.
		pl := experiments.Fig5PLConfig()
		st, err := experiments.MultiSeedSavings(ctx, runner, fromStd(*duration), 5, pl)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSeedStats(st))
		return nil
	})

	if *timing {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		runner.Timings.SetAllocs(memAfter.Mallocs - memBefore.Mallocs)
		fmt.Fprint(os.Stderr, runner.Timings.Summary(time.Since(start)))
	}
	if failed {
		return 1
	}
	return 0
}

func fromStd(d time.Duration) sim.Duration {
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond
}

// figNames lists the -fig values in the order "all" prints them.
var figNames = []string{"table1", "table2", "2a", "3", "2b", "4", "5", "6", "7", "8", "9", "10", "dss", "tech", "seeds"}

// validateFig rejects a -fig value that names no figure; without the
// check a typo printed nothing and exited 0.
func validateFig(fig string) error {
	if fig == "all" || slices.Contains(figNames, fig) {
		return nil
	}
	return fmt.Errorf("unknown -fig %q (valid: all, %s)", fig, strings.Join(figNames, ", "))
}

// validateConcurrency rejects non-positive -parallel/-workers values
// up front: both are goroutine counts, and 0 or a negative count would
// otherwise surface as a hang (a runner with no workers) or as a
// confusing core error deep inside the first figure.
func validateConcurrency(parallel, workers int) error {
	if parallel <= 0 {
		return fmt.Errorf("-parallel %d must be at least 1 (goroutines fanning out independent runs)", parallel)
	}
	if workers <= 0 {
		return fmt.Errorf("-workers %d must be at least 1 (1 selects the serial reference engine)", workers)
	}
	return nil
}

// validateEpoch rejects a negative -epoch and an -epoch without the
// parallel engine: the barrier period only exists when -workers
// selects it, so silently ignoring the flag would misreport what ran.
func validateEpoch(epoch time.Duration, workers int) error {
	if epoch < 0 {
		return fmt.Errorf("-epoch %v must be nonnegative (0 selects the default 50us)", epoch)
	}
	if epoch > 0 && workers <= 1 {
		return fmt.Errorf("-epoch %v needs the parallel engine (-workers > 1); the serial engine has no barrier period", epoch)
	}
	return nil
}

// engineWorkers maps the -workers flag onto core.Config.Workers: 1
// keeps the default serial reference engine, higher counts select the
// epoch-barrier parallel engine with that many event-loop goroutines.
func engineWorkers(workers int) int {
	if workers <= 1 {
		return 0
	}
	return workers
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
			return nil, fmt.Errorf("bad -channels entry %q (want positive integers, e.g. 1,2,4)", part)
		}
		out = append(out, n)
	}
	return out, nil
}
