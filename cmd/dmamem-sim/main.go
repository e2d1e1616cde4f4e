// Command dmamem-sim runs one simulation over a trace and prints the
// energy report.
//
// Usage:
//
//	dmamem-sim [flags]
//	  -trace file        binary trace (default: generate Synthetic-St);
//	                     a .dmt container streams from disk in flat
//	                     memory
//	  -workload name     synthetic-st | synthetic-db | oltp-st | oltp-db
//	  -duration 100ms    duration of the generated trace
//	  -seed 1            generator seed (-workload, -duration and -seed
//	                     shape a generated trace; with -trace they are
//	                     rejected rather than ignored)
//	  -scheme name       baseline | dma-ta | dma-ta-pl | no-pm
//	  -tech name         memory power-model backend (registry name,
//	                     see dmamem.Techs; empty = the RDRAM default)
//	  -cp-limit 0.10     client-perceived degradation bound for DMA-TA
//	  -groups 2          popularity groups for PL
//	  -compare           also run the baseline and report savings
//	  -parallel N        run the baseline and technique concurrently
//	  -workers N         event-loop goroutines inside each simulation
//	                     (1 = serial reference engine; byte-identical
//	                     reports at any count)
//	  -epoch 50us        barrier period of the parallel engine (with
//	                     -workers > 1); reports do not depend on it
//	  -channels N        memory channels (0 = legacy single-channel)
//	  -stripe-pages N    pages per channel stripe (with -channels)
//	  -channel-bw B      per-channel bandwidth cap, bytes/s (with -channels)
//
// With -shard-worker the command instead serves one sweep-shard
// session on stdin/stdout (see the shard protocol in
// internal/experiments); with -shard-listen addr it serves shard
// sessions over TCP until interrupted. Both make any machine with the
// binary usable as a worker for a sharded dmamem-bench sweep.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dmamem"
	"dmamem/internal/experiments"
	"dmamem/internal/trace"
)

func main() {
	traceFile := flag.String("trace", "", "binary trace file (overrides -workload)")
	workload := flag.String("workload", "synthetic-st", "workload to generate")
	duration := flag.Duration("duration", 100*time.Millisecond, "generated trace duration")
	scheme := flag.String("scheme", "dma-ta-pl", "energy management scheme")
	techFlag := flag.String("tech", "", "memory technology backend (registry name, e.g. ddr4-2400; empty = rdram)")
	cpLimit := flag.Float64("cp-limit", 0.10, "CP-Limit for DMA-TA")
	groups := flag.Int("groups", 2, "PL popularity groups")
	seed := flag.Uint64("seed", 1, "generator seed")
	channels := flag.Int("channels", 0, "memory channels (0 = legacy single-channel)")
	stripePages := flag.Int("stripe-pages", 0, "pages per channel stripe (0 = 1; needs -channels)")
	channelBW := flag.Float64("channel-bw", 0, "per-channel bandwidth cap, bytes/s (0 = uncapped; needs -channels)")
	compare := flag.Bool("compare", true, "also run the baseline and report savings")
	jsonOut := flag.Bool("json", false, "emit the report(s) as JSON")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the -compare pair (1 = sequential)")
	workers := flag.Int("workers", 1, "most event-loop goroutines inside each simulation; short spans run inline (1 = serial reference engine)")
	epoch := flag.Duration("epoch", 0, "barrier period of the parallel engine (0 = default 50us; needs -workers > 1)")
	shardWorker := flag.Bool("shard-worker", false, "serve one sweep-shard session on stdin/stdout and exit")
	shardListen := flag.String("shard-listen", "", "serve sweep-shard sessions on this TCP address until interrupted")
	flag.Parse()

	if err := validateConcurrency(*parallel, *workers); err != nil {
		fatal(err)
	}
	if err := validateEpoch(*epoch, *workers); err != nil {
		fatal(err)
	}
	tech, err := parseTech(*techFlag)
	if err != nil {
		fatal(err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateTraceFlags(*traceFile, set); err != nil {
		badFlags(err)
	}
	technique, err := parseScheme(*scheme)
	if err != nil {
		badFlags(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *shardWorker {
		if err := experiments.ServeShard(ctx, os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *shardListen != "" {
		err := experiments.ListenAndServeShards(ctx, *shardListen, os.Stderr)
		if err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}

	s := dmamem.Simulation{
		CPLimit: *cpLimit, PLGroups: *groups, MemoryTech: tech,
		Channels: *channels, ChannelStripePages: *stripePages, ChannelBandwidth: *channelBW,
		Workers: engineWorkers(*workers), BarrierEpoch: *epoch, Technique: technique,
	}
	var tr *dmamem.Trace
	if *traceFile != "" && isDMT(*traceFile) {
		// Stream the container from disk: the report is bit-identical
		// to loading it, in flat memory.
		s.TraceFile = *traceFile
		st, err := dmamem.StatTraceFile(*traceFile)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace %s: %d records over %v (streaming from %s)\n",
			st.Name, st.Records, st.Duration, *traceFile)
	} else {
		var err error
		tr, err = loadTrace(*traceFile, *workload, *duration, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace %s: %s\n", tr.Name(), tr.Summary())
	}

	if *compare && s.Technique != dmamem.Baseline {
		cmp, err := dmamem.CompareContext(ctx, s, tr, *parallel)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(cmp)
			return
		}
		fmt.Println("baseline: ", cmp.Baseline)
		fmt.Println("          ", cmp.Baseline.Breakdown)
		fmt.Println("technique:", cmp.Technique)
		fmt.Println("          ", cmp.Technique.Breakdown)
		fmt.Printf("energy savings: %.1f%%\n", 100*cmp.Savings)
		if cmp.Technique.Mu > 0 {
			fmt.Printf("derived mu: %.2f (gather delay %v/transfer)\n",
				cmp.Technique.Mu, cmp.Technique.MeanGatherDelay)
		}
		return
	}
	rep, err := dmamem.Run(s, tr)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		emitJSON(rep)
		return
	}
	fmt.Println(rep)
	fmt.Println(rep.Breakdown)
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// isDMT reports whether path starts with the .dmt container magic.
func isDMT(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	if _, err := f.Read(magic[:]); err != nil {
		return false
	}
	return trace.IsDMT(magic[:])
}

func loadTrace(file, workload string, d time.Duration, seed uint64) (*dmamem.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dmamem.ReadTrace(f)
	}
	switch workload {
	case "synthetic-st":
		return dmamem.SyntheticStorageTrace(dmamem.SyntheticOptions{Duration: d, Seed: seed})
	case "synthetic-db":
		return dmamem.SyntheticDatabaseTrace(dmamem.SyntheticOptions{Duration: d, Seed: seed})
	case "oltp-st":
		return dmamem.StorageServerTrace(dmamem.ServerOptions{Duration: d, Seed: seed})
	case "oltp-db":
		return dmamem.DatabaseServerTrace(dmamem.ServerOptions{Duration: d, Seed: seed})
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// validateConcurrency rejects non-positive -parallel/-workers values
// up front: both are goroutine counts, and 0 or a negative count would
// otherwise hang the -compare pair or surface as a confusing core
// error mid-run.
func validateConcurrency(parallel, workers int) error {
	if parallel <= 0 {
		return fmt.Errorf("-parallel %d must be at least 1 (goroutines for the -compare pair)", parallel)
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

// validateTraceFlags rejects the generator flags -workload, -duration
// and -seed when set explicitly (set holds the names flag.Visit
// reports) together with -trace: the trace comes from the file, so
// silently ignoring them would misreport what ran.
func validateTraceFlags(traceFile string, set map[string]bool) error {
	if traceFile == "" {
		return nil
	}
	var ignored []string
	for _, name := range []string{"workload", "duration", "seed"} {
		if set[name] {
			ignored = append(ignored, "-"+name)
		}
	}
	if len(ignored) == 0 {
		return nil
	}
	return fmt.Errorf("-trace replays a recorded trace, so %s would be ignored; drop them or drop -trace",
		strings.Join(ignored, ", "))
}

// parseScheme maps the -scheme flag onto a technique, before any trace
// is generated or read.
func parseScheme(name string) (dmamem.Technique, error) {
	switch name {
	case "baseline":
		return dmamem.Baseline, nil
	case "dma-ta":
		return dmamem.TemporalAlignment, nil
	case "dma-ta-pl":
		return dmamem.TemporalAlignmentWithLayout, nil
	case "no-pm":
		return dmamem.NoPowerManagement, nil
	}
	return 0, fmt.Errorf("unknown -scheme %q (valid: baseline, dma-ta, dma-ta-pl, no-pm)", name)
}

// parseTech resolves the single -tech value through the shared
// experiments.ParseTechList helper (trimmed, lower-cased, validated
// against the registry). dmamem-sim runs one simulation, so lists are
// rejected here with a pointer at dmamem-bench.
func parseTech(s string) (string, error) {
	techs, err := experiments.ParseTechList(s)
	if err != nil {
		return "", err
	}
	switch len(techs) {
	case 0:
		return "", nil
	case 1:
		return techs[0], nil
	}
	return "", fmt.Errorf("-tech %q names %d technologies; dmamem-sim runs one (dmamem-bench -tech sweeps lists)", s, len(techs))
}

// engineWorkers maps the -workers flag onto Simulation.Workers: 1
// keeps the default serial reference engine, higher counts select the
// epoch-barrier parallel engine with that many event-loop goroutines.
func engineWorkers(workers int) int {
	if workers <= 1 {
		return 0
	}
	return workers
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmamem-sim:", err)
	os.Exit(1)
}

// badFlags reports a flag combination rejected before any work starts
// and exits 2, the flag package's status for usage errors.
func badFlags(err error) {
	fmt.Fprintln(os.Stderr, "dmamem-sim:", err)
	os.Exit(2)
}
