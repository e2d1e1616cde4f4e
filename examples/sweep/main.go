// Sweep example: explore how hardware provisioning changes what
// DMA-aware management is worth — the paper's Figure 10 question. The
// memory rate stays at 3.2 GB/s while the I/O bus generation varies
// from PCI-X up to a hypothetical bus as fast as the memory itself.
//
// The bus points form a Figure 10 grid (internal/experiments) run
// across -parallel worker goroutines. Each point lands in its
// pre-assigned slot and the table prints in sweep order, which is
// what makes the output independent of the goroutine count.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dmamem"
	"dmamem/internal/experiments"
	"dmamem/internal/sim"
)

func main() {
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the sweep (1 = sequential)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Suite seed 0 makes the suite's Synthetic-St workload (generator
	// seed = suite seed + 1) the same trace the public API builds with
	// Seed 1 — the header summary below describes exactly what runs.
	s := experiments.NewSuite(40*sim.Millisecond, 0)
	s.Runner = experiments.NewRunner(*parallel)

	tr, err := dmamem.SyntheticStorageTrace(dmamem.SyntheticOptions{
		Duration: 40 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("workload:", tr.Summary())
	fmt.Println("\nsavings vs memory:I/O bandwidth ratio (3 buses, 10% CP-Limit):")
	fmt.Printf("%14s %8s %12s %12s\n", "bus", "ratio", "DMA-TA", "DMA-TA-PL")

	buses := []struct {
		name string
		bw   float64
	}{
		{"0.5 GB/s", 0.5e9},
		{"PCI-X 1.06", 1.064e9},
		{"2 GB/s", 2e9},
		{"3 GB/s", 3e9},
	}
	gs := experiments.GridSpec{
		Name:      experiments.GridFig10,
		Workloads: []string{"Synthetic-St"},
	}
	for _, b := range buses {
		gs.BusBW = append(gs.BusBW, b.bw)
	}

	pts, err := experiments.GridRun[experiments.SweepPoint](ctx, s, gs)
	if err != nil {
		log.Fatal(err)
	}

	// The grid enumerates (bus, scheme) pairs in sweep order: DMA-TA
	// then DMA-TA-PL for each bus.
	for i, b := range buses {
		fmt.Printf("%14s %8.1f %11.1f%% %11.1f%%\n",
			b.name, 3.2e9/b.bw, 100*pts[2*i].Savings, 100*pts[2*i+1].Savings)
	}
	fmt.Println("\n(a bus as fast as the memory leaves no mismatch to reclaim;")
	fmt.Println(" the slower the I/O bus, the more energy alignment recovers)")
}
