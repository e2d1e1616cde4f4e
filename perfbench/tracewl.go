package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dmamem"
)

// comparison is one trace workload: a trace built from the seed and
// the simulations one timed pass runs over it, baseline first and the
// workload's technique last.
type comparison struct {
	golden  string   // Table 2 workload whose goldens gate the run
	schemes []string // golden schemes reproduced by the gate
	workers int      // engine workers for the golden reproduction
	sims    []dmamem.Simulation
	tail    tail
	// build makes the input; it is the timed set-up.
	build func(o *options) (*input, error)
	// crossCheck runs the workload's own identity check on the first
	// pass's reports, before the timed phase.
	crossCheck func(l *ledger, in *input, first []*dmamem.Report) error
}

// input is what the timed passes consume.
type input struct {
	tr      *dmamem.Trace // dropped after the gate when the passes stream from file
	file    string        // .dmt container, when the workload streams one
	records int
}

const cpLimit = 0.10

func technique(t dmamem.Technique) dmamem.Simulation {
	s := dmamem.Simulation{Technique: t}
	if t != dmamem.Baseline {
		s.CPLimit = cpLimit
	}
	return s
}

// storage: OLTP-St in memory, one channel, serial engine, the paper's
// three-scheme comparison. Layout and bus carry the pass.
func storageComparison() *comparison {
	return &comparison{
		golden:  "OLTP-St",
		schemes: []string{"baseline", "dma-ta", "dma-ta-pl"},
		sims: []dmamem.Simulation{
			technique(dmamem.Baseline),
			technique(dmamem.TemporalAlignment),
			technique(dmamem.TemporalAlignmentWithLayout),
		},
		tail: tail(0.75),
		build: func(o *options) (*input, error) {
			tr, err := dmamem.StorageServerTrace(dmamem.ServerOptions{Duration: o.size.storage, Seed: o.seed})
			if err != nil {
				return nil, err
			}
			return &input{tr: tr, records: tr.Len()}, nil
		},
	}
}

// database-dmt: OLTP-Db written once to a .dmt file and streamed from
// it under baseline and DMA-TA. The event kernel, the controller's
// processor-access path and the decoder carry the pass.
func databaseComparison() *comparison {
	c := &comparison{
		golden:  "OLTP-Db",
		schemes: []string{"baseline", "dma-ta"},
		tail:    tail(0.75),
	}
	c.build = func(o *options) (*input, error) {
		tr, err := dmamem.DatabaseServerTrace(dmamem.ServerOptions{Duration: o.size.database, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		path := filepath.Join(o.out, fmt.Sprintf("database-seed%d.dmt", o.seed))
		if err := tr.SaveFile(path); err != nil {
			return nil, err
		}
		return &input{tr: tr, file: path, records: tr.Len()}, nil
	}
	c.sims = []dmamem.Simulation{technique(dmamem.Baseline), technique(dmamem.TemporalAlignment)}
	c.crossCheck = func(l *ledger, in *input, first []*dmamem.Report) error {
		// The file-backed reports must equal the in-memory ones; then the
		// in-memory trace is dropped so the timed passes hold only the
		// decoder's buffers.
		reps, err := runPass(c.sims, in.tr)
		if err != nil {
			return err
		}
		l.check(sameDigests(digests(reps), digests(first)), "OLTP-Db: .dmt replay differs from the in-memory run")
		in.tr = nil
		return nil
	}
	return c
}

// multichannel: Synthetic-St on four channels under DMA-TA-PL on the
// barrier engine with one worker per CPU — the only workload on that
// engine.
func multichannelComparison() *comparison {
	nproc := runtime.GOMAXPROCS(0)
	c := &comparison{
		golden:  "Synthetic-St",
		schemes: []string{"baseline", "dma-ta", "dma-ta-pl"},
		workers: nproc,
		tail:    tail(0.85),
	}
	for _, t := range []dmamem.Technique{dmamem.Baseline, dmamem.TemporalAlignmentWithLayout} {
		s := technique(t)
		s.Channels = 4
		s.Workers = nproc
		c.sims = append(c.sims, s)
	}
	c.build = func(o *options) (*input, error) {
		tr, err := dmamem.SyntheticStorageTrace(dmamem.SyntheticOptions{Duration: o.size.synthetic, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		return &input{tr: tr, records: tr.Len()}, nil
	}
	c.crossCheck = func(l *ledger, in *input, first []*dmamem.Report) error {
		// Reports must not depend on the worker count.
		one := withWorkers(c.sims, 1)
		reps, err := runPass(one, in.tr)
		if err != nil {
			return err
		}
		l.check(sameDigests(digests(reps), digests(first)), "Synthetic-St 4ch: reports at 1 and %d workers differ", nproc)
		return nil
	}
	return c
}

func withWorkers(sims []dmamem.Simulation, w int) []dmamem.Simulation {
	out := append([]dmamem.Simulation(nil), sims...)
	for i := range out {
		out[i].Workers = w
	}
	return out
}

func runStorage(o *options, l *ledger) error  { return runComparison(o, l, storageComparison()) }
func runDatabase(o *options, l *ledger) error { return runComparison(o, l, databaseComparison()) }
func runMultichannel(o *options, l *ledger) error {
	return runComparison(o, l, multichannelComparison())
}

// bindInput points the simulations at the input's file, when it has
// one.
func bindInput(sims []dmamem.Simulation, in *input) []dmamem.Simulation {
	out := append([]dmamem.Simulation(nil), sims...)
	for i := range out {
		out[i].TraceFile = in.file
	}
	return out
}

// runPass runs one pass's simulations in order.
func runPass(sims []dmamem.Simulation, tr *dmamem.Trace) ([]*dmamem.Report, error) {
	reps := make([]*dmamem.Report, len(sims))
	for i, s := range sims {
		r, err := dmamem.Run(s, tr)
		if err != nil {
			return nil, err
		}
		reps[i] = r
	}
	return reps, nil
}

// prepared is a trace workload after set-up and the correctness gate.
type prepared struct {
	c     *comparison
	in    *input
	sims  []dmamem.Simulation
	first []string // report digests of the first pass
}

// timeSetups builds the input at least setupReps times and for at
// least setupMin, timing each build, and returns the last input.
func timeSetups(o *options, c *comparison) (*input, []float64, error) {
	var in *input
	var setups []float64
	var total time.Duration
	for len(setups) < o.size.setupReps || total < o.size.setupMin && len(setups) < 100 {
		in = nil
		settle()
		t0 := time.Now()
		var err error
		if in, err = c.build(o); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		total += d
		setups = append(setups, d.Seconds())
	}
	return in, setups, nil
}

// prepare times the set-up, runs the correctness gate and one untimed
// warm pass.
func prepare(o *options, l *ledger, c *comparison) (*prepared, []float64, error) {
	in, setups, err := timeSetups(o, c)
	if err != nil {
		return nil, nil, err
	}
	if err := checkGoldens(o, l, c.golden, c.schemes, c.workers); err != nil {
		return nil, nil, err
	}
	p := &prepared{c: c, in: in, sims: bindInput(c.sims, in)}
	reps, err := runPass(p.sims, passTrace(p))
	if err != nil {
		return nil, nil, err
	}
	l.check(true, "warm pass")
	p.first = digests(reps)
	printOutcome(o, reps)
	if c.crossCheck != nil {
		if err := c.crossCheck(l, in, reps); err != nil {
			return nil, nil, err
		}
	}
	return p, setups, nil
}

// passTrace is the in-memory trace of the passes, nil for file-backed
// ones (the in-memory copy is dropped after the cross-check).
func passTrace(p *prepared) *dmamem.Trace {
	if p.in.file != "" {
		return nil
	}
	return p.in.tr
}

// requestRecords is the size a trace workload's request is scaled to:
// one simulation of this many records. Seeds give traces of slightly
// different lengths; scaling keeps their latencies comparable.
const requestRecords = 100_000

// perRequest scales a cost measured on one simulation of n records to
// one request.
func perRequest(n int) float64 { return requestRecords / float64(n) }

// passStats accumulates timed passes.
type passStats struct {
	wallRate  []float64 // records x simulations / pass wall seconds
	cpuRate   []float64 // records x simulations / pass CPU seconds
	latency   []float64 // technique simulation wall time per request, ms
	sims      int
	heap      heapCounters
	wall, cpu time.Duration
}

// timedPasses runs passes until d has elapsed, settling the heap
// before each and checking every pass's reports against the first.
func timedPasses(l *ledger, p *prepared, d time.Duration, observe func(scheme string) func()) (*passStats, error) {
	st := &passStats{}
	tr := passTrace(p)
	work := float64(p.in.records * len(p.sims))
	deadline := time.Now().Add(d)
	for len(st.wallRate) < 3 || time.Now().Before(deadline) {
		settle()
		h0, c0 := readHeap(), cpuTime()
		t0 := time.Now()
		reps := make([]*dmamem.Report, len(p.sims))
		var last time.Duration
		for i, s := range p.sims {
			var end func()
			if observe != nil {
				end = observe(s.Technique.String())
			}
			ts := time.Now()
			r, err := dmamem.Run(s, tr)
			last = time.Since(ts)
			if end != nil {
				end()
			}
			if err != nil {
				return nil, err
			}
			reps[i] = r
		}
		wall := time.Since(t0)
		st.heap = addHeap(st.heap, readHeap().sub(h0))
		cpu := cpuTime() - c0
		st.cpu += cpu
		st.cpuRate = append(st.cpuRate, work/cpu.Seconds())
		st.wall += wall
		st.sims += len(p.sims)
		st.wallRate = append(st.wallRate, work/wall.Seconds())
		st.latency = append(st.latency, ms(last)*perRequest(p.in.records))
		l.check(sameDigests(digests(reps), p.first), "pass %d: reports differ from the first pass", len(st.wallRate))
	}
	return st, nil
}

func addHeap(a, b heapCounters) heapCounters {
	return heapCounters{mallocs: a.mallocs + b.mallocs, gcs: a.gcs + b.gcs, pause: a.pause + b.pause}
}

// runComparison is the end-to-end run of a trace workload, or its
// traced run.
func runComparison(o *options, l *ledger, c *comparison) error {
	p, setups, err := prepare(o, l, c)
	if err != nil {
		return err
	}
	if p.in.file != "" {
		defer os.Remove(p.in.file)
	}
	if o.traced {
		return traceComparison(o, l, p)
	}
	settle()
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	st, err := timedPasses(l, p, o.seconds, nil)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	// A second round of set-ups after the timed phase spreads setup_s
	// over the run as the passes are, so a slow minute of the host does
	// not decide it.
	_, after, err := timeSetups(o, c)
	if err != nil {
		return err
	}
	setups = append(setups, after...)
	tv, beyond := c.tail.of(st.latency)
	l.set("setup_s", median(setups), "s")
	l.set("work_per_cpu_s", median(st.cpuRate), "1/cpu_s")
	l.set("p50_ms", median(st.latency), "ms")
	l.set("tail_ms", tv, "ms")
	l.set("peak_rss_mb", rss, "MB")
	l.set("allocs_per_request", float64(st.heap.mallocs)/float64(st.sims)*perRequest(p.in.records), "count")
	fmt.Fprintf(o.info, "# %d passes of %d records x %d simulations; %s latency per request over %d passes: p50 %.1f p75 %.1f p90 %.1f p95 %.1f ms, tail %s with %d beyond; %d set-ups, median %.3f s\n",
		len(st.wallRate), p.in.records, len(p.sims), p.sims[len(p.sims)-1].Technique, len(st.latency),
		median(st.latency), quantile(st.latency, 0.75), quantile(st.latency, 0.9), quantile(st.latency, 0.95),
		c.tail, beyond, len(setups), median(setups))
	return nil
}
