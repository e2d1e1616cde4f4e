package sim

import (
	"context"
	"sync/atomic"
	"time"
)

// Span dispatch for the barrier engine. A span hands each shard a few
// microseconds of simulation, about what one goroutine handoff costs,
// so the engine decides per span whether other goroutines should run
// part of it:
//
//   - Shard affinity: worker w always runs shards w, w+W, w+2W, …, so
//     a shard's state stays in one goroutine's cache.
//   - The caller is worker 0: it runs its own share of a parallel
//     span, so each extra worker costs one handoff per span, not one
//     per shard.
//   - A measured choice: the engine keeps a wall-clock cost estimate
//     per unit of staged work for the inline and the parallel mode,
//     runs each span in the cheaper mode and re-probes the other one
//     every probePeriod spans.
//
// Which goroutine runs a shard cannot change what the shard computes:
// shards share no state within a span, and the span's end, its hooks
// and the order of the hooks are the same in either mode. Dispatch
// changes wall-clock time only.

// DispatchMode selects how the barrier engine dispatches spans.
// DispatchMeasured is the only mode a run uses unless a test forces
// another with ForceDispatch.
type DispatchMode int32

const (
	// DispatchMeasured runs each span in whichever mode the cost
	// estimates say is cheaper.
	DispatchMeasured DispatchMode = iota
	// DispatchInline runs every span on the caller's goroutine.
	DispatchInline
	// DispatchParallel hands every span to the workers.
	DispatchParallel
	// DispatchAlternate switches mode every span, starting parallel.
	DispatchAlternate
)

func (m DispatchMode) String() string {
	switch m {
	case DispatchInline:
		return "inline"
	case DispatchParallel:
		return "parallel"
	case DispatchAlternate:
		return "alternate"
	}
	return "measured"
}

// forcedDispatch is the mode ForceDispatch installed.
var forcedDispatch atomic.Int32

// ForceDispatch makes every BarrierEngine run that starts before the
// returned restore func is called dispatch its spans in mode m. It is
// a test hook: with the measured chooser most short spans run inline,
// so worker-invariance tests force the goroutine path to keep it
// under test. A mode changes which goroutine runs a shard, never a
// result, so a test that forces one cannot disturb a concurrent run.
func ForceDispatch(m DispatchMode) (restore func()) {
	prev := forcedDispatch.Swap(int32(m))
	return func() { forcedDispatch.Store(prev) }
}

const (
	// probePeriod is how many spans run in the preferred mode before one
	// runs in the other. On the 2-vCPU host a parallel span of the
	// ledger's 4-channel Synthetic-St workload costs about 4 µs more
	// than an inline one (58.5 against 46.9 ms per DMA-TA-PL simulation
	// over 3,010 spans, both forced), so probing every 64th span adds
	// under 0.1 µs a span.
	probePeriod = 64
	// costWeight is the EWMA weight of a new sample of the preferred
	// mode. A span of 4–7 records takes 6–14 µs inline on the 2-vCPU
	// host, and preemption makes single samples noisy. On that
	// workload at 2 workers, a weight of 1/2 ran 16–21% of the spans in
	// parallel, 1/8 ran 10–15% and 1/32 11–12%, with CPU per
	// simulation within run-to-run noise; 1/8 still follows a shift in
	// cost within a few dozen spans.
	costWeight = 1.0 / 8
	// sampleCap bounds one sample of the preferred mode at this many
	// times its estimate, so a single sample raises the estimate by at
	// most (sampleCap-1)·costWeight = 37.5% while a real rise in cost
	// still shows within a few spans. Without it, under load on the
	// 2-vCPU host, four empty shards ran 100–397 of 6,400 spans in
	// parallel (the probes alone are 101): each preempted inline span
	// handed the next 64 to the workers.
	sampleCap = 4
	// parallelMargin is how much cheaper in wall time the parallel mode
	// must measure before it is preferred. A parallel span keeps two
	// CPUs busy and wakes a parked thread, so a wall-time tie is a CPU
	// loss. On the 2-vCPU host, DMA-TA-PL on that workload at 2 workers
	// ran 20% of its spans in parallel at a margin of 1 (spans of 8–15
	// records measure parallel within 10–30% of inline) and spent
	// 53 ms of CPU per simulation; at 1.25 it spent 49 ms, the same as
	// with parallel never preferred, and 45 ms at 1 worker. The margin
	// cannot take the parallel path from a run that needs it to beat
	// the serial engine by 1.3x (CI's 4-CPU throughput gate): inline,
	// the barrier engine runs at about 0.87x serial on that workload
	// (404k against 464k records/s, traced), so wherever parallel can
	// reach 1.3x serial it measures about 1.5x cheaper than inline.
	parallelMargin = 1.25
)

// spanCost is the chooser's cost model: nanoseconds per unit of work
// (work+1, so empty spans count) for the inline [0] and parallel [1]
// modes, whether each has been measured, and the spans run since the
// other mode was last probed.
type spanCost struct {
	perUnit [2]float64
	seen    [2]bool
	since   int
}

// startWorkers launches the extra workers of a Run, if any. Worker w
// waits on its own start channel for a span end, runs its shards to
// it and reports on done.
func (b *BarrierEngine) startWorkers(ctx context.Context) {
	b.mode = DispatchMode(forcedDispatch.Load())
	if b.workers == 1 {
		return
	}
	b.done = make(chan error, b.workers)
	b.starts = make([]chan Time, b.workers-1)
	for i := range b.starts {
		start := make(chan Time, 1)
		b.starts[i] = start
		b.workerWG.Add(1)
		go func(first int) {
			defer b.workerWG.Done()
			for end := range start {
				b.done <- b.runShare(ctx, first, b.workers, end)
			}
		}(i + 1)
	}
}

// stopWorkers ends the workers startWorkers launched. Every span
// collects all its completions before returning, so no worker is
// running a shard here.
func (b *BarrierEngine) stopWorkers() {
	for _, start := range b.starts {
		close(start)
	}
	b.workerWG.Wait()
	b.starts = nil
}

// runShare runs shards first, first+stride, … to end.
func (b *BarrierEngine) runShare(ctx context.Context, first, stride int, end Time) error {
	for i := first; i < len(b.shards); i += stride {
		// RunUntilContext only errors on ctx cancellation, so stopping
		// at the first error cannot perturb the state a successful run
		// would produce.
		if err := b.shards[i].RunUntilContext(ctx, end); err != nil {
			return err
		}
	}
	return nil
}

// runSpan runs every shard to end, inline or across the workers as
// choose decides. In parallel mode the start sends order the hooks'
// writes before the workers resume, and receiving every completion is
// the barrier proper: it orders every shard's writes before the hooks
// that follow read them.
//
// With more than one worker the span's whole wall time counts toward
// the stall signal (see stallFraction) in either mode, so the signal,
// and the span caps SpanCap derives from it, do not depend on which
// mode the chooser picked.
func (b *BarrierEngine) runSpan(ctx context.Context, end Time, work int) error {
	if b.starts == nil {
		return b.runShare(ctx, 0, 1, end)
	}
	c := &b.cost
	parallel, probe := b.choose(c)
	t0 := time.Now()
	var err error
	if parallel {
		b.stats.ParallelSpans++
		for _, start := range b.starts {
			start <- end
		}
		err = b.runShare(ctx, 0, b.workers, end)
		for range b.starts {
			if e := <-b.done; err == nil {
				err = e
			}
		}
	} else {
		err = b.runShare(ctx, 0, 1, end)
	}
	d := time.Since(t0)
	b.spanAcc += d
	if b.mode == DispatchMeasured {
		c.record(parallel, probe, float64(d)/float64(max(work, 0)+1))
	}
	return err
}

// choose reports whether a span runs in parallel, and whether its
// sample is a probe: the forced mode if a test set one, else c's
// choice.
func (b *BarrierEngine) choose(c *spanCost) (parallel, probe bool) {
	switch b.mode {
	case DispatchInline:
		return false, false
	case DispatchParallel:
		return true, false
	case DispatchAlternate:
		b.flip = !b.flip
		return b.flip, false
	}
	return c.choose()
}

// choose measures each mode once, then picks the cheaper one and
// probes the other every probePeriod spans.
func (c *spanCost) choose() (parallel, probe bool) {
	switch {
	case !c.seen[0]:
		return false, true
	case !c.seen[1]:
		return true, true
	}
	best := c.perUnit[1]*parallelMargin < c.perUnit[0]
	if c.since++; c.since >= probePeriod {
		c.since = 0
		return !best, true
	}
	return best, false
}

// record folds one span's wall time per unit of work into the estimate
// of the mode it ran in. A probe's sample replaces the estimate
// outright, so one slow probe can mislead the chooser for at most one
// probe period. The preferred mode, sampled every span, is smoothed,
// and a sample counts for at most sampleCap times the estimate, so a
// span that was preempted or caught a GC pause cannot flip the choice
// on its own.
func (c *spanCost) record(parallel, probe bool, perUnit float64) {
	m := 0
	if parallel {
		m = 1
	}
	if probe {
		c.perUnit[m], c.seen[m] = perUnit, true
		return
	}
	perUnit = min(perUnit, sampleCap*c.perUnit[m])
	c.perUnit[m] += costWeight * (perUnit - c.perUnit[m])
}
