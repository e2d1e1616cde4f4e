package sim

import (
	"context"
	"fmt"
	"sort"
	"testing"
)

// spin does n rounds of xorshift: a fixed amount of CPU work that does
// not depend on wall-clock time.
func spin(n int) uint64 {
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// tickShards builds n shards that each dispatch one event per epoch,
// doing work rounds of spin, until the clock passes until. With work
// 0 it is the cheapest span there is.
func tickShards(n int, epoch Duration, until Time, work int) []*Engine {
	engs := make([]*Engine, n)
	for i := range engs {
		e := New()
		// Each shard keeps its own sink, so the compiler keeps spin's
		// work and shards on different workers share nothing.
		var sink uint64
		var tick Handler
		tick = func(e *Engine) {
			sink += spin(work)
			if e.Now() < until {
				after(e, epoch, tick)
			}
		}
		e.Schedule(Time(i), tick)
		engs[i] = e
	}
	return engs
}

// TestDispatchChooserEmptyShards: when the shards have nothing to do,
// a handoff can never pay, so after the first probe the chooser must
// run nearly every span inline. The bound is in probe periods, not
// wall time: one probe per period, plus a few periods of slack for
// spans a preemption made look slow (a probe's sample replaces the
// estimate, so each such outlier costs at most one period).
func TestDispatchChooserEmptyShards(t *testing.T) {
	const spans = 100 * probePeriod
	epoch := 10 * Microsecond
	engs := []*Engine{New(), New(), New(), New()}
	be, err := NewBarrierEngine(engs, epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	err = be.Run(context.Background(), BarrierHooks{
		NextInput: func() (Time, bool) { return Time(k) * Time(epoch), k < spans },
		Prepare: func(end Time) error {
			k++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := be.Stats()
	if st.Rendezvous != spans {
		t.Fatalf("%d rendezvous, want %d", st.Rendezvous, spans)
	}
	if limit := int64(1 + spans/probePeriod + 4*probePeriod); st.ParallelSpans > limit {
		t.Errorf("%d of %d empty spans ran in parallel, want at most %d", st.ParallelSpans, spans, limit)
	}
	if st.ParallelSpans == 0 {
		t.Error("the parallel mode was never probed")
	}
}

// TestSpanCostChoice drives the chooser's cost model with fixed
// samples, so its decisions are checked without a clock. After one
// probe of each mode it runs the mode that measures cheaper, parallel
// only when it wins by parallelMargin, and probes the other once per
// probePeriod spans; a probe that finds the other mode cheaper
// switches at once; one outlier sample of the preferred mode does not
// flip the choice.
func TestSpanCostChoice(t *testing.T) {
	const n = 10 * probePeriod
	probes := 1 + n/probePeriod
	// run feeds n spans that cost inline or parallel ns per unit in the
	// mode they run in, and returns how many ran in parallel.
	run := func(c *spanCost, inline, parallel float64) int {
		p := 0
		for i := 0; i < n; i++ {
			par, probe := c.choose()
			cost := inline
			if par {
				cost, p = parallel, p+1
			}
			c.record(par, probe, cost)
		}
		return p
	}
	var c spanCost
	if p := run(&c, 10, 5); p < n-probes {
		t.Errorf("parallel twice as cheap: %d of %d spans parallel, want at least %d", p, n, n-probes)
	}
	// The costs flip: the next inline probe must win the choice back.
	if p := run(&c, 10, 20); p > probePeriod+probes {
		t.Errorf("after inline became cheaper: %d of %d spans parallel, want at most %d", p, n, probePeriod+probes)
	}
	if p := run(&c, 10, 20); p > probes {
		t.Errorf("inline twice as cheap: %d of %d spans parallel, want at most %d", p, n, probes)
	}
	// One preempted inline span, 100 times its cost, right after a
	// probe must not hand the following spans to the workers.
	c.since = 0
	c.record(false, false, 1000)
	if p := run(&c, 10, 20); p > probes {
		t.Errorf("after one outlier: %d of %d spans parallel, want at most %d", p, n, probes)
	}
	// Parallel gets cheaper while inline is preferred: only a probe can
	// see it, and that one probe must switch the choice.
	if p := run(&c, 10, 4); p < n-probePeriod-probes {
		t.Errorf("after parallel became cheaper: %d of %d spans parallel, want at least %d", p, n, n-probePeriod-probes)
	}
	c = spanCost{}
	if p := run(&c, 10, 9); p > probes {
		t.Errorf("parallel 10%% cheaper, inside the margin: %d of %d spans parallel, want at most %d", p, n, probes)
	}
}

// TestDispatchChooserSingleWorker: with one worker there is nothing to
// choose; every span runs inline and the count stays zero.
func TestDispatchChooserSingleWorker(t *testing.T) {
	defer ForceDispatch(DispatchParallel)()
	be, err := NewBarrierEngine(tickShards(4, Microsecond, Time(Millisecond), 0), Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Run(context.Background(), BarrierHooks{}); err != nil {
		t.Fatal(err)
	}
	if st := be.Stats(); st.ParallelSpans != 0 || st.Rendezvous == 0 {
		t.Fatalf("stats %+v, want rendezvous and no parallel span", st)
	}
}

// TestBarrierWorkerError: a shard cancelled mid-span on a worker
// goroutine surfaces the context's error from Run, after every worker
// has reported, in each mode that reaches the workers.
func TestBarrierWorkerError(t *testing.T) {
	for _, mode := range []DispatchMode{DispatchParallel, DispatchAlternate} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Cleanup(ForceDispatch(mode))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			engs := tickShards(4, 10, Time(Millisecond), 0)
			// Shard 1 runs on worker 1 at two workers; it cancels the
			// run inside a long span.
			n := 0
			var stop Handler
			stop = func(e *Engine) {
				if n++; n == 5 {
					cancel()
				}
				after(e, 10, stop)
			}
			engs[1].Schedule(0, stop)
			be, err := NewBarrierEngine(engs, Millisecond, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := be.Run(ctx, BarrierHooks{}); err != context.Canceled {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestStallSignalIndependentOfDispatch: the stall fraction SpanCap
// receives counts each span's whole wall time, whether the span ran
// inline or on the workers, so the span caps a caller derives from it
// cannot depend on the dispatch mode. The shards here do far more work
// than the loop between spans, so with two workers the fraction is
// near 1 in either mode; with one worker it is always 0.
func TestStallSignalIndependentOfDispatch(t *testing.T) {
	for _, tc := range []struct {
		workers int
		mode    DispatchMode
	}{{1, DispatchParallel}, {2, DispatchInline}, {2, DispatchParallel}} {
		t.Run(fmt.Sprintf("workers=%d/%v", tc.workers, tc.mode), func(t *testing.T) {
			t.Cleanup(ForceDispatch(tc.mode))
			epoch := 10 * Microsecond
			be, err := NewBarrierEngine(tickShards(4, epoch, 200*Time(epoch), 5000), epoch, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			var stalls []float64
			err = be.Run(context.Background(), BarrierHooks{
				CrossAt: func() (Time, bool) { return MaxTime, true },
				SpanCap: func(stall float64) int {
					stalls = append(stalls, stall)
					return 2
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// The first query has no interval behind it and reads 0.
			stalls = stalls[1:]
			sort.Float64s(stalls)
			med := stalls[len(stalls)/2]
			switch {
			case tc.workers == 1 && stalls[len(stalls)-1] != 0:
				t.Errorf("one worker: stall up to %.2f, want 0", stalls[len(stalls)-1])
			case tc.workers > 1 && med < 0.5:
				t.Errorf("median stall %.2f over %d spans, want above 0.5", med, len(stalls))
			}
		})
	}
}

// TestRendezvousZeroAlloc: after warm-up, running a span allocates
// nothing, inline, handed to the workers, or chosen by measurement.
func TestRendezvousZeroAlloc(t *testing.T) {
	for _, mode := range []DispatchMode{DispatchInline, DispatchParallel, DispatchMeasured} {
		epoch := 10 * Microsecond
		be, err := NewBarrierEngine(tickShards(4, epoch/2, MaxTime, 0), epoch, 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		be.startWorkers(ctx)
		be.mode = mode
		end := Time(0)
		span := func() {
			end += Time(epoch)
			if err := be.runSpan(ctx, end, 3); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4*probePeriod; i++ {
			span()
		}
		if a := testing.AllocsPerRun(2*probePeriod, span); a != 0 {
			t.Errorf("%v: %.2f allocations per span, want 0", mode, a)
		}
		be.stopWorkers()
	}
}

// BenchmarkBarrierRendezvous times one rendezvous of four shards that
// each dispatch one event per epoch: the fixed cost of a span of
// trivial shards at 1, 2 and 4 workers, as the chooser dispatches it
// and with every span forced onto the workers; and, with each event
// doing spin work, how the chooser fares against both forced modes on
// either side of the point where a handoff starts to pay.
func BenchmarkBarrierRendezvous(b *testing.B) {
	for _, bc := range []struct {
		workers int
		mode    DispatchMode
		work    int
	}{
		{1, DispatchMeasured, 0}, {2, DispatchMeasured, 0}, {4, DispatchMeasured, 0},
		{2, DispatchParallel, 0}, {4, DispatchParallel, 0},
		{2, DispatchInline, 2000}, {2, DispatchParallel, 2000}, {2, DispatchMeasured, 2000},
		{2, DispatchInline, 20000}, {2, DispatchParallel, 20000}, {2, DispatchMeasured, 20000},
	} {
		b.Run(fmt.Sprintf("workers=%d/%v/work=%d", bc.workers, bc.mode, bc.work), func(b *testing.B) {
			defer ForceDispatch(bc.mode)()
			epoch := 10 * Microsecond
			be, err := NewBarrierEngine(tickShards(4, epoch, Time(b.N-1)*Time(epoch), bc.work), epoch, bc.workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := be.Run(context.Background(), BarrierHooks{}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := be.Stats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Rendezvous), "ns/rendezvous")
			b.ReportMetric(float64(st.ParallelSpans)/float64(st.Rendezvous), "parallel/span")
		})
	}
}
