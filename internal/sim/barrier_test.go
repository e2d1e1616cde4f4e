package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// buildBarrierKernel schedules one shard's random workload: the same
// mix TestSchedulerEquivalence uses (deltas across every wheel level,
// same-instant priority ties, cancels, handler-driven reschedules),
// confined to one shard so the kernel is legal under the barrier
// engine's no-cross-shard-mid-epoch rule.
func buildBarrierKernel(e *Engine, rng *rand.Rand, order *[]int, labelBase int) {
	deltas := []Duration{0, 1, 3, 63, 64, 65, 1000, 4095, 4096, 9999,
		262144, 1000000, 10 * Microsecond, 3 * Millisecond}
	var ids []EventID
	label := labelBase
	var schedule func(depth int)
	schedule = func(depth int) {
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			l := label
			label++
			at := e.Now().Add(deltas[rng.Intn(len(deltas))])
			prio := int8(rng.Intn(3))
			id := e.SchedulePrio(at, prio, func(e *Engine) {
				*order = append(*order, l)
				if depth < 3 && rng.Intn(4) == 0 {
					schedule(depth + 1)
				}
			})
			ids = append(ids, id)
			if len(ids) > 3 && rng.Intn(5) == 0 {
				e.Cancel(ids[rng.Intn(len(ids))])
			}
		}
	}
	schedule(0)
}

// TestBarrierSingleShardMatchesSerial: driving one shard through the
// barrier engine in epoch chunks dispatches the identical sequence —
// same order, same step count, same final clock — as the shard's own
// Run. This is the bit-identicality claim the parallel core path
// relies on for single-channel configurations.
func TestBarrierSingleShardMatchesSerial(t *testing.T) {
	epochs := []Duration{64, 1000, 4096, 50 * Microsecond, 10 * Millisecond}
	for seed := int64(1); seed <= 10; seed++ {
		var refOrder []int
		ref := New()
		buildBarrierKernel(ref, rand.New(rand.NewSource(seed)), &refOrder, 0)
		ref.Run()
		for _, epoch := range epochs {
			var order []int
			e := New()
			buildBarrierKernel(e, rand.New(rand.NewSource(seed)), &order, 0)
			be, err := NewBarrierEngine([]*Engine{e}, epoch, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := be.Run(context.Background(), BarrierHooks{}); err != nil {
				t.Fatalf("seed %d epoch %v: %v", seed, epoch, err)
			}
			if len(order) != len(refOrder) {
				t.Fatalf("seed %d epoch %v: %d dispatches, serial %d",
					seed, epoch, len(order), len(refOrder))
			}
			for i := range order {
				if order[i] != refOrder[i] {
					t.Fatalf("seed %d epoch %v: order diverges at %d: %d vs %d",
						seed, epoch, i, order[i], refOrder[i])
				}
			}
			if e.Steps() != ref.Steps() {
				t.Fatalf("seed %d epoch %v: steps %d, serial %d", seed, epoch, e.Steps(), ref.Steps())
			}
			if e.Now() != ref.Now() {
				t.Fatalf("seed %d epoch %v: clock %v, serial %v", seed, epoch, e.Now(), ref.Now())
			}
		}
	}
}

// barrierRun executes one seeded multi-shard scenario: every shard
// carries its own random kernel, and the barrier hook injects
// cross-shard events — schedules into other shards at offsets that
// straddle epoch boundaries, plus cancels and reschedules of earlier
// cross-shard events — from a hook-local rng. The hook runs
// single-threaded between epochs, so the whole scenario is a pure
// function of the seed; the returned per-shard dispatch logs must be
// identical at any worker count.
func barrierRun(t *testing.T, seed int64, shards, workers int, epoch Duration) ([][]int, []uint64) {
	t.Helper()
	engs := make([]*Engine, shards)
	logs := make([][]int, shards)
	for i := range engs {
		engs[i] = New()
		order := &logs[i]
		buildBarrierKernel(engs[i], rand.New(rand.NewSource(seed*100+int64(i))), order, i*1_000_000)
	}
	be, err := NewBarrierEngine(engs, epoch, workers)
	if err != nil {
		t.Fatal(err)
	}
	hookRng := rand.New(rand.NewSource(seed * 977))
	crossLabel := 500_000_000
	type crossEvt struct {
		shard int
		id    EventID
	}
	var pending []crossEvt
	barriers := 0
	hooks := BarrierHooks{
		Barrier: func(end Time) error {
			barriers++
			if barriers > 200 {
				return nil // bound the cross-traffic so the run terminates
			}
			// Offsets on both sides of the next epoch boundary, so
			// cross-shard events land mid-epoch, on the first instant of
			// the next epoch, and several epochs out.
			offsets := []Duration{1, 3, Duration(epoch) / 2, Duration(epoch),
				Duration(epoch) + 1, 3*Duration(epoch) + 7}
			n := hookRng.Intn(4)
			for i := 0; i < n; i++ {
				s := hookRng.Intn(shards)
				at := end.Add(offsets[hookRng.Intn(len(offsets))])
				l := crossLabel
				crossLabel++
				order := &logs[s]
				id := engs[s].SchedulePrio(at, int8(hookRng.Intn(3)), func(e *Engine) {
					*order = append(*order, l)
				})
				pending = append(pending, crossEvt{shard: s, id: id})
			}
			// Cross-shard cancel: stale IDs (already fired) are safe
			// no-ops, and whether an ID is stale is itself deterministic.
			if len(pending) > 2 && hookRng.Intn(3) == 0 {
				c := pending[hookRng.Intn(len(pending))]
				engs[c.shard].Cancel(c.id)
			}
			return nil
		},
	}
	if err := be.Run(context.Background(), hooks); err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	steps := make([]uint64, shards)
	for i, e := range engs {
		steps[i] = e.Steps()
	}
	return logs, steps
}

// forcedModes are the dispatch modes the worker-invariance tests force:
// with the measured chooser most short spans run inline, so the
// goroutine path is tested only if a test demands it.
var forcedModes = []DispatchMode{DispatchInline, DispatchParallel, DispatchAlternate}

// TestBarrierEquivalenceAcrossWorkers is the parallel extension of the
// scheduler-equivalence fuzz kernel: random per-shard workloads with
// cross-shard barrier traffic straddling epoch boundaries must produce
// bit-identical per-shard dispatch sequences at 1, 2 and 4 workers,
// with every span inline, every span handed to the workers, and the
// two alternating. Run under -race in CI, it is also the data-race
// gate for the workers' barrier memory ordering.
func TestBarrierEquivalenceAcrossWorkers(t *testing.T) {
	for _, mode := range forcedModes {
		t.Run(mode.String(), func(t *testing.T) {
			t.Cleanup(ForceDispatch(mode))
			for seed := int64(1); seed <= 12; seed++ {
				for _, epoch := range []Duration{1000, 50 * Microsecond, Millisecond} {
					refLogs, refSteps := barrierRun(t, seed, 4, 1, epoch)
					for _, workers := range []int{2, 3, 4} {
						logs, steps := barrierRun(t, seed, 4, workers, epoch)
						for s := range logs {
							if len(logs[s]) != len(refLogs[s]) {
								t.Fatalf("%v seed %d epoch %v workers %d shard %d: %d dispatches, ref %d",
									mode, seed, epoch, workers, s, len(logs[s]), len(refLogs[s]))
							}
							for i := range logs[s] {
								if logs[s][i] != refLogs[s][i] {
									t.Fatalf("%v seed %d epoch %v workers %d shard %d: order diverges at %d",
										mode, seed, epoch, workers, s, i)
								}
							}
							if steps[s] != refSteps[s] {
								t.Fatalf("%v seed %d epoch %v workers %d shard %d: steps %d, ref %d",
									mode, seed, epoch, workers, s, steps[s], refSteps[s])
							}
						}
					}
				}
			}
		})
	}
}

// TestBarrierPrepareAndNextInput: external inputs surfaced through
// NextInput keep the epoch loop alive across otherwise-empty stretches,
// and Prepare stages them into the right shard before the epoch runs.
func TestBarrierPrepareAndNextInput(t *testing.T) {
	type input struct {
		at    Time
		shard int
		label int
	}
	// Long silent gaps between inputs force the skip-ahead path.
	inputs := []input{
		{at: 10, shard: 0, label: 1},
		{at: 10, shard: 1, label: 2},
		{at: Time(3 * Millisecond), shard: 1, label: 3},
		{at: Time(90 * Millisecond), shard: 0, label: 4},
	}
	run := func(workers int) [][]int {
		engs := []*Engine{New(), New()}
		logs := make([][]int, 2)
		idx := 0
		hooks := BarrierHooks{
			NextInput: func() (Time, bool) {
				if idx >= len(inputs) {
					return 0, false
				}
				return inputs[idx].at, true
			},
			Prepare: func(end Time) error {
				for idx < len(inputs) && inputs[idx].at <= end {
					in := inputs[idx]
					idx++
					order := &logs[in.shard]
					engs[in.shard].SchedulePrio(in.at, 1, func(e *Engine) {
						*order = append(*order, in.label)
						if in.label == 2 {
							// Follow-up work several epochs out, so shard 1
							// stays non-empty across a silent input gap.
							after(e, 2*Millisecond, func(e *Engine) {
								*order = append(*order, -2)
							})
						}
					})
				}
				return nil
			},
		}
		be, err := NewBarrierEngine(engs, 50*Microsecond, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := be.Run(context.Background(), hooks); err != nil {
			t.Fatal(err)
		}
		if idx != len(inputs) {
			t.Fatalf("workers %d: only %d of %d inputs delivered", workers, idx, len(inputs))
		}
		return logs
	}
	want := [][]int{{1, 4}, {2, -2, 3}}
	for _, workers := range []int{1, 2} {
		logs := run(workers)
		for s := range want {
			if len(logs[s]) != len(want[s]) {
				t.Fatalf("workers %d shard %d: got %v, want %v", workers, s, logs[s], want[s])
			}
			for i := range want[s] {
				if logs[s][i] != want[s][i] {
					t.Fatalf("workers %d shard %d: got %v, want %v", workers, s, logs[s], want[s])
				}
			}
		}
	}
}

// elisionRun executes a fixed scenario under either the classic
// fixed-epoch protocol or the adaptive (CrossAt) one: three shards
// tick local work every 7 us for 10 ms, and the barrier hook injects a
// cross-shard event whenever a scripted cross instant falls inside the
// span that just ended. The injection schedule is a pure function of
// simulated time (the first rendezvous end at or past each scripted
// instant is that instant's epoch end in both modes), so logs must be
// bit-identical with and without elision.
func elisionRun(t *testing.T, workers int, adaptive bool) ([][]int, []Time, BarrierStats, []Time) {
	t.Helper()
	const shards = 3
	epoch := 50 * Microsecond
	crosses := []Time{Time(Millisecond) + 13, Time(4*Millisecond) + 1, Time(9 * Millisecond)}
	engs := make([]*Engine, shards)
	logs := make([][]int, shards)
	for i := range engs {
		engs[i] = New()
		order := &logs[i]
		label := i * 1000
		var tick Handler
		tick = func(e *Engine) {
			*order = append(*order, label)
			label++
			if e.Now() < Time(10*Millisecond) {
				after(e, 7*Microsecond, tick)
			}
		}
		engs[i].Schedule(Time(i), tick)
	}
	be, err := NewBarrierEngine(engs, epoch, workers)
	if err != nil {
		t.Fatal(err)
	}
	nextCross := 0
	crossLabel := 500_000
	var ends []Time
	hooks := BarrierHooks{
		Barrier: func(end Time) error {
			ends = append(ends, end)
			for nextCross < len(crosses) && crosses[nextCross] <= end {
				nextCross++
				s := nextCross % shards
				order := &logs[s]
				l := crossLabel
				crossLabel++
				engs[s].SchedulePrio(end.Add(3), 0, func(e *Engine) {
					*order = append(*order, l)
				})
			}
			return nil
		},
	}
	if adaptive {
		hooks.CrossAt = func() (Time, bool) {
			if nextCross < len(crosses) {
				return crosses[nextCross], true
			}
			return MaxTime, true
		}
	}
	if err := be.Run(context.Background(), hooks); err != nil {
		t.Fatal(err)
	}
	clocks := make([]Time, shards)
	for i, e := range engs {
		clocks[i] = e.Now()
	}
	return logs, clocks, be.Stats(), ends
}

// TestBarrierElisionMatchesFixed is the sim-level elision gate: with a
// sound CrossAt bound the adaptive engine must skip most rendezvous of
// a sparse scenario while reproducing the fixed-epoch dispatch
// sequence exactly, at 1 and 2 workers and in every forced dispatch
// mode.
func TestBarrierElisionMatchesFixed(t *testing.T) {
	refLogs, refClocks, refStats, _ := elisionRun(t, 1, false)
	if refStats.ElidedEpochs != 0 {
		t.Fatalf("fixed run elided %d epochs", refStats.ElidedEpochs)
	}
	for _, mode := range forcedModes {
		t.Run(mode.String(), func(t *testing.T) {
			t.Cleanup(ForceDispatch(mode))
			for _, workers := range []int{1, 2} {
				logs, clocks, stats, _ := elisionRun(t, workers, true)
				for s := range logs {
					if len(logs[s]) != len(refLogs[s]) {
						t.Fatalf("%v workers %d shard %d: %d dispatches, fixed %d",
							mode, workers, s, len(logs[s]), len(refLogs[s]))
					}
					for i := range logs[s] {
						if logs[s][i] != refLogs[s][i] {
							t.Fatalf("%v workers %d shard %d: order diverges at %d", mode, workers, s, i)
						}
					}
					if clocks[s] != refClocks[s] {
						t.Fatalf("%v workers %d shard %d: clock %v, fixed %v", mode, workers, s, clocks[s], refClocks[s])
					}
				}
				if stats.Rendezvous*4 > refStats.Rendezvous {
					t.Errorf("%v workers %d: elision barely helped: %d rendezvous, fixed %d",
						mode, workers, stats.Rendezvous, refStats.Rendezvous)
				}
				if stats.ElidedEpochs == 0 {
					t.Errorf("%v workers %d: no epochs elided", mode, workers)
				}
				if workers > 1 && mode == DispatchParallel && stats.ParallelSpans != stats.Rendezvous {
					t.Errorf("forced parallel: %d of %d spans parallel", stats.ParallelSpans, stats.Rendezvous)
				}
			}
		})
	}
}

// TestBarrierSpanCap: the SpanCap hook bounds every elided span, so
// consecutive rendezvous can never be farther apart than cap epochs —
// the guarantee the core relies on to keep staging buffers bounded.
func TestBarrierSpanCap(t *testing.T) {
	epoch := 10 * Microsecond
	eng := New()
	n := 0
	var tick Handler
	tick = func(e *Engine) {
		if n++; e.Now() < Time(Millisecond) {
			after(e, epoch/2, tick)
		}
	}
	eng.Schedule(0, tick)
	be, err := NewBarrierEngine([]*Engine{eng}, epoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ends []Time
	capCalls := 0
	err = be.Run(context.Background(), BarrierHooks{
		CrossAt: func() (Time, bool) { return MaxTime, true },
		SpanCap: func(stall float64) int {
			capCalls++
			if stall < 0 || stall > 1 {
				t.Fatalf("stall fraction %g outside [0,1]", stall)
			}
			return 4
		},
		Barrier: func(end Time) error {
			ends = append(ends, end)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if capCalls == 0 {
		t.Fatal("SpanCap never consulted")
	}
	if len(ends) < 2 {
		t.Fatalf("only %d rendezvous", len(ends))
	}
	for i := 1; i < len(ends); i++ {
		if d := ends[i] - ends[i-1]; d > Time(4*epoch) {
			t.Fatalf("span %d covers %v, cap allows %v", i, d, 4*epoch)
		}
	}
}

// TestBarrierCapEndAndObserve: CapEnd turns arbitrary instants into
// forced rendezvous (mid-epoch, and even instants at or before the
// shards' clocks, which produce an empty span), and Observe runs at
// every rendezvous before Barrier with the same end.
func TestBarrierCapEndAndObserve(t *testing.T) {
	epoch := 50 * Microsecond
	obsAt := []Time{Time(120 * Microsecond), Time(121 * Microsecond), Time(300 * Microsecond)}
	eng := New()
	var fired []Time
	var tick Handler
	tick = func(e *Engine) {
		fired = append(fired, e.Now())
		if e.Now() < Time(500*Microsecond) {
			after(e, 90*Microsecond, tick)
		}
	}
	eng.Schedule(0, tick)
	be, err := NewBarrierEngine([]*Engine{eng}, epoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	nextObs := 0
	var observed, barriered []Time
	err = be.Run(context.Background(), BarrierHooks{
		CrossAt: func() (Time, bool) { return MaxTime, true },
		CapEnd: func(end Time) Time {
			if nextObs < len(obsAt) && obsAt[nextObs] < end {
				return obsAt[nextObs]
			}
			return end
		},
		Observe: func(end Time) error {
			observed = append(observed, end)
			for nextObs < len(obsAt) && obsAt[nextObs] <= end {
				nextObs++
			}
			return nil
		},
		Barrier: func(end Time) error {
			barriered = append(barriered, end)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nextObs != len(obsAt) {
		t.Fatalf("only %d of %d observation instants reached", nextObs, len(obsAt))
	}
	if len(observed) != len(barriered) {
		t.Fatalf("%d observes, %d barriers", len(observed), len(barriered))
	}
	for i := range observed {
		if observed[i] != barriered[i] {
			t.Fatalf("rendezvous %d: Observe(%v) but Barrier(%v)", i, observed[i], barriered[i])
		}
	}
	for _, at := range obsAt {
		found := false
		for _, end := range observed {
			if end == at {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no rendezvous at forced observation instant %v (got %v)", at, observed)
		}
	}
}

// TestBarrierHookErrors: a hook returning an error mid-run must tear
// down the epoch loop (workers drain via the deferred close) and
// surface exactly that error, on both the inline and pooled paths.
func TestBarrierHookErrors(t *testing.T) {
	build := func() []*Engine {
		engs := []*Engine{New(), New()}
		for _, e := range engs {
			var tick Handler
			tick = func(e *Engine) {
				if e.Now() < Time(2*Millisecond) {
					after(e, 10*Microsecond, tick)
				}
			}
			e.Schedule(0, tick)
		}
		return engs
	}
	sentinel := fmt.Errorf("hook exploded")
	cases := []struct {
		name string
		hook func(calls *int) BarrierHooks
	}{
		{"prepare", func(calls *int) BarrierHooks {
			return BarrierHooks{Prepare: func(end Time) error {
				if *calls++; *calls == 3 {
					return sentinel
				}
				return nil
			}}
		}},
		{"observe", func(calls *int) BarrierHooks {
			return BarrierHooks{Observe: func(end Time) error {
				if *calls++; *calls == 3 {
					return sentinel
				}
				return nil
			}}
		}},
		{"barrier", func(calls *int) BarrierHooks {
			return BarrierHooks{Barrier: func(end Time) error {
				if *calls++; *calls == 3 {
					return sentinel
				}
				return nil
			}}
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			engs := build()
			be, err := NewBarrierEngine(engs, 50*Microsecond, workers)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			if err := be.Run(context.Background(), tc.hook(&calls)); err != sentinel {
				t.Errorf("%s workers %d: err = %v, want the hook's error", tc.name, workers, err)
			}
			if calls != 3 {
				t.Errorf("%s workers %d: loop continued past the failing hook (%d calls)", tc.name, workers, calls)
			}
		}
	}
}

// TestBarrierEngineValidation pins the constructor's loud errors and
// the worker clamp.
func TestBarrierEngineValidation(t *testing.T) {
	if _, err := NewBarrierEngine(nil, Microsecond, 1); err == nil {
		t.Error("no shards accepted")
	}
	if _, err := NewBarrierEngine([]*Engine{New()}, 0, 1); err == nil {
		t.Error("zero epoch accepted")
	}
	if _, err := NewBarrierEngine([]*Engine{New()}, -Microsecond, 1); err == nil {
		t.Error("negative epoch accepted")
	}
	if _, err := NewBarrierEngine([]*Engine{New()}, Microsecond, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewBarrierEngine([]*Engine{New(), nil}, Microsecond, 1); err == nil {
		t.Error("nil shard accepted")
	}
	be, err := NewBarrierEngine([]*Engine{New(), New()}, Microsecond, 8)
	if err != nil {
		t.Fatal(err)
	}
	if be.Workers() != 2 {
		t.Fatalf("workers not clamped to shard count: %d", be.Workers())
	}
}

// TestBarrierRunCancelled: a cancelled context aborts the epoch loop
// with the context's error on both the inline and pooled paths.
func TestBarrierRunCancelled(t *testing.T) {
	for _, workers := range []int{1, 2} {
		engs := []*Engine{New(), New()}
		for _, e := range engs {
			n := 0
			var tick Handler
			tick = func(e *Engine) {
				if n++; n < 1000 {
					after(e, 10, tick)
				}
			}
			e.Schedule(0, tick)
		}
		be, err := NewBarrierEngine(engs, Microsecond, workers)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := be.Run(ctx, BarrierHooks{}); err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
	}
}
