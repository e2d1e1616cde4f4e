package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file drive several independent engines, as a
// process running a fleet of simulations does, in the three ways
// drive offers, and hold every engine to dispatching exactly what its
// own Run dispatches. Stepping an engine through epochs means a
// RunUntil call per epoch boundary; in "alternate" mode each boundary
// is a barrier that every engine reaches before any goes on.

// dueAt reports the instant of e's next dispatch, a queued event or a
// feeder batch, and false once e has drained.
func dueAt(e *Engine) (Time, bool) {
	ev, fat, useFeeder := e.next()
	switch {
	case useFeeder:
		return fat, true
	case ev != nil:
		return ev.at, true
	}
	return 0, false
}

// nextEnd returns the epoch boundary after end that the next RunUntil
// call stops at: the following boundary, or with elide the first
// boundary at or after due, skipping those with nothing to dispatch.
func nextEnd(end, due Time, epoch Duration, elide bool) Time {
	next := end.Add(epoch)
	if elide {
		if b := (due + Time(epoch) - 1) / Time(epoch) * Time(epoch); b > next {
			next = b
		}
	}
	return next
}

// stepEngine runs e to completion in epoch-aligned RunUntil calls,
// checking ctx between calls and inside each, and returns how many
// calls it made.
func stepEngine(ctx context.Context, e *Engine, epoch Duration, elide bool) (int, error) {
	calls := 0
	for end := -Time(epoch); ; calls++ {
		due, ok := dueAt(e)
		if !ok {
			return calls, nil
		}
		if err := ctx.Err(); err != nil {
			return calls, err
		}
		end = nextEnd(end, due, epoch, elide)
		if err := e.runUntil(ctx, end); err != nil {
			return calls, err
		}
	}
}

// forcedModes are the ways drive runs a set of engines: "inline" steps
// each to completion in turn on the calling goroutine; "parallel"
// steps each to completion on one of workers goroutines, so state two
// engines shared would show up as a difference (and as a race under
// -race); "alternate" advances all of them together one epoch boundary
// at a time, handing each engine to a different one of workers
// goroutines at every boundary.
var forcedModes = []string{"inline", "parallel", "alternate"}

// drive runs engs to completion in mode and returns how many epoch
// boundaries it stopped at (summed over the engines, except in
// alternate mode, where all engines stop at each) and the first error.
func drive(ctx context.Context, mode string, engs []*Engine, workers int, epoch Duration, elide bool) (int, error) {
	switch mode {
	case "inline":
		total := 0
		for _, e := range engs {
			n, err := stepEngine(ctx, e, epoch, elide)
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	case "parallel":
		var total atomic.Int64
		var next atomic.Int64
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(engs); i = int(next.Add(1) - 1) {
					n, err := stepEngine(ctx, engs[i], epoch, elide)
					total.Add(int64(n))
					if err != nil {
						errs[w] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return int(total.Load()), err
			}
		}
		return int(total.Load()), nil
	case "alternate":
		errs := make([]error, len(engs))
		for end, round := -Time(epoch), 0; ; round++ {
			due, found := Time(0), false
			for _, e := range engs {
				if at, ok := dueAt(e); ok && (!found || at < due) {
					due, found = at, true
				}
			}
			if !found {
				return round, nil
			}
			if err := ctx.Err(); err != nil {
				return round, err
			}
			end = nextEnd(end, due, epoch, elide)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, e := range engs {
						if (i+round)%workers == w {
							errs[i] = e.runUntil(ctx, end)
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return round, err
				}
			}
		}
	}
	panic("unknown mode " + mode)
}

// buildKernel schedules a random workload on e: the same mix
// TestSchedulerEquivalence uses (deltas across every wheel level,
// same-instant priority ties, cancels, handler-driven reschedules),
// logging each dispatch's label to order.
func buildKernel(e *Engine, rng *rand.Rand, order *[]int, labelBase int) {
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

// sameRun fails t unless the engine that logged order dispatched the
// reference's sequence, step count and final clock.
func sameRun(t *testing.T, what string, order, refOrder []int, e, ref *Engine) {
	t.Helper()
	if len(order) != len(refOrder) {
		t.Fatalf("%s: %d dispatches, Run %d", what, len(order), len(refOrder))
	}
	for i := range order {
		if order[i] != refOrder[i] {
			t.Fatalf("%s: order diverges at %d: %d vs %d", what, i, order[i], refOrder[i])
		}
	}
	if e.Steps() != ref.Steps() {
		t.Fatalf("%s: steps %d, Run %d", what, e.Steps(), ref.Steps())
	}
	if e.Now() != ref.Now() {
		t.Fatalf("%s: clock %v, Run %v", what, e.Now(), ref.Now())
	}
}

// TestBarrierSingleShardMatchesSerial: driving one engine through
// epoch boundaries, every one or only those with something due,
// dispatches the identical sequence — same order, same step count,
// same final clock — as the engine's own Run.
func TestBarrierSingleShardMatchesSerial(t *testing.T) {
	epochs := []Duration{64, 1000, 4096, 50 * Microsecond, 10 * Millisecond}
	for seed := int64(1); seed <= 10; seed++ {
		var refOrder []int
		ref := New()
		buildKernel(ref, rand.New(rand.NewSource(seed)), &refOrder, 0)
		ref.Run()
		for _, epoch := range epochs {
			// Stopping at every boundary of a tiny epoch would take
			// millions of calls to cover the kernel's 3 ms deltas.
			elides := []bool{true}
			if epoch >= 50*Microsecond {
				elides = append(elides, false)
			}
			for _, elide := range elides {
				var order []int
				e := New()
				buildKernel(e, rand.New(rand.NewSource(seed)), &order, 0)
				if _, err := stepEngine(context.Background(), e, epoch, elide); err != nil {
					t.Fatal(err)
				}
				sameRun(t, fmt.Sprintf("seed %d epoch %v elide %v", seed, epoch, elide), order, refOrder, e, ref)
			}
		}
	}
}

// TestBarrierEquivalenceAcrossWorkers: four engines, each with its own
// random kernel, dispatch exactly what each engine's Run dispatches at
// 1 to 4 workers and three epoch lengths, in every mode. Run under
// -race, it is also the gate for engines handed between goroutines.
func TestBarrierEquivalenceAcrossWorkers(t *testing.T) {
	const shards = 4
	for _, mode := range forcedModes {
		t.Run(mode, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				refs := make([]*Engine, shards)
				refLogs := make([][]int, shards)
				for i := range refs {
					refs[i] = New()
					buildKernel(refs[i], rand.New(rand.NewSource(seed*100+int64(i))), &refLogs[i], i*1_000_000)
					refs[i].Run()
				}
				for _, epoch := range []Duration{1000, 50 * Microsecond, Millisecond} {
					for _, workers := range []int{1, 2, 3, 4} {
						engs := make([]*Engine, shards)
						logs := make([][]int, shards)
						for i := range engs {
							engs[i] = New()
							buildKernel(engs[i], rand.New(rand.NewSource(seed*100+int64(i))), &logs[i], i*1_000_000)
						}
						if _, err := drive(context.Background(), mode, engs, workers, epoch, true); err != nil {
							t.Fatal(err)
						}
						for s := range engs {
							what := fmt.Sprintf("%s seed %d epoch %v workers %d shard %d", mode, seed, epoch, workers, s)
							sameRun(t, what, logs[s], refLogs[s], engs[s], refs[s])
						}
					}
				}
			}
		})
	}
}

// burstEngines builds three engines that tick every 7 us through four
// 200 us bursts spread over 9.2 ms, with long silent gaps between.
func burstEngines() ([]*Engine, [][]int) {
	const shards = 3
	bursts := []Time{0, Time(Millisecond) + 13, Time(4*Millisecond) + 1, Time(9 * Millisecond)}
	engs := make([]*Engine, shards)
	logs := make([][]int, shards)
	for i := range engs {
		engs[i] = New()
		order := &logs[i]
		label, burst := i*1000, 0
		var tick Handler
		tick = func(e *Engine) {
			*order = append(*order, label)
			label++
			switch {
			case e.Now() < bursts[burst].Add(200*Microsecond):
				after(e, 7*Microsecond, tick)
			case burst+1 < len(bursts):
				burst++
				e.Schedule(bursts[burst].Add(Duration(i)), tick)
			}
		}
		engs[i].Schedule(Time(i), tick)
	}
	return engs, logs
}

// TestBarrierElisionMatchesFixed: skipping the epoch boundaries at
// which nothing is due must skip most of them in a sparse scenario
// while reproducing the dispatch sequence and clocks of stopping at
// every boundary, at 1 and 2 workers and in every mode.
func TestBarrierElisionMatchesFixed(t *testing.T) {
	epoch := 50 * Microsecond
	ctx := context.Background()
	refs, refLogs := burstEngines()
	for _, e := range refs {
		e.Run()
	}
	for _, mode := range forcedModes {
		t.Run(mode, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				var calls [2]int
				for k, elide := range []bool{false, true} {
					engs, logs := burstEngines()
					n, err := drive(ctx, mode, engs, workers, epoch, elide)
					if err != nil {
						t.Fatal(err)
					}
					calls[k] = n
					for s := range engs {
						sameRun(t, fmt.Sprintf("%s workers %d elide %v shard %d", mode, workers, elide, s), logs[s], refLogs[s], engs[s], refs[s])
					}
				}
				if calls[1]*4 > calls[0] {
					t.Errorf("%s workers %d: elision barely helped: %d boundaries, every boundary %d",
						mode, workers, calls[1], calls[0])
				}
			}
		})
	}
}

// tickEngines builds n engines that each dispatch one event every
// period until the clock passes until.
func tickEngines(n int, period Duration, until Time) []*Engine {
	engs := make([]*Engine, n)
	for i := range engs {
		e := New()
		var tick Handler
		tick = func(e *Engine) {
			if e.Now() < until {
				after(e, period, tick)
			}
		}
		e.Schedule(Time(i), tick)
		engs[i] = e
	}
	return engs
}

// TestBarrierWorkerError: an engine that cancels the shared context
// mid-epoch on a worker goroutine makes drive return the context's
// error after every worker has reported, with no engine run to its
// end, in each mode that reaches the workers.
func TestBarrierWorkerError(t *testing.T) {
	for _, mode := range []string{"parallel", "alternate"} {
		t.Run(mode, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			until := Time(Millisecond)
			engs := tickEngines(4, 10, until)
			n := 0
			var stop Handler
			stop = func(e *Engine) {
				if n++; n == 5 {
					cancel()
				}
				after(e, 10, stop)
			}
			engs[1].Schedule(0, stop)
			if _, err := drive(ctx, mode, engs, 2, Millisecond, true); err != context.Canceled {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			for i, e := range engs {
				if e.Now() >= until {
					t.Errorf("engine %d ran to %v after the cancellation", i, e.Now())
				}
			}
		})
	}
}

// TestBarrierRunCancelled: a context cancelled before the run starts
// stops RunContext at its first poll, after exactly ctxPollInterval
// dispatches, with the context's error — for two engines run one after
// the other and two run at once.
func TestBarrierRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, concurrent := range []bool{false, true} {
		engs := tickEngines(2, 10, Time(100*ctxPollInterval*10))
		errs := make([]error, len(engs))
		var wg sync.WaitGroup
		for i, e := range engs {
			run := func() { errs[i] = e.RunContext(ctx) }
			if !concurrent {
				run()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		for i, e := range engs {
			if errs[i] != context.Canceled {
				t.Errorf("concurrent %v engine %d: err = %v, want context.Canceled", concurrent, i, errs[i])
			}
			if e.Steps() != ctxPollInterval {
				t.Errorf("concurrent %v engine %d: %d dispatches, want %d", concurrent, i, e.Steps(), ctxPollInterval)
			}
		}
	}
}

// TestBarrierPrepareAndNextInput: inputs a feeder delivers across long
// silent gaps reach the right engine in order, follow-up work they
// schedule runs between them, and skipping the empty epochs crosses
// the 87 ms gap before the last input in one step rather than 1,740.
func TestBarrierPrepareAndNextInput(t *testing.T) {
	type input struct {
		at    Time
		label int
	}
	inputs := [][]input{
		{{at: 10, label: 1}, {at: Time(90 * Millisecond), label: 4}},
		{{at: 10, label: 2}, {at: Time(3 * Millisecond), label: 3}},
	}
	want := [][]int{{1, 4}, {2, -2, 3}}
	for _, mode := range forcedModes {
		for _, workers := range []int{1, 2} {
			engs := []*Engine{New(), New()}
			logs := make([][]int, len(engs))
			for s, e := range engs {
				idx, order := 0, &logs[s]
				e.SetFeeder(feederFunc{
					peek: func() (Time, int8, bool) {
						if idx >= len(inputs[s]) {
							return 0, 0, false
						}
						return inputs[s][idx].at, 1, true
					},
					fire: func(e *Engine) {
						in := inputs[s][idx]
						idx++
						*order = append(*order, in.label)
						if in.label == 2 {
							// Follow-up work several epochs out.
							after(e, 2*Millisecond, func(e *Engine) {
								*order = append(*order, -2)
							})
						}
					},
				})
			}
			n, err := drive(context.Background(), mode, engs, workers, 50*Microsecond, true)
			if err != nil {
				t.Fatal(err)
			}
			for s := range want {
				if len(logs[s]) != len(want[s]) {
					t.Fatalf("%s workers %d engine %d: got %v, want %v", mode, workers, s, logs[s], want[s])
				}
				for i := range want[s] {
					if logs[s][i] != want[s][i] {
						t.Fatalf("%s workers %d engine %d: got %v, want %v", mode, workers, s, logs[s], want[s])
					}
				}
			}
			if n > 8 {
				t.Errorf("%s workers %d: %d epoch boundaries for four inputs and one follow-up", mode, workers, n)
			}
		}
	}
}
