package sim

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", Nanosecond)
	}
	if Millisecond != 1e9 {
		t.Fatalf("Millisecond = %d, want 1e9", Millisecond)
	}
	if got := FromSeconds(1e-6); got != Microsecond {
		t.Fatalf("FromSeconds(1e-6) = %d, want %d", got, Microsecond)
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds = %g, want 2.5", got)
	}
}

// after schedules fn to run d after the engine's current instant.
func after(e *Engine, d Duration, fn Handler) EventID {
	return e.Schedule(e.Now().Add(d), fn)
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: got %d", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: got %d", d)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func(*Engine) { order = append(order, 3) })
	e.Schedule(10, func(*Engine) { order = append(order, 1) })
	e.Schedule(20, func(*Engine) { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(42, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-instant events fired out of scheduling order: %v", order)
	}
}

func TestPriorityBeatsSeq(t *testing.T) {
	e := New()
	var order []string
	e.SchedulePrio(5, 1, func(*Engine) { order = append(order, "timer") })
	e.SchedulePrio(5, 0, func(*Engine) { order = append(order, "arrival") })
	e.Run()
	if len(order) != 2 || order[0] != "arrival" || order[1] != "timer" {
		t.Fatalf("priority ordering broken: %v", order)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(100, func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func(*Engine) {})
}

func TestScheduleNilPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	id := e.Schedule(10, func(*Engine) { fired = true })
	if !id.Valid() {
		t.Fatal("id should be valid before firing")
	}
	if !e.Cancel(id) {
		t.Fatal("first cancel should succeed")
	}
	if e.Cancel(id) {
		t.Fatal("second cancel should fail")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New()
	id := e.Schedule(10, func(*Engine) {})
	e.Run()
	if id.Valid() {
		t.Fatal("id still valid after firing")
	}
	if e.Cancel(id) {
		t.Fatal("cancel after fire should be a no-op")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []int
	var ids []EventID
	for i := 0; i < 20; i++ {
		i := i
		ids = append(ids, e.Schedule(Time(i*10), func(*Engine) { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		e.Cancel(ids[i])
	}
	e.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("remaining events out of order: %v", got)
	}
}

// TestAfter schedules from inside a handler relative to the instant
// the handler runs at.
func TestAfter(t *testing.T) {
	e := New()
	var at Time
	e.Schedule(100, func(e *Engine) {
		e.Schedule(e.Now().Add(25), func(e *Engine) { at = e.Now() })
	})
	e.Run()
	if at != 125 {
		t.Fatalf("follow-up fired at %v, want 125", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func(*Engine) { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v after second run", fired)
	}
	// The queue drained before the limit, so the clock stays at the
	// last event.
	if e.Now() != 40 {
		t.Fatalf("clock after draining = %v, want 40", e.Now())
	}
}

func TestSteps(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func(*Engine) {})
	}
	e.Run()
	if e.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", e.Steps())
	}
}

func TestSelfRescheduling(t *testing.T) {
	e := New()
	count := 0
	var tick Handler
	tick = func(e *Engine) {
		count++
		if count < 100 {
			after(e, 10, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 990 {
		t.Fatalf("clock = %v, want 990", e.Now())
	}
}

// Property: events fire in nondecreasing time order regardless of the
// order in which they were scheduled.
func TestQuickOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			e.Schedule(at, func(e *Engine) { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement to
// fire, still in order.
func TestQuickCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		fired := map[int]bool{}
		ids := make([]EventID, n)
		for i := 0; i < int(n); i++ {
			i := i
			ids[i] = e.Schedule(Time(rng.Intn(1000)), func(*Engine) { fired[i] = true })
		}
		cancelled := map[int]bool{}
		for i := 0; i < int(n); i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(ids[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < int(n); i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		var tick Handler
		n := 0
		tick = func(e *Engine) {
			n++
			if n < 1000 {
				after(e, 10, tick)
			}
		}
		e.Schedule(0, tick)
		e.Run()
	}
}

// TestCancelThenFireSameInstant cancels one of two events scheduled at
// the same instant from inside the first: the cancelled event must not
// fire even though it was already due.
func TestCancelThenFireSameInstant(t *testing.T) {
	e := New()
	fired := false
	var victim EventID
	e.SchedulePrio(10, 0, func(e *Engine) {
		if !e.Cancel(victim) {
			t.Error("cancel of same-instant pending event failed")
		}
	})
	victim = e.SchedulePrio(10, 1, func(*Engine) { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled at its own instant still fired")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

// TestStaleIDAfterRecycle checks the generation guard on pooled event
// objects: after an event fires, its object is recycled for the next
// Schedule, and the stale ID must read invalid — and Cancel through it
// must be a no-op that leaves the recycled object's new event intact.
func TestStaleIDAfterRecycle(t *testing.T) {
	e := New()
	stale := e.Schedule(1, func(*Engine) {})
	e.Run()
	if stale.Valid() {
		t.Fatal("id valid after its event fired")
	}

	// The next schedule reuses the pooled object.
	fired := false
	fresh := e.Schedule(2, func(*Engine) { fired = true })
	if fresh.ev != stale.ev {
		t.Fatalf("expected pooled reuse: fresh.ev=%p stale.ev=%p", fresh.ev, stale.ev)
	}
	if stale.Valid() {
		t.Fatal("stale id became valid again when its object was reused")
	}
	if e.Cancel(stale) {
		t.Fatal("cancel through a stale id succeeded")
	}
	if !fresh.Valid() {
		t.Fatal("stale cancel corrupted the recycled object's new event")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled object's new event did not fire")
	}
}

// TestZeroAllocSteadyState is the allocation guard for the pooled hot
// path: once the free list and heap slice are warm, a steady-state
// schedule/cancel/fire cycle must not allocate at all.
func TestZeroAllocSteadyState(t *testing.T) {
	e := New()
	// Handlers are created once; creating a closure inside the measured
	// loop would itself allocate.
	noop := Handler(func(*Engine) {})
	var tick Handler
	tick = func(e *Engine) {
		if e.Pending() == 0 {
			after(e, 10, tick)
			after(e, 10, noop)
		}
	}
	// Warm the pool and the heap backing array.
	for i := 0; i < 64; i++ {
		after(e, Duration(i+1), noop)
	}
	victim := after(e, 1000, noop)
	e.Cancel(victim)
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		id := after(e, 5, noop)
		e.Cancel(id)
		after(e, 10, tick)
		after(e, 10, noop)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state dispatch allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestEngineGoroutineIsolation exercises the package's ownership
// contract: one Engine per goroutine, engines sharing no state. Many
// goroutines each run an identical event cascade on a private engine;
// under -race this proves isolation, and the identical outcomes prove
// that concurrency does not perturb determinism.
func TestEngineGoroutineIsolation(t *testing.T) {
	type outcome struct {
		steps uint64
		now   Time
		order string
	}
	run := func() outcome {
		e := New()
		var order []byte
		// A cascade with same-instant priorities, cancellation and
		// follow-up scheduling — every kernel feature in one script.
		e.SchedulePrio(10, 1, func(e *Engine) { order = append(order, 'b') })
		e.SchedulePrio(10, 0, func(e *Engine) {
			order = append(order, 'a')
			after(e, 5, func(e *Engine) { order = append(order, 'd') })
		})
		victim := e.Schedule(12, func(e *Engine) { order = append(order, 'x') })
		e.Schedule(11, func(e *Engine) {
			order = append(order, 'c')
			e.Cancel(victim)
		})
		e.Run()
		return outcome{steps: e.Steps(), now: e.Now(), order: string(order)}
	}

	want := run()
	if want.order != "abcd" {
		t.Fatalf("reference order = %q, want abcd", want.order)
	}
	const goroutines = 16
	got := make([]outcome, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	for i, o := range got {
		if o != want {
			t.Errorf("goroutine %d: outcome %+v != reference %+v", i, o, want)
		}
	}
}
