// Package sim provides a small deterministic discrete-event simulation
// kernel used by every timing model in this repository.
//
// Time is kept as an integer number of picoseconds so that the memory
// cycle of a 1600 MHz RDRAM part (625 ps), the 8-byte service time of a
// DMA-memory request (4 cycles = 2500 ps) and the PCI-X inter-arrival
// gap (12 cycles = 7500 ps) are all exact.
//
// Events scheduled for the same instant fire in the order of a
// secondary priority and, within equal priority, in scheduling order,
// which makes simulations bit-reproducible across runs.
//
// # Scheduler
//
// The engine's pending-event store is a hierarchical timer wheel (see
// wheel.go) whose schedule, cancel and fire operations are amortized
// O(1). The engine calls it directly, with no interface between them.
// The package's tests keep a reference binary heap as an oracle and
// drive both stores through the same random operation sequence, so the
// wheel is held to the heap's (time, priority, scheduling-order)
// dispatch sequence.
//
// # Feeders
//
// Trace-driven models deliver millions of externally ordered arrivals.
// Scheduling each one as an engine event pays a schedule/fire round
// trip per arrival; a Feeder instead exposes the arrival cursor to the
// run loop, which merges it with the event queue and dispatches
// whichever comes first. Arrivals never enter the scheduler at all.
// See SetFeeder.
//
// # Ownership contract
//
// An Engine and every model scheduled on it belong to a single
// goroutine. The kernel takes no locks: Schedule, Cancel, Run and Step
// mutate the event store directly, and handlers run synchronously
// inside Run on the calling goroutine. Sharing one Engine between
// goroutines is a data race by construction.
//
// Distinct engines share no state at all, so parallel experiments run
// one independent Engine per goroutine — one simulation per job —
// which keeps every run bit-reproducible regardless of how many run
// concurrently (see internal/experiments.Runner).
package sim

import (
	"context"
	"fmt"
	"time"
)

// Time is an absolute simulation instant in picoseconds.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common time units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts a duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e12 }

// FromSeconds converts floating-point seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * 1e12) }

// FromStd converts a time.Duration to a Duration, exactly.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) * Nanosecond }

func (t Time) String() string     { return fmt.Sprintf("%.3fus", float64(t)/1e6) }
func (d Duration) String() string { return fmt.Sprintf("%.3fus", float64(d)/1e6) }

// Handler is the callback run when an event fires. It receives the
// engine so it can schedule follow-up events.
type Handler func(e *Engine)

// event is a pending callback in the engine's event store. Event
// objects are pooled per engine: firing or cancelling returns the
// object to a free list, and the next Schedule reuses it, so the
// steady-state dispatch loop performs no heap allocation.
type event struct {
	at    Time
	prio  int8   // ties broken by priority, then by seq
	seq   uint64 // strictly increasing scheduling order
	index int    // >= 0 while pending (the test heap's position); -1 once removed.
	gen   uint64 // bumped on every recycle; stale EventIDs miscompare
	fn    Handler

	// Timer-wheel bucket membership (intrusive doubly-linked chain).
	next, prev  *event
	level, slot int8
}

// less orders events by (time, priority, scheduling order) — the total
// dispatch order of the wheel and of the test heap.
func (ev *event) less(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	if ev.prio != o.prio {
		return ev.prio < o.prio
	}
	return ev.seq < o.seq
}

// EventID identifies a scheduled event so it can be cancelled. The ID
// carries the generation of the event object it was issued for, so an
// ID kept across the event's firing (after which the object may be
// recycled for an unrelated event) safely reports invalid instead of
// cancelling the object's new occupant.
type EventID struct {
	ev  *event
	gen uint64
}

// Valid reports whether the event is still pending.
func (id EventID) Valid() bool {
	return id.ev != nil && id.ev.gen == id.gen && id.ev.index >= 0
}

// Feeder is a pull-based source of externally ordered events — a trace
// cursor, typically — that the run loop merges with the event store.
// Peek returns the instant and same-instant priority of the source's
// next batch (ok=false once exhausted); Fire delivers every record due
// at exactly Now and advances the cursor. The run loop dispatches the
// feeder when its (instant, priority) sorts strictly before the
// earliest queued event, so a feeder must use a priority no queued
// event shares at the same instant for the merge order to be fully
// determined (ties go to the queue). Peek must be nondecreasing and
// never return an instant before the engine clock.
type Feeder interface {
	Peek() (at Time, prio int8, ok bool)
	Fire(e *Engine)
}

// Engine is a single-threaded discrete-event simulation loop.
// The zero value is not usable; call New.
//
// An Engine is owned by exactly one goroutine: none of its methods are
// safe for concurrent use. Run simulations in parallel by giving each
// goroutine its own Engine — engines share no state, so concurrent
// runs are fully isolated and each remains deterministic.
type Engine struct {
	now    Time
	wheel  *wheel
	feeder Feeder
	free   []*event // recycled event objects, see event
	seq    uint64
	steps  uint64
}

// New returns an engine with the clock at zero, backed by the
// hierarchical timer wheel (amortized O(1) schedule/cancel/fire).
func New() *Engine { return &Engine{wheel: newWheel()} }

// Now returns the current simulation instant.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many dispatches have run: fired events plus feeder
// batches (one batch per distinct instant).
func (e *Engine) Steps() uint64 { return e.steps }

// SetFeeder attaches a pull-based event source to the run loop. Pass
// nil to detach. At most one feeder can be attached.
func (e *Engine) SetFeeder(f Feeder) { e.feeder = f }

// Schedule arranges for fn to run at instant at. Scheduling in the past
// panics: it is always a model bug.
func (e *Engine) Schedule(at Time, fn Handler) EventID {
	return e.SchedulePrio(at, 0, fn)
}

// SchedulePrio schedules with an explicit same-instant priority; lower
// priorities fire first. Model layers use this to guarantee, e.g., that
// request arrivals are observed before policy timers at the same tick.
func (e *Engine) SchedulePrio(at Time, prio int8, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil handler")
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.prio, ev.seq, ev.fn = at, prio, e.seq, fn
	e.wheel.schedule(ev)
	return EventID{ev, ev.gen}
}

// recycle returns a no-longer-pending event object to the free list.
// Bumping the generation invalidates every EventID issued for the
// object's previous occupancy.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (e *Engine) Cancel(id EventID) bool {
	if !id.Valid() {
		return false
	}
	e.wheel.unlink(id.ev)
	e.recycle(id.ev)
	return true
}

// Pending reports the number of queued events (feeder records are not
// queued and do not count).
func (e *Engine) Pending() int { return e.wheel.len() }

// Run dispatches events until the queue and feeder drain.
func (e *Engine) Run() {
	e.RunUntil(Time(1<<62 - 1))
}

// RunContext dispatches like Run but polls ctx every few thousand
// dispatches and returns its error once cancelled. Polling does not
// perturb the simulation: a run that is never cancelled is
// bit-identical to Run.
func (e *Engine) RunContext(ctx context.Context) error {
	return e.runUntil(ctx, Time(1<<62-1))
}

// RunUntil dispatches events with instants <= limit. The clock is left
// at the last dispatched event (or limit if nothing fired after it).
func (e *Engine) RunUntil(limit Time) {
	e.runUntil(nil, limit)
}

// next selects the earliest pending dispatch: the scheduler's minimum
// event, or the feeder's batch when its (instant, priority) sorts
// strictly first. useFeeder=true means the feeder fires next, at fat,
// so the caller need not peek the feeder again.
func (e *Engine) next() (ev *event, fat Time, useFeeder bool) {
	ev = e.wheel.peekMin()
	if e.feeder != nil {
		if at, fprio, ok := e.feeder.Peek(); ok {
			if ev == nil || at < ev.at || (at == ev.at && fprio < ev.prio) {
				return nil, at, true
			}
		}
	}
	return ev, 0, false
}

// ctxPollInterval is how many dispatches pass between ctx.Err() checks
// in RunContext: rare enough to stay off the profile, frequent enough
// that cancellation lands within microseconds of wall time.
const ctxPollInterval = 8192

// runUntil dispatches events with instants <= limit, polling ctx (when
// not nil) every ctxPollInterval dispatches. A run that is never
// cancelled is bit-identical to one with a nil ctx.
func (e *Engine) runUntil(ctx context.Context, limit Time) error {
	var sincePoll uint
	for {
		ev, fat, useFeeder := e.next()
		if useFeeder {
			if fat > limit {
				break
			}
			e.now = fat
			e.steps++
			e.feeder.Fire(e)
		} else {
			if ev == nil || ev.at > limit {
				break
			}
			e.wheel.fire(ev)
			e.now = ev.at
			e.steps++
			fn := ev.fn
			e.recycle(ev)
			fn(e)
		}
		if ctx != nil {
			if sincePoll++; sincePoll >= ctxPollInterval {
				sincePoll = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
	if e.now < limit && e.wheel.len() == 0 && !e.feederPending() {
		// Queue drained naturally: clock stays at last event.
		return nil
	}
	if e.now < limit {
		e.now = limit
	}
	return nil
}

// feederPending reports whether an attached feeder still has records.
func (e *Engine) feederPending() bool {
	if e.feeder == nil {
		return false
	}
	_, _, ok := e.feeder.Peek()
	return ok
}
