// Conservative parallel discrete-event execution. A BarrierEngine owns
// several independent Engines — one per memory channel in this
// repository — and drives them through bulk-synchronous epochs: within
// an epoch every shard dispatches its own events with no shared state
// (on the caller's goroutine or a worker's, see dispatch.go), and
// cross-shard interaction happens only in the caller's barrier hooks,
// which run single-threaded between epochs. Because the epoch grid is
// a pure function of simulated time and the shards never observe each
// other mid-epoch, the dispatch sequence of every shard is identical
// at any worker count — the parallelism is conservative in the PDES
// sense, and determinism holds by construction rather than by luck of
// scheduling.
//
// # Barrier elision
//
// A rendezvous is only useful when the barrier hooks could do
// something: exchange state that actually changed. When the caller can
// prove, from the global state visible at a rendezvous, a lower bound
// on the next instant at which any cross-shard-visible state may
// change (the CrossAt hook), every epoch boundary strictly before that
// bound is a provable no-op and the shards can run straight through it
// in one chunk. The epoch grid itself never moves: an elided span
// always ends on the same [k*E, (k+1)*E) grid a fixed-epoch run uses
// (or earlier, at a CapEnd observation instant), so the set of
// boundaries where state is actually exchanged — and therefore every
// shard's dispatch sequence — is identical whether or not any no-op
// boundary was skipped, at any span cap, at any worker count. Elision
// changes wall-clock time only; see docs/ARCHITECTURE.md for the full
// determinism argument.
package sim

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// MaxTime is the open-ended run limit shared with Engine.Run: the
// largest instant the engines schedule or run to.
const MaxTime = Time(1<<62 - 1)

// maxTime is retained for the kernel internals.
const maxTime = MaxTime

// BarrierHooks are the caller's epoch-boundary callbacks. All fields
// are optional; the zero value runs the classic fixed-epoch protocol.
type BarrierHooks struct {
	// NextInput reports the instant of the earliest external input not
	// yet delivered to any shard (a trace cursor's head, typically), so
	// the epoch loop does not skip past epochs whose only activity is
	// new input. ok=false once the source is exhausted.
	NextInput func() (Time, bool)
	// Prepare runs single-threaded before the shards execute the span
	// ending at end (inclusive). Use it to stage external inputs due
	// within the span into per-shard structures.
	Prepare func(end Time) error
	// CrossAt reports a conservative lower bound on the next instant at
	// which any cross-shard-visible state may change: a completion that
	// alters bus demand, an arrival that creates a flow, a timer that
	// can release gated work. Epoch boundaries strictly before the
	// bound are provable no-ops and are elided: the shards run through
	// them without a rendezvous, directly to the inclusive end of the
	// epoch containing the bound. ok=false means no bound is available
	// for this span (the run falls back to one epoch per rendezvous).
	// The hook runs single-threaded at a rendezvous, so it may read any
	// shard's state. Nil disables elision entirely.
	CrossAt func() (Time, bool)
	// SpanCap bounds how many consecutive epochs one elided span may
	// cover, so staging buffers stay bounded; stall is the fraction of
	// recent wall time spent running the shards rather than the hooks
	// (a dynamic-sizing input; 0 with one worker, and the same whether
	// the spans ran inline or on the workers). Returning a value <= 1
	// disables elision for the span. Nil leaves spans unbounded.
	SpanCap func(stall float64) int
	// CapEnd clamps a proposed span end to the next global observation
	// instant (a layout-rebalance boundary, say). The returned value
	// must not exceed end; values below the shards' clocks are allowed
	// and produce an empty span that still rendezvouses at the instant.
	CapEnd func(end Time) Time
	// Observe runs single-threaded after every shard has reached end,
	// before Barrier: the epoch-synchronized global observation stage.
	// Use it to fold per-shard observations (idle-gap samples, layout
	// residency) into a coherent global view.
	Observe func(end Time) error
	// Barrier runs single-threaded after Observe. This is the place
	// cross-shard state may be exchanged: bandwidth re-allocation,
	// slack settlement, anything that reads or writes more than one
	// shard.
	Barrier func(end Time) error
	// Work reports how much input the last Prepare staged for the span
	// about to run (trace records, say). It is a cost hint only: the
	// engine compares the dispatch modes' wall time per unit of work,
	// so spans of different sizes are comparable, to decide whether
	// handing a span to other goroutines pays. Nil counts every span
	// as zero work.
	Work func() int
}

// BarrierStats counts the synchronization work a run performed; the
// adaptive-epoch benchmarks read it to verify elision actually
// happened. Wall-clock dependent inputs (the stall fraction, the
// dispatch cost estimates) influence only which provable no-op
// boundaries are skipped and which goroutine runs a shard, so the
// stats may vary run to run while the simulation results cannot.
type BarrierStats struct {
	// Rendezvous is the number of spans executed: every one ends with
	// all shards synchronized at the same instant.
	Rendezvous int64
	// ElidedEpochs is the number of epoch boundaries skipped inside
	// elided spans. Wall-clock dependent (through SpanCap's stall
	// input): never pin it in a golden.
	ElidedEpochs int64
	// ParallelSpans is the number of spans handed to worker goroutines
	// instead of run inline on the caller's. Wall-clock dependent
	// (the dispatch chooser measures which mode is cheaper): never pin
	// it in a golden.
	ParallelSpans int64
}

// BarrierEngine drives a set of shard Engines in deterministic
// epoch-barrier lockstep. Construct with NewBarrierEngine.
type BarrierEngine struct {
	shards  []*Engine
	epoch   Duration
	workers int

	stats BarrierStats

	// Span dispatch (dispatch.go): the extra workers' start channels,
	// their shared completion channel, and the chooser's state.
	starts   []chan Time
	done     chan error
	workerWG sync.WaitGroup
	mode     DispatchMode
	flip     bool
	cost     spanCost

	// Stall measurement for the SpanCap hook: wall time spent running
	// spans (more than one worker only) since the last SpanCap query.
	lastQuery time.Time
	spanAcc   time.Duration
}

// NewBarrierEngine builds a barrier engine over the given shards.
// epoch is the barrier period in simulated time; workers is the most
// goroutines that execute shards within a span, the caller's included
// (clamped to the shard count; 1 means the shards always run inline
// on the caller's goroutine). Spans too short for a handoff to pay run
// inline whatever the count (see runSpan). Results are independent of
// workers by construction.
func NewBarrierEngine(shards []*Engine, epoch Duration, workers int) (*BarrierEngine, error) {
	switch {
	case len(shards) == 0:
		return nil, fmt.Errorf("sim: barrier engine needs at least one shard")
	case epoch <= 0:
		return nil, fmt.Errorf("sim: barrier epoch %v must be positive", epoch)
	case workers < 1:
		return nil, fmt.Errorf("sim: barrier workers %d must be at least 1", workers)
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("sim: barrier shard %d is nil", i)
		}
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	return &BarrierEngine{shards: shards, epoch: epoch, workers: workers}, nil
}

// Workers returns the effective worker count after clamping.
func (b *BarrierEngine) Workers() int { return b.workers }

// Stats returns the synchronization counters accumulated so far. Call
// after Run returns (the counters are owned by Run's goroutine).
func (b *BarrierEngine) Stats() BarrierStats { return b.stats }

// nextAt returns the earliest pending instant across every shard and
// the external input source.
func (b *BarrierEngine) nextAt(hooks BarrierHooks) (Time, bool) {
	var at Time
	ok := false
	for _, s := range b.shards {
		if t, o := s.nextAt(); o && (!ok || t < at) {
			at, ok = t, true
		}
	}
	if hooks.NextInput != nil {
		if t, o := hooks.NextInput(); o && (!ok || t < at) {
			at, ok = t, true
		}
	}
	return at, ok
}

// epochEnd maps an instant to the inclusive end of the epoch holding
// it: epoch k covers [k*E, (k+1)*E), and integer picoseconds make the
// exclusive upper bound exactly representable as (k+1)*E - 1. Empty
// epochs are skipped for free because the grid is derived from the
// next pending instant, not walked one period at a time.
func (b *BarrierEngine) epochEnd(at Time) Time {
	if at < 0 {
		at = 0
	}
	k := at / Time(b.epoch)
	end := (k+1)*Time(b.epoch) - 1
	if end < at || end > maxTime {
		return maxTime // epoch grid overflow: one final open-ended chunk
	}
	return end
}

// spanLimit is the farthest inclusive end a span starting in at's
// epoch may reach under a cap of that many epochs.
func (b *BarrierEngine) spanLimit(at Time, cap int) Time {
	if at < 0 {
		at = 0
	}
	k := at / Time(b.epoch)
	limit := (k+Time(cap))*Time(b.epoch) - 1
	if limit < at || limit > maxTime {
		return maxTime
	}
	return limit
}

// spanEnd extends the fixed-grid end of the epoch holding at through
// every provably idle epoch boundary, per the CrossAt contract.
func (b *BarrierEngine) spanEnd(at Time, hooks BarrierHooks) Time {
	end := b.epochEnd(at)
	if hooks.CrossAt == nil || end == maxTime {
		return end
	}
	cross, ok := hooks.CrossAt()
	if !ok || cross <= end {
		return end
	}
	span := b.epochEnd(cross)
	if hooks.SpanCap != nil {
		cap := hooks.SpanCap(b.stallFraction())
		if cap <= 1 {
			return end
		}
		if limit := b.spanLimit(at, cap); span > limit {
			span = limit
		}
	}
	if span > end {
		if span < maxTime {
			b.stats.ElidedEpochs += int64((span - end) / Time(b.epoch))
		}
		end = span
	}
	return end
}

// stallFraction reports the share of wall time since the previous call
// that the coordinating goroutine spent in spans, running its own
// shards or waiting for the workers' ones, rather than in the hooks
// between them: the time a rendezvous holds every worker. With one
// worker it is always 0. It does not depend on whether a span ran
// inline or on the workers (see runSpan), so the span caps do not
// depend on the dispatch mode. Purely an efficiency signal: it feeds
// SpanCap, whose output only selects among provable no-op boundaries
// to skip, so wall-clock jitter cannot reach simulation results.
func (b *BarrierEngine) stallFraction() float64 {
	now := time.Now()
	if b.lastQuery.IsZero() {
		b.lastQuery = now
		b.spanAcc = 0
		return 0
	}
	total := now.Sub(b.lastQuery)
	wait := b.spanAcc
	b.lastQuery = now
	b.spanAcc = 0
	if total <= 0 || wait <= 0 {
		return 0
	}
	f := float64(wait) / float64(total)
	if f > 1 {
		f = 1
	}
	return f
}

// Run executes epoch spans until every shard and the input source
// drain, or ctx is cancelled. Each span: pick the next pending
// instant, extend its epoch end through provably idle boundaries
// (CrossAt/SpanCap), clamp to the next observation instant (CapEnd),
// Prepare, then every shard runs to the span end (inline or split
// across the workers, see runSpan; a shard itself is never shared
// between goroutines), then Observe, then Barrier. Handlers and hooks
// may schedule freely into their own shard; Observe and Barrier may
// schedule into any shard at instants >= that shard's clock.
func (b *BarrierEngine) Run(ctx context.Context, hooks BarrierHooks) error {
	b.startWorkers(ctx)
	defer b.stopWorkers()
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		at, ok := b.nextAt(hooks)
		if !ok {
			return nil
		}
		end := b.spanEnd(at, hooks)
		if hooks.CapEnd != nil {
			if c := hooks.CapEnd(end); c < end {
				end = c
			}
		}
		if hooks.Prepare != nil {
			if err := hooks.Prepare(end); err != nil {
				return err
			}
		}
		work := 0
		if hooks.Work != nil {
			work = hooks.Work()
		}
		if err := b.runSpan(ctx, end, work); err != nil {
			return err
		}
		b.stats.Rendezvous++
		if hooks.Observe != nil {
			if err := hooks.Observe(end); err != nil {
				return err
			}
		}
		if hooks.Barrier != nil {
			if err := hooks.Barrier(end); err != nil {
				return err
			}
		}
	}
}
