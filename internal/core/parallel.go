// Parallel run assembly: one event loop per topology channel, driven
// in deterministic epoch-barrier lockstep by internal/sim's
// BarrierEngine (Config.Workers > 0).
//
// Each channel gets its own sim.Engine and its own channel-partitioned
// controller; within an epoch a shard touches only its own chips,
// flows, timers and slack pool, so shards share no state and the
// worker count cannot affect results. Cross-channel state is exchanged
// single-threaded between epochs: the shared I/O-bus bandwidth is
// re-split with a demand-weighted max-min share (bus.EpochShares +
// Controller.Resync) in the Barrier stage, while the Observe stage
// folds per-partition observations into a coherent global view at the
// same instant — idle-gap samples are replayed to the master adaptive
// policy in global time order, and the shared page layout rebalances
// over the union of every partition's busy set. That observation stage
// is what lets PL and gap-observing policies run on multi-channel
// parallel topologies.
//
// Barriers are adaptive by default: at each rendezvous the core
// computes a conservative lower bound on the next instant any
// partition's bus demand can change (controller lookahead + the trace
// cursors' next relevant arrival) and lets the shards run through
// every provably idle epoch boundary in one span, capped by a
// controller that widens while re-split churn is low or barrier stall
// is high and narrows when shares are actually moving. Only provably
// no-op boundaries are ever skipped, so results are bit-identical to
// the fixed-epoch reference (Config.FixedEpoch) at any span cap and
// any worker count; see docs/ARCHITECTURE.md for the argument.
//
// With a single channel the barrier engine degenerates to the serial
// engine — executed as one open-ended span under the adaptive barrier,
// or in epoch-sized chunks under FixedEpoch — and reports are
// bit-identical to the serial reference (the golden corpus cross-check
// in internal/experiments holds both paths to it). With multiple
// channels the epoch-barrier bus coupling IS the semantics: the serial
// engine reallocates globally at event granularity, which no
// conservative parallel schedule can reproduce, so multi-channel
// parallel runs are their own scheme — deterministic,
// worker-count-invariant, and cross-checked 2-and-4-workers-vs-1
// instead. Channel-spanning DMA records are split into
// channel-homogeneous sub-transfers that proceed concurrently (the
// serial engine walks them sequentially); Transfers and service-time
// stats count the sub-transfers. Gap-observing policies see their
// observations merged at barrier granularity and serve thresholds from
// per-partition replicas that may lag the master by one span — also
// part of the multi-channel scheme, and also worker-count invariant.
package core

import (
	"context"
	"fmt"

	"dmamem/internal/bus"
	"dmamem/internal/controller"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/metrics"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// defaultBarrierEpoch balances synchronization overhead against how
// stale a partition's bus share may grow: 50 us is a few dozen
// transfer service times at PCI-X rates.
const defaultBarrierEpoch = 50 * sim.Microsecond

// defaultMaxEpochSpan is the adaptive barrier's span ceiling (see
// Config.MaxEpochSpan): at the default epoch it lets shards run up to
// 12.8 ms between rendezvous, while bounding how many trace records
// the staging buffers may hold.
const defaultMaxEpochSpan = 256

// spanController adapts the elision span cap between 1 epoch and the
// ceiling from two signals: the re-split churn (how often the
// demand-weighted bus shares actually changed at recent rendezvous)
// and the barrier-stall fraction: the share of wall time the engine
// spends inside spans rather than between them, whichever goroutines
// ran them (0 with one worker). High churn means shares are moving
// and spans should hug the epoch grid; low churn or high stall means
// barriers are pure overhead and spans should widen. The cap only selects among epoch
// boundaries already proven no-ops by the cross lookahead, so any cap
// sequence — including one driven by wall-clock noise — yields
// bit-identical results; the controller tunes wall-clock time only.
type spanController struct {
	cap     int
	ceiling int
	churn   float64 // EWMA of "shares changed at this rendezvous"
}

func newSpanController(ceiling int) *spanController {
	start := 8
	if start > ceiling {
		start = ceiling
	}
	return &spanController{cap: start, ceiling: ceiling}
}

// noteResplit feeds one rendezvous outcome into the churn estimate.
// Churn is a per-simulated-epoch rate, not a per-rendezvous rate:
// rendezvous only happen where something was pending, so sampling them
// alone would overcount — a workload with one genuine re-split every
// 40 quiet epochs would look like 100% churn and wrongly pin the span
// cap at 1. The epochs covered since the previous rendezvous therefore
// enter the EWMA as unchanged samples ahead of this rendezvous's
// outcome (they rendezvoused nothing, so no shares moved there).
func (s *spanController) noteResplit(changed bool, epochs int64) {
	for ; epochs > 1; epochs-- {
		s.churn *= 0.9
		if s.churn < 1e-6 {
			s.churn = 0
			break
		}
	}
	v := 0.0
	if changed {
		v = 1
	}
	s.churn = 0.9*s.churn + 0.1*v
}

// spanCap implements sim.BarrierHooks.SpanCap.
func (s *spanController) spanCap(stall float64) int {
	switch {
	case s.churn > 0.5 && s.cap > 1:
		s.cap /= 2
	case s.cap < s.ceiling && (s.churn < 0.1 || stall > 0.25):
		s.cap *= 2
		if s.cap > s.ceiling {
			s.cap = s.ceiling
		}
	}
	return s.cap
}

// timedGap is one buffered idle-gap observation.
type timedGap struct {
	at  sim.Time
	gap sim.Duration
}

// gapRecorder is the per-partition stand-in for a gap-observing
// policy: threshold queries are served by the partition's replica
// (policy.Replicable) while completed idle gaps are buffered with
// their instants. The barrier's Observe stage replays all partitions'
// buffers to the master policy in global time order and re-syncs every
// replica — the epoch-synchronized global observation that lets
// adaptive policies run on multi-channel parallel topologies.
type gapRecorder struct {
	policy.Policy // the replica: serves NextStep/Name
	buf           []timedGap
	pos           int
}

// ObserveGapAt implements policy.TimedGapObserver; the controller
// prefers it over plain ObserveGap.
func (g *gapRecorder) ObserveGapAt(at sim.Time, gap sim.Duration) {
	g.buf = append(g.buf, timedGap{at: at, gap: gap})
}

// ValidateForModel forwards the model check to the replica, so
// wrapping does not hide policy.ModelValidator from controller.New.
func (g *gapRecorder) ValidateForModel(m *energy.Model) error {
	if v, ok := g.Policy.(policy.ModelValidator); ok {
		return v.ValidateForModel(m)
	}
	return nil
}

// parallelRun is the assembled shard set plus the barrier-side bus
// bookkeeping and the adaptive-barrier state.
type parallelRun struct {
	cfg      Config
	channels int
	engs     []*sim.Engine
	ctls     []*controller.Controller

	// Bus-share state (channels > 1): fullCaps is every bus at full
	// bandwidth; shares holds each partition's current allocation,
	// counts and next are barrier scratch.
	fullCaps []float64
	shares   [][]float64
	counts   [][]int
	next     [][]float64

	// span adapts the elision cap (channels > 1, adaptive mode);
	// epochLen and lastEnd turn rendezvous spacing into the elapsed
	// simulated epochs the churn rate is normalized by.
	span     *spanController
	epochLen sim.Duration
	lastEnd  sim.Time

	// Gap-observing policy replication (channels > 1 only).
	gapObserving bool
	gapMaster    policy.GapObserver
	gapRepl      policy.Replicable
	gapRecs      []*gapRecorder

	// Shared-layout (PL) rebalance state (channels > 1 only): the
	// serial engine runs rebalances as priority-5 ticks; here they are
	// forced rendezvous instants executed in the Observe stage.
	lm          *layout.Manager
	rebInterval sim.Duration
	nextReb     sim.Time
	rebEnd      sim.Time
	busy        []bool // page bitmap: union of the partitions' in-flight pages
	isBusy      func(memsys.PageID) bool

	// arrivals holds every undelivered trace record (channels > 1):
	// the shards' staging cursors, then the run's cursor with the
	// records not staged yet. nextArrival reads it.
	arrivals []*trace.Cursor
}

// channelOfPage resolves the channel serving a page under the
// controller's resolved mapping. The returned closure reads the
// mapping at call time, so under PL it tracks migrations: stage-time
// routing is correct because spans never cross a rebalance instant
// (the CapEnd hook forces a rendezvous there).
func channelOfPage(cfg Config, mapper memsys.Mapper) func(memsys.PageID) int {
	geo := cfg.Geometry
	topo := cfg.Topology
	return func(p memsys.PageID) int {
		return topo.ChannelOfChip(geo, mapper.ChipOf(p))
	}
}

// newParallelRun builds the per-channel engines and partitioned
// controllers from the serial controller config template.
func newParallelRun(cfg Config, ccfg controller.Config) (*parallelRun, error) {
	if cfg.PerEventFeeder {
		return nil, fmt.Errorf("core: Workers and PerEventFeeder are mutually exclusive; the parallel engine feeds every shard through the batched feeder")
	}
	if cfg.BarrierEpoch < 0 {
		return nil, fmt.Errorf("core: BarrierEpoch %v is negative", cfg.BarrierEpoch)
	}
	if cfg.MaxEpochSpan < 0 {
		return nil, fmt.Errorf("core: MaxEpochSpan %d is negative", cfg.MaxEpochSpan)
	}
	channels := cfg.Topology.NumChannels()
	p := &parallelRun{cfg: cfg, channels: channels}
	ceiling := cfg.MaxEpochSpan
	if ceiling == 0 {
		ceiling = defaultMaxEpochSpan
	}
	p.span = newSpanController(ceiling)
	p.epochLen = cfg.BarrierEpoch
	if p.epochLen == 0 {
		p.epochLen = defaultBarrierEpoch
	}
	if channels > 1 {
		if obs, isGap := ccfg.Policy.(policy.GapObserver); isGap {
			repl, isRepl := ccfg.Policy.(policy.Replicable)
			if !isRepl {
				return nil, fmt.Errorf("core: policy %T observes idle gaps globally but is not policy.Replicable; multi-channel parallel runs serve thresholds from per-channel replicas and merge gap observations at epoch barriers", ccfg.Policy)
			}
			p.gapObserving = true
			p.gapMaster = obs
			p.gapRepl = repl
			p.gapRecs = make([]*gapRecorder, channels)
		}
		p.fullCaps = make([]float64, cfg.Buses.Count)
		for i := range p.fullCaps {
			p.fullCaps[i] = cfg.Buses.Bandwidth
		}
		p.shares = make([][]float64, channels)
		p.counts = make([][]int, channels)
		p.next = make([][]float64, channels)
		for ch := range p.shares {
			p.shares[ch] = make([]float64, cfg.Buses.Count)
			p.counts[ch] = make([]int, cfg.Buses.Count)
			p.next[ch] = make([]float64, cfg.Buses.Count)
		}
		// The opening allocation is the zero-demand split: every
		// partition idle, each holding an even reserve share.
		bus.EpochShares(p.fullCaps, p.counts, p.shares)
	}
	for ch := 0; ch < channels; ch++ {
		eng := newEngine(cfg)
		pcfg := ccfg
		if channels > 1 {
			caps := make([]float64, cfg.Buses.Count)
			copy(caps, p.shares[ch])
			pcfg.Partition = &controller.Partition{Channel: ch, BusCaps: caps}
			if p.gapObserving {
				rec := &gapRecorder{Policy: p.gapRepl.Replicate()}
				pcfg.Policy = rec
				p.gapRecs[ch] = rec
			}
		}
		ctl, err := controller.New(eng, pcfg)
		if err != nil {
			return nil, err
		}
		p.engs = append(p.engs, eng)
		p.ctls = append(p.ctls, ctl)
	}
	return p, nil
}

// barrier re-splits the shared buses by the demand each partition
// reported for the span that just ended. Runs single-threaded between
// epochs; Resync is skipped while a partition's shares are unchanged,
// so an all-idle simulation inserts no accounting boundaries at all.
// The changed-or-not outcome also feeds the span controller's churn
// estimate.
func (p *parallelRun) barrier(end sim.Time) error {
	for ch, ctl := range p.ctls {
		ctl.BusFlowCounts(p.counts[ch])
	}
	bus.EpochShares(p.fullCaps, p.counts, p.next)
	anyChanged := false
	for ch, ctl := range p.ctls {
		changed := false
		for b, s := range p.next[ch] {
			if s != p.shares[ch][b] {
				changed = true
				break
			}
		}
		if changed {
			anyChanged = true
			copy(p.shares[ch], p.next[ch])
			ctl.Resync(p.shares[ch])
		}
	}
	epochs := int64(1)
	if p.lastEnd > 0 && end > p.lastEnd {
		if n := int64(end.Sub(p.lastEnd) / p.epochLen); n > 1 {
			epochs = n
		}
	}
	p.lastEnd = end
	p.span.noteResplit(anyChanged, epochs)
	return nil
}

// crossAt implements sim.BarrierHooks.CrossAt: the earliest instant
// any partition's bus demand can change, from controller-internal
// causes (completions, TA epoch timers, in-flight wakes) and from
// trace arrivals. Gap-observing runs disable elision entirely — their
// replica merges must stay on the fixed rendezvous schedule for the
// adaptive and fixed modes to remain bit-identical.
func (p *parallelRun) crossAt() (sim.Time, bool) {
	if p.gapObserving {
		return 0, false
	}
	at := sim.MaxTime
	arrival := false
	for _, ctl := range p.ctls {
		t, a, ok := ctl.CrossLookahead()
		if !ok {
			return 0, false
		}
		if t < at {
			at = t
		}
		arrival = arrival || a
	}
	// With no partition gated, only DMA arrivals can create flows; with
	// any transfer gated, a processor access can wake a chip and drain
	// its gated transfers, so every arrival counts.
	if t, ok := p.nextArrival(!arrival); ok && t < at {
		at = t
	}
	return at, true
}

// nextArrival bounds the earliest undelivered trace arrival from below
// — DMA records only when dmaOnly, every kind otherwise — so no span
// outruns an arrival that could change bus demand. ok=false means no
// such record remains.
func (p *parallelRun) nextArrival(dmaOnly bool) (sim.Time, bool) {
	best, found := sim.MaxTime, false
	for _, c := range p.arrivals {
		var t sim.Time
		ok := false
		if dmaOnly {
			t, ok = c.NextDMA()
		} else {
			t, ok = c.NextTime()
		}
		if ok {
			found = true
			best = min(best, t)
		}
	}
	return best, found
}

// capEnd implements sim.BarrierHooks.CapEnd: spans must not cross a
// layout-rebalance instant, where the page→channel mapping may change.
func (p *parallelRun) capEnd(end sim.Time) sim.Time {
	if p.nextReb <= p.rebEnd && p.nextReb < end {
		return p.nextReb
	}
	return end
}

// observe implements sim.BarrierHooks.Observe: the epoch-synchronized
// global observation stage. It merges the partitions' buffered idle
// gaps into the master policy in global time order (ties broken by
// channel index) and re-syncs the replicas, then runs any layout
// rebalance due at this rendezvous over the union of every partition's
// busy pages — the parallel equivalent of the serial engine's
// priority-5 rebalance tick, which likewise runs after all same-
// instant events.
func (p *parallelRun) observe(end sim.Time) error {
	if p.gapObserving {
		p.mergeGaps()
	}
	if p.lm != nil {
		for p.nextReb <= p.rebEnd && p.nextReb <= end {
			p.runRebalance()
			p.nextReb = p.nextReb.Add(p.rebInterval)
		}
	}
	return nil
}

// mergeGaps replays all partitions' buffered gap observations to the
// master policy ordered by (instant, channel), then copies the
// master's adapted state back into every replica.
func (p *parallelRun) mergeGaps() {
	for {
		best := -1
		for ch, g := range p.gapRecs {
			if g.pos >= len(g.buf) {
				continue
			}
			if best < 0 || g.buf[g.pos].at < p.gapRecs[best].buf[p.gapRecs[best].pos].at {
				best = ch
			}
		}
		if best < 0 {
			break
		}
		g := p.gapRecs[best]
		p.gapMaster.ObserveGap(g.buf[g.pos].gap)
		g.pos++
	}
	for _, g := range p.gapRecs {
		g.buf = g.buf[:0]
		g.pos = 0
		p.gapRepl.SyncReplica(g.Policy)
	}
}

// armRebalances switches the PL interval timer to barrier-driven
// execution: rebalance instants become forced rendezvous (capEnd) run
// in the Observe stage, mirroring scheduleRebalances' schedule — first
// at one interval, last at or before the trace end.
func (p *parallelRun) armRebalances(lm *layout.Manager, traceEnd sim.Time) {
	p.lm = lm
	p.rebInterval = lm.Interval()
	p.nextReb = sim.Time(p.rebInterval)
	p.rebEnd = traceEnd
	p.busy = make([]bool, lm.NumPages())
	p.isBusy = func(pg memsys.PageID) bool { return p.busy[pg] }
}

// runRebalance executes one layout rebalance with the global busy set:
// a page in flight on any partition must not migrate.
func (p *parallelRun) runRebalance() {
	for _, ctl := range p.ctls {
		ctl.MarkActivePages(p.busy)
	}
	p.lm.Rebalance(p.isBusy)
	clear(p.busy)
}

// execute drives the shards until every event loop and input source
// drains (or ctx cancels).
func (p *parallelRun) execute(ctx context.Context, hooks sim.BarrierHooks) error {
	epoch := p.cfg.BarrierEpoch
	if epoch == 0 {
		epoch = defaultBarrierEpoch
	}
	be, err := sim.NewBarrierEngine(p.engs, epoch, p.cfg.Workers)
	if err != nil {
		return err
	}
	if p.channels > 1 {
		hooks.Barrier = p.barrier
		if p.gapObserving || p.lm != nil {
			hooks.Observe = p.observe
		}
		if p.lm != nil {
			hooks.CapEnd = p.capEnd
			// Pending rebalances count as input: the run must not end
			// while interval ticks the serial engine would still fire
			// remain (they migrate pages and charge energy even after
			// the trace drains).
			inner := hooks.NextInput
			hooks.NextInput = func() (sim.Time, bool) {
				var at sim.Time
				ok := false
				if inner != nil {
					at, ok = inner()
				}
				if p.nextReb <= p.rebEnd && (!ok || p.nextReb < at) {
					return p.nextReb, true
				}
				return at, ok
			}
		}
	}
	if !p.cfg.FixedEpoch {
		if p.channels == 1 {
			// A lone shard has no cross-shard state at all: every epoch
			// boundary is a no-op, so the whole run is one span. This is
			// what makes Workers on a single-channel topology near-free
			// (see Config.Workers).
			hooks.CrossAt = func() (sim.Time, bool) { return sim.MaxTime, true }
		} else {
			hooks.CrossAt = p.crossAt
			hooks.SpanCap = p.span.spanCap
		}
	}
	return be.Run(ctx, hooks)
}

// finish closes every partition's accounting at the end of the shared
// metering window and merges the partition reports (ctls are in
// channel order, so the merge accumulates in global chip order).
func (p *parallelRun) finish(window sim.Time) *metrics.Report {
	var end sim.Time
	for _, ctl := range p.ctls {
		if e := ctl.Finish(window); e > end {
			end = e
		}
	}
	return controller.MergeReports(p.cfg.Scheme, end, p.ctls...)
}

// stageSplit stages one record on the staging cursors of the channels
// it touches: a processor access goes to its page's channel whole; a
// DMA record is cut at every channel change along its page run.
// Sub-records inherit the time and bus, so each partition's arrival
// order matches the global trace order restricted to it.
func stageSplit(staged []*trace.Cursor, r trace.Record, chanOf func(memsys.PageID) int) {
	if !r.Kind.IsDMA() {
		staged[chanOf(r.Page)].Append(r)
		return
	}
	start := 0
	ch := chanOf(r.Page)
	for i := 1; i < int(r.Pages); i++ {
		if c := chanOf(r.Page + memsys.PageID(i)); c != ch {
			sub := r
			sub.Page = r.Page + memsys.PageID(start)
			sub.Pages = uint16(i - start)
			staged[ch].Append(sub)
			start, ch = i, c
		}
	}
	sub := r
	sub.Page = r.Page + memsys.PageID(start)
	sub.Pages = uint16(int(r.Pages) - start)
	staged[ch].Append(sub)
}

// run feeds the shards from the run's cursor and executes them. A lone
// shard reads the cursor directly, exactly as the serial engine does.
// With several channels the Prepare hook stages each span's records
// into per-shard staging cursors, so mid-span a shard pulls arrivals
// from local memory only and the run's cursor stays single-threaded.
// Staging routes pages with the mapping current at stage time, which
// equals the mapping at fire time because no span crosses a rebalance
// instant (capEnd).
func (p *parallelRun) run(ctx context.Context, cur *trace.Cursor, lm *layout.Manager, traceEnd sim.Time) error {
	hooks := sim.BarrierHooks{}
	if p.channels == 1 {
		p.engs[0].SetFeeder(&feeder{ctl: p.ctls[0], cur: cur})
		if lm != nil {
			// A sole shard runs the rebalance ticks exactly as the
			// serial engine does.
			scheduleRebalances(p.engs[0], p.ctls[0], lm, traceEnd)
		}
		return p.execute(ctx, hooks)
	}
	staged := make([]*trace.Cursor, p.channels)
	for ch := range staged {
		staged[ch] = trace.NewStagingCursor()
		p.engs[ch].SetFeeder(&feeder{ctl: p.ctls[ch], cur: staged[ch]})
	}
	p.arrivals = append(staged, cur)
	chanOf := channelOfPage(p.cfg, p.ctls[0].Mapper())
	hooks.NextInput = cur.NextTime
	records := 0
	hooks.Prepare = func(end sim.Time) error {
		records = 0
		for r, ok := cur.Peek(); ok && r.Time <= end; r, ok = cur.Peek() {
			cur.Advance()
			stageSplit(staged, r, chanOf)
			records++
		}
		return nil
	}
	// The span's staged records are the engine's cost unit when it
	// decides whether a handoff to other workers pays.
	hooks.Work = func() int { return records }
	if lm != nil {
		p.armRebalances(lm, traceEnd)
	}
	return p.execute(ctx, hooks)
}
