// Package controller implements the smart memory controller at the
// heart of the paper: per-chip power management driven by a low-level
// policy, fluid-model service of concurrent DMA streams over multiple
// I/O buses, processor-access priority, and the DMA-TA temporal
// alignment mechanism with its slack-based performance guarantee
// (Section 4.1).
//
// Timing model. Flowing transfers are piecewise-constant fluid streams:
// whenever the set of active (bus, chip) streams changes, rates are
// recomputed with a max-min fair allocation subject to bus and chip
// capacities, and the elapsed interval is charged to each chip
// (serving time = delivered bytes / chip rate; the rest of the active
// span is the Figure 2(a) bandwidth-mismatch idle). Gated transfers
// are held at request granularity exactly as in the paper: only the
// first DMA-memory request of a gated transfer is pending, and slack
// bookkeeping follows Section 4.1.2 (mu*T credit per arriving request,
// epoch charges for pending requests, transition and processor-access
// charges).
package controller

import (
	"fmt"

	"dmamem/internal/bus"
	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/metrics"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
)

// TAConfig enables DMA-TA.
type TAConfig struct {
	// Mu is the per-DMA-memory-request slack multiplier: average
	// request service time may degrade to (1+Mu)*T. Derived from
	// CP-Limit via metrics.Calibration.
	Mu float64
	// EpochLength for the pessimistic slack charging of pending
	// requests. The paper finds results insensitive to it as long as
	// it is not too large.
	EpochLength sim.Duration
	// GatherTarget overrides k = ceil(Rm/Rb) when positive.
	GatherTarget int
	// MaxDelay is the hard bound on how long any single transfer may
	// be gated — the paper's "or the access delay exceeds a threshold
	// value". Zero means auto: the slack budget of a four-page
	// transfer (Mu * T * 4 * pageBytes/8).
	MaxDelay sim.Duration
	// NoCostBenefit disables the run-time cost-benefit check before
	// gating. With the check (the default), a transfer is only held
	// when the chip's recent DMA inter-arrival gap suggests that k-1
	// further transfers can plausibly arrive within MaxDelay; holding
	// on a chip too cold to gather wastes slack that hot chips could
	// spend on successful alignments. The paper gates unconditionally
	// and lists run-time cost-benefit analysis as future work; the
	// ablation benches quantify the difference.
	NoCostBenefit bool
}

// DefaultTA returns a TA configuration for a given mu.
func DefaultTA(mu float64) *TAConfig {
	return &TAConfig{Mu: mu, EpochLength: 10 * sim.Microsecond}
}

// validate reports a descriptive error for unusable configs.
func (c *TAConfig) validate() error {
	switch {
	case c.Mu < 0:
		return fmt.Errorf("controller: Mu = %g", c.Mu)
	case c.EpochLength <= 0:
		return fmt.Errorf("controller: EpochLength = %v", c.EpochLength)
	case c.GatherTarget < 0:
		return fmt.Errorf("controller: GatherTarget = %d", c.GatherTarget)
	}
	return nil
}

// Config assembles a memory system.
type Config struct {
	Geometry memsys.Geometry
	// Topology optionally groups the chips into independently clocked
	// channels (DDR-style). The zero value is the legacy single-channel
	// RDRAM behavior, bit-identical to builds that predate the field.
	Topology memsys.Topology
	Buses    bus.Config
	Policy   policy.Policy
	// TA enables temporal alignment when non-nil.
	TA *TAConfig
	// Layout, when non-nil, supplies the dynamic page mapping (PL) and
	// receives popularity observations. When nil, Mapper is used.
	Layout *layout.Manager
	// Mapper is the static baseline layout; nil means interleaved.
	Mapper memsys.Mapper
	// InitialState chips start in; the default (zero value) is Active,
	// letting the policy idle them down immediately.
	InitialState energy.State
	// Model selects the memory technology power-state machine; nil
	// means the paper's RDRAM part (the registry default).
	// Geometry.ChipBandwidth should match the model's bandwidth.
	Model *energy.Model
}

// validate reports a descriptive error for unusable configs.
func (c *Config) validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Topology.Validate(c.Geometry); err != nil {
		return err
	}
	if err := c.Buses.Validate(); err != nil {
		return err
	}
	if c.Policy == nil {
		return fmt.Errorf("controller: nil policy")
	}
	if c.TA != nil {
		if err := c.TA.validate(); err != nil {
			return err
		}
	}
	return nil
}

// xferState tracks one in-flight transfer.
type xferState struct {
	t       dma.Transfer
	pageIdx int // pages already fully handed to segments
	seg     dma.Segment
	segSet  bool

	gatedAt     sim.Time     // when the transfer was gated
	gatherDelay sim.Duration // total gating delay accumulated
}

func (x *xferState) remainingPages() int { return x.t.Pages - x.pageIdx }

// flow is one flowing segment.
type flow struct {
	x         *xferState
	chip, bus int
	remaining float64 // bytes
	rate      float64 // bytes/s, set by the allocator
}

// chipState wraps a chip with the controller-side queues.
type chipState struct {
	chip *memsys.Chip
	// channel owning the chip under the configured topology (0 in the
	// legacy single-channel configuration).
	channel int
	flows   []*flow
	// gated transfers held by DMA-TA (chip in a low-power mode).
	gated []*xferState
	// waiting transfers: the chip is waking; they start on completion.
	waiting []*xferState
	// procQueue: processor accesses waiting for an in-flight wake.
	procQueue int
	// Arrival-rate estimate for the gating cost-benefit check.
	lastArrival sim.Time
	ewmaGapPs   float64
	// procBusy accumulated against the current active span.
	procBusy sim.Duration
	// coverage is the fraction of a span the chip's bursts keep it
	// active, 1 - prod over buses of (1 - f_b), for the current flows
	// and rates. recompute refreshes it when staleCoverage says the
	// flows or one of their rates changed (see burstCoverage).
	coverage      float64
	staleCoverage bool
	// idleTimer is the pending policy step, if any.
	idleTimer sim.EventID
	// wakePending marks a wake sequence in flight (possibly waiting for
	// a down transition to finish first).
	wakePending bool
	// dirty marks membership in the controller's dirty set (see
	// account.go).
	dirty bool
	// Cached event handlers, created once in New so scheduling a
	// policy step, wake completion or sleep completion allocates no
	// closure on the hot path.
	policyFn sim.Handler
	wakeFn   sim.Handler
	sleepFn  sim.Handler
}

// policyStep is one entry of the controller's policy table: after wait
// idle in a state, step to next; ok=false means the state is terminal.
type policyStep struct {
	wait sim.Duration
	next energy.State
	ok   bool
}

// Controller is the simulator core for one run. Use New, feed events
// via StartTransfer/ProcAccess scheduled on the same engine, then call
// Finish and Report.
type Controller struct {
	cfg    Config
	eng    *sim.Engine
	model  *energy.Model
	chips  []*chipState
	alloc  *bus.Allocator
	mapper memsys.Mapper

	allFlows []*flow
	complEvt sim.EventID
	// complAt is the instant complEvt is scheduled for; meaningful only
	// while complEvt is valid. recompute reads it to keep a completion
	// that already fires at the right instant.
	complAt sim.Time

	// Dirty-set accounting state (see account.go). dirtyChips holds
	// chips in the order they became dirty; lastAccount is the instant
	// of the last global accountAll.
	dirtyChips  []*chipState
	lastAccount sim.Time

	// Reusable hot-path scratch, sized once in New.
	busRateScratch  []float64  // burstCoverage per-bus rate sums
	busSeenScratch  []bool     // distinctGatedBuses
	busCountScratch []int      // maxPerBus
	flowScratch     []bus.Flow // recompute allocator input
	finishedScratch []*flow    // onCompletion drained flows
	// Free lists: drained flows and finished transfers are recycled,
	// so starting and completing transfers allocates nothing once a
	// run has reached its peak in-flight count.
	freeFlows      []*flow
	freeXfers      []*xferState
	onCompletionFn sim.Handler
	onEpochFn      sim.Handler

	// Channel topology state. channels is the effective channel count
	// (1 in the legacy configuration); channelOf maps chip -> channel.
	channels  int
	channelOf []int

	// DMA-TA state.
	taOn bool
	// kByChannel is the gather target per channel: k = ceil(Rm/Rb)
	// where Rm is the chip's deliverable rate under that channel's
	// bandwidth cap. The legacy path is the single entry kByChannel[0].
	kByChannel []int
	muT        float64 // slack credit per request, ps
	maxDelay   sim.Duration
	slack      float64 // ps
	nGated     int
	epochEvt   sim.EventID

	// steps[s] is the policy's step out of state s, read once in New:
	// NextStep depends on the state alone. An array indexed by the
	// uint8 state covers every state without a bounds check or a
	// separate allocation.
	steps [256]policyStep

	// Derived constants.
	lineTime sim.Duration // processor cache-line service time
	reqBytes float64

	// Statistics.
	nextXferID   int64
	xferTimes    metrics.DurationStats
	gatherDelays metrics.DurationStats
	procAccesses int64
	procWakes    int64
	transfers    int64
	clampedProc  int64

	// Gating outcome counters (transfers released by each path).
	RelGathered int64 // k distinct buses reached
	RelSlack    int64 // slack exhausted (n*U/2 condition)
	RelMaxDelay int64 // hard delay bound
	RelDrain    int64 // chip became active for another reason

	// PeakGated is the maximum number of simultaneously gated
	// transfers; times 8 bytes it is the controller buffer footprint
	// the paper bounds in Section 4.1.4.
	PeakGated int
}

// PeakBufferBytes returns the controller-side buffer space the gated
// first requests needed at their peak (Section 4.1.4 sizes this at
// buses x 8 B x chips = 768 B for the default configuration).
func (c *Controller) PeakBufferBytes() int { return c.PeakGated * memsys.RequestBytes }

// New builds a controller on an engine.
func New(eng *sim.Engine, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mapper := cfg.Mapper
	if cfg.Layout != nil {
		mapper = cfg.Layout
	}
	if mapper == nil {
		mapper = cfg.Topology.Mapper(cfg.Geometry)
	}
	busCaps := make([]float64, cfg.Buses.Count)
	for i := range busCaps {
		busCaps[i] = cfg.Buses.Bandwidth
	}
	model := cfg.Model
	if model == nil {
		var err error
		if model, err = energy.Lookup(energy.DefaultTech); err != nil {
			return nil, err
		}
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	// The policy is checked against the resolved model: a park mode
	// legal for a 5-state DDR4 machine is illegal for a 3-state LPDDR4
	// one.
	if err := cfg.Policy.Validate(model); err != nil {
		return nil, err
	}
	if int(cfg.InitialState) >= model.NumStates() {
		return nil, fmt.Errorf("controller: initial state %d beyond the %d states of model %s",
			int(cfg.InitialState), model.NumStates(), model.Name)
	}
	c := &Controller{
		cfg:      cfg,
		eng:      eng,
		model:    model,
		alloc:    bus.NewAllocator(busCaps, cfg.Geometry.ChipBandwidth),
		mapper:   mapper,
		lineTime: cfg.Geometry.CacheLineServiceTime(),
		reqBytes: memsys.RequestBytes,

		lastAccount:     eng.Now(),
		busRateScratch:  make([]float64, cfg.Buses.Count),
		busSeenScratch:  make([]bool, cfg.Buses.Count),
		busCountScratch: make([]int, cfg.Buses.Count),
	}
	c.onCompletionFn = c.onCompletion
	c.onEpochFn = c.onEpoch
	for st := 0; st < model.NumStates(); st++ {
		ps := &c.steps[st]
		ps.wait, ps.next, ps.ok = cfg.Policy.NextStep(energy.State(st))
	}
	c.channels = cfg.Topology.NumChannels()
	c.channelOf = make([]int, cfg.Geometry.NumChips)
	for i := range c.channelOf {
		c.channelOf[i] = cfg.Topology.ChannelOfChip(cfg.Geometry, i)
	}
	if cfg.Topology.Enabled() && cfg.Topology.ChannelBandwidth > 0 {
		chanCaps := make([]float64, c.channels)
		for i := range chanCaps {
			chanCaps[i] = cfg.Topology.ChannelBandwidth
		}
		c.alloc.SetChannels(c.channelOf, chanCaps)
	}
	for i := 0; i < cfg.Geometry.NumChips; i++ {
		cs := &chipState{
			chip:    memsys.NewChip(i, cfg.InitialState, eng.Now(), model),
			channel: c.channelOf[i],
		}
		cs.policyFn = func(e *sim.Engine) { c.onPolicyTimer(cs, e) }
		cs.wakeFn = func(e *sim.Engine) { c.onWakeComplete(cs, e) }
		cs.sleepFn = func(e *sim.Engine) { c.onSleepComplete(cs, e) }
		c.chips = append(c.chips, cs)
		if cfg.InitialState == energy.Active {
			c.armPolicyTimer(cs, eng.Now())
		}
	}
	if cfg.TA != nil {
		c.taOn = true
		c.kByChannel = make([]int, c.channels)
		for ch := range c.kByChannel {
			k := cfg.TA.GatherTarget
			if k == 0 {
				// Rm is what one chip of this channel can actually
				// receive: its own rate, clamped by the channel cap.
				rm := cfg.Geometry.ChipBandwidth
				if bw := cfg.Topology.ChannelBandwidth; bw > 0 && bw < rm {
					rm = bw
				}
				k = bus.GatherTarget(rm, cfg.Buses.Bandwidth)
			}
			if k > cfg.Buses.Count {
				// Fewer buses than ceil(Rm/Rb): full chip utilization is
				// unreachable, so gather the best alignment possible — one
				// stream per bus.
				k = cfg.Buses.Count
			}
			c.kByChannel[ch] = k
		}
		beat := cfg.Buses.BeatGap()
		c.muT = cfg.TA.Mu * float64(beat)
		c.maxDelay = cfg.TA.MaxDelay
		if c.maxDelay == 0 {
			reqsPerPage := float64(cfg.Geometry.PageBytes) / memsys.RequestBytes
			c.maxDelay = sim.Duration(cfg.TA.Mu * float64(beat) * 4 * reqsPerPage)
			if c.maxDelay < sim.Microsecond {
				c.maxDelay = sim.Microsecond
			}
		}
	}
	return c, nil
}

// Slack returns the current slack pool (TA only), for tests.
func (c *Controller) Slack() sim.Duration { return sim.Duration(c.slack) }

// GatedCount returns the number of currently gated transfers.
func (c *Controller) GatedCount() int { return c.nGated }
