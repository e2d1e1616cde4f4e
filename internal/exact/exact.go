// Package exact is a request-granularity golden-model simulator: every
// 8-byte DMA-memory request is a discrete event, buses emit one
// request per beat with round-robin arbitration between their active
// transfers, and chips serve requests through a FIFO with the same
// power-state machine and threshold policy as the production
// controller.
//
// It is far too slow for the evaluation traces (an 8 KB transfer is
// 1024 events), but on micro-scenarios it provides ground truth that
// the fluid model in internal/controller is validated against:
// transfer completion times, serving energy, and active envelopes must
// agree within the burst-granularity tolerance the fluid model's
// documentation claims.
package exact

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
)

// Transfer is one DMA operation for the golden model.
type Transfer struct {
	ID      int
	Arrival sim.Time
	Bus     int
	Page    memsys.PageID
	Pages   int
}

// Config mirrors the controller's hardware parameters.
type Config struct {
	Geometry memsys.Geometry
	Buses    int
	// BeatGap is the bus inter-request period (12 memory cycles for
	// PCI-X against 1600 MHz RDRAM).
	BeatGap sim.Duration
	// BurstBeats is the arbitration granularity: a transfer holds the
	// bus for this many beats before round-robin moves on (PCI-X
	// masters burst hundreds of bytes per grant). 64 beats = 512 B.
	BurstBeats int
	Policy     policy.Policy
	Mapper     memsys.Mapper
}

// DefaultConfig returns the paper's hardware at request granularity.
func DefaultConfig() Config {
	return Config{
		Geometry:   memsys.Default(),
		Buses:      3,
		BeatGap:    7500 * sim.Picosecond,
		BurstBeats: 64,
		Policy:     policy.ChainFor(energy.RDRAM()),
	}
}

// Result summarizes a golden-model run.
type Result struct {
	// Completion time per transfer, indexed by Transfer.ID.
	Completion map[int]sim.Time
	// Energy breakdown summed over chips.
	Energy energy.Breakdown
	// ServingTime and EnvelopeTime per chip (envelope = first request
	// arrival to last completion while requests were outstanding).
	ServingTime  []sim.Duration
	EnvelopeTime []sim.Duration
	// Events dispatched (the cost of exactness).
	Events uint64
}

// UF returns the golden utilization factor over all chips.
func (r *Result) UF() float64 {
	var s, e sim.Duration
	for i := range r.ServingTime {
		s += r.ServingTime[i]
		e += r.EnvelopeTime[i]
	}
	if e == 0 {
		return 0
	}
	return float64(s) / float64(e)
}

type xfer struct {
	t           Transfer
	nextPage    int // page index whose requests are being emitted
	pageReqs    int // requests already emitted for the current page
	reqsTotal   int
	done        int // requests fully served
	outstanding int // emitted but not yet served (DMA flow control: <= 1)
	finished    bool
	curChip     int // chip currently receiving this transfer (-1 before start)
}

type chip struct {
	c     *memsys.Chip
	queue []*req
	busy  bool
	// inProgress holds the transfers currently streaming to this chip;
	// the paper's T_tot envelope covers every span where it is
	// non-empty, including the gaps between successive requests.
	inProgress map[*xfer]struct{}
	idleTimer  sim.EventID
	wakeFlag   bool
}

type req struct {
	x    *xfer
	chip int
}

type busLine struct {
	active    []*xfer
	rr        int
	burstLeft int
	idle      bool
}

// Run executes the golden model over the given transfers.
func Run(cfg Config, transfers []Transfer) (*Result, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Buses <= 0 || cfg.BeatGap <= 0 {
		return nil, fmt.Errorf("exact: buses %d, beat %v", cfg.Buses, cfg.BeatGap)
	}
	if cfg.BurstBeats <= 0 {
		cfg.BurstBeats = 1
	}
	model := energy.RDRAM()
	if cfg.Policy == nil {
		cfg.Policy = policy.ChainFor(model)
	}
	if err := cfg.Policy.Validate(model); err != nil {
		return nil, err
	}
	mapper := cfg.Mapper
	if mapper == nil {
		mapper = memsys.InterleavedMapper{Chips: cfg.Geometry.NumChips}
	}
	reqsPerPage := cfg.Geometry.PageBytes / memsys.RequestBytes
	serveTime := cfg.Geometry.RequestServiceTime()

	eng := sim.New()
	chips := make([]*chip, cfg.Geometry.NumChips)
	for i := range chips {
		chips[i] = &chip{
			c:          memsys.NewChip(i, model.Deepest(), 0, model),
			inProgress: make(map[*xfer]struct{}),
		}
	}
	buses := make([]*busLine, cfg.Buses)
	for i := range buses {
		buses[i] = &busLine{idle: true}
	}
	res := &Result{
		Completion:   make(map[int]sim.Time),
		ServingTime:  make([]sim.Duration, len(chips)),
		EnvelopeTime: make([]sim.Duration, len(chips)),
	}

	var serveNext func(ci int, e *sim.Engine)

	// account closes the chip's active span as threshold idle when no
	// requests are outstanding, or envelope time when they are. The
	// golden model charges active-idle lazily: whenever the chip state
	// is about to change or a request is served.
	catchUp := func(ci int, now sim.Time) {
		ch := chips[ci]
		if ch.busy || !ch.c.Resident() || ch.c.State() != energy.Active {
			// While a request is in service, the completion handler
			// owns the span (it knows the serving share).
			return
		}
		span := now.Sub(ch.c.Cursor())
		if span <= 0 {
			return
		}
		inXfer := len(ch.inProgress) > 0
		ch.c.AccountActive(now, 0, 0, inXfer)
		if inXfer {
			res.EnvelopeTime[ci] += span
		}
	}

	var armIdle func(ci int, e *sim.Engine)
	armIdle = func(ci int, e *sim.Engine) {
		ch := chips[ci]
		if ch.idleTimer.Valid() {
			e.Cancel(ch.idleTimer)
		}
		wait, next, ok := cfg.Policy.NextStep(ch.c.State())
		if !ok {
			return
		}
		ch.idleTimer = e.SchedulePrio(e.Now().Add(wait), 3, func(e *sim.Engine) {
			now := e.Now()
			// The threshold policy only sees idleness; a transfer may
			// still be in progress (its next burst pending) and the
			// chip sleeps through the gap regardless — the nap the
			// fluid model charges for burst gaps.
			if len(ch.queue) > 0 || ch.busy || ch.wakeFlag || !ch.c.Resident() {
				return
			}
			catchUp(ci, now)
			var ready sim.Time
			if ch.c.State() == energy.Active {
				ready = ch.c.BeginSleep(next, now)
			} else {
				ready = ch.c.Deepen(next, now)
			}
			e.SchedulePrio(ready, 2, func(e *sim.Engine) {
				ch.c.CompleteSleep(e.Now())
				if ch.wakeFlag {
					r := ch.c.BeginWake(e.Now())
					e.SchedulePrio(r, 2, func(e *sim.Engine) {
						ch.c.CompleteWake(e.Now())
						ch.wakeFlag = false
						serveNext(ci, e)
					})
					return
				}
				armIdle(ci, e)
			})
		})
	}

	wake := func(ci int, e *sim.Engine) {
		ch := chips[ci]
		if ch.wakeFlag {
			return
		}
		switch {
		case ch.c.Resident() && ch.c.State() == energy.Active:
			return
		case ch.c.Resident():
			ch.wakeFlag = true
			if ch.idleTimer.Valid() {
				e.Cancel(ch.idleTimer)
			}
			r := ch.c.BeginWake(e.Now())
			e.SchedulePrio(r, 2, func(e *sim.Engine) {
				ch.c.CompleteWake(e.Now())
				ch.wakeFlag = false
				serveNext(ci, e)
			})
		default:
			// Transition in flight; its completion handler checks
			// wakeFlag.
			ch.wakeFlag = true
		}
	}

	serveNext = func(ci int, e *sim.Engine) {
		ch := chips[ci]
		if ch.busy || len(ch.queue) == 0 {
			return
		}
		if !ch.c.Resident() || ch.c.State() != energy.Active {
			wake(ci, e)
			return
		}
		now := e.Now()
		catchUp(ci, now)
		if ch.idleTimer.Valid() {
			e.Cancel(ch.idleTimer)
		}
		r := ch.queue[0]
		ch.queue = ch.queue[1:]
		ch.busy = true
		// Completions fire before same-instant bus beats (priority 0 vs
		// 1): the acknowledgement reaches the DMA engine in time for
		// the next beat, keeping aligned streams in lockstep.
		e.SchedulePrio(now.Add(serveTime), 0, func(e *sim.Engine) {
			done := e.Now()
			// Charge the service span.
			span := done.Sub(ch.c.Cursor())
			serving := serveTime
			if serving > span {
				serving = span
			}
			ch.c.AccountActive(done, serving, 0, true)
			res.ServingTime[ci] += serving
			res.EnvelopeTime[ci] += span
			ch.busy = false
			r.x.outstanding--
			r.x.done++
			if r.x.done == r.x.reqsTotal {
				res.Completion[r.x.t.ID] = done
				delete(ch.inProgress, r.x)
			}
			if len(ch.queue) == 0 {
				armIdle(ci, e)
			}
			serveNext(ci, e)
		})
	}

	// Bus pumps: each bus emits at most one request per beat,
	// round-robin over its active transfers. A DMA engine does not
	// issue its next request before the previous one was acknowledged
	// (served) — the flow control DMA-TA's gating relies on — so a
	// transfer with an outstanding request is skipped this beat.
	var pump func(bi int, e *sim.Engine)
	pump = func(bi int, e *sim.Engine) {
		b := buses[bi]
		// Drop transfers whose requests are all emitted.
		kept := b.active[:0]
		for _, x := range b.active {
			if !x.finished {
				kept = append(kept, x)
			}
		}
		b.active = kept
		if len(b.active) == 0 {
			b.idle = true
			return
		}
		b.rr %= len(b.active)
		if b.burstLeft <= 0 {
			b.rr = (b.rr + 1) % len(b.active)
			b.burstLeft = cfg.BurstBeats
		}
		for tried := 0; tried < len(b.active); tried++ {
			idx := (b.rr + tried) % len(b.active)
			x := b.active[idx]
			if x.outstanding > 0 {
				continue // flow control: wait for the ack
			}
			if idx != b.rr {
				// Arbitration moved on: a fresh grant starts.
				b.burstLeft = cfg.BurstBeats
			}
			// Emit the next request of x.
			page := x.t.Page + memsys.PageID(x.nextPage)
			ci := mapper.ChipOf(page)
			ch := chips[ci]
			catchUp(ci, e.Now())
			if x.curChip != ci {
				if x.curChip >= 0 {
					delete(chips[x.curChip].inProgress, x)
				}
				ch.inProgress[x] = struct{}{}
				x.curChip = ci
			}
			x.outstanding++
			ch.queue = append(ch.queue, &req{x: x, chip: ci})
			serveNext(ci, e)

			x.pageReqs++
			if x.pageReqs == reqsPerPage {
				x.pageReqs = 0
				x.nextPage++
			}
			if x.nextPage == x.t.Pages {
				x.finished = true // all requests emitted
				b.burstLeft = 0   // next grant starts fresh
			}
			b.rr = idx
			b.burstLeft--
			break
		}
		e.SchedulePrio(e.Now().Add(cfg.BeatGap), 1, func(e *sim.Engine) { pump(bi, e) })
	}

	// Schedule arrivals.
	for i := range transfers {
		t := transfers[i]
		if t.Pages <= 0 || t.Bus < 0 || t.Bus >= cfg.Buses {
			return nil, fmt.Errorf("exact: bad transfer %+v", t)
		}
		eng.SchedulePrio(t.Arrival, 0, func(e *sim.Engine) {
			b := buses[t.Bus]
			b.active = append(b.active, &xfer{t: t, reqsTotal: t.Pages * reqsPerPage, curChip: -1})
			if b.idle {
				b.idle = false
				pump(t.Bus, e)
			}
		})
	}
	eng.Run()
	end := eng.Now()
	for ci, ch := range chips {
		catchUp(ci, end)
		ch.c.Close(end)
		b := ch.c.Meter.Breakdown()
		res.Energy.Add(&b)
	}
	res.Events = eng.Steps()
	return res, nil
}
