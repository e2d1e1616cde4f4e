// Package metrics defines the measurement vocabulary of the
// evaluation: energy breakdowns and savings, the utilization factor of
// Section 5.3, response-time statistics, and the off-line CP-Limit ->
// mu transform of Section 5.1.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// Report is the outcome of one simulation run.
type Report struct {
	// Scheme that produced the numbers ("baseline", "dma-ta",
	// "dma-ta-pl", ...).
	Scheme string

	// Energy is the system-wide breakdown in joules.
	Energy energy.Breakdown

	// Channels is the number of memory channels the run modeled (1 for
	// the legacy single-channel RDRAM configuration).
	Channels int
	// ChannelEnergy is the per-channel slice of Energy: entry c sums
	// the chip meters of channel c's chips. System-level costs that are
	// not attributable to one channel (PL migration energy) appear only
	// in Energy, so summing ChannelEnergy recovers Energy minus
	// Energy[CatMigration]'s layout contribution.
	ChannelEnergy []energy.Breakdown

	// UtilizationFactor is uf = T_useful / T_tot over all chips:
	// T_tot is active time with >=1 DMA transfer in progress, T_useful
	// the portion actually serving DMA data.
	UtilizationFactor float64

	// Transfer-level performance. All durations are simulated time in
	// integer picoseconds (sim.Duration).
	Transfers       int64        // DMA transfers completed
	MeanServiceTime sim.Duration // mean transfer residency (arrival -> completion)
	P95ServiceTime  sim.Duration // 95th-percentile transfer residency
	MaxServiceTime  sim.Duration // worst-case transfer residency
	MeanGatherDelay sim.Duration // mean DMA-TA gating delay per transfer

	// Power-management activity.
	Wakes      int64 // chip transitions out of a low-power state
	Migrations int64 // PL page migrations performed
	// StateNames are the power states of the technology model the run
	// used, in depth order (for the RDRAM default: active, standby,
	// nap, powerdown). They key Residency and StateEnergy.
	StateNames []string
	// Residency is the chip-time spent resident in each power state,
	// indexed like StateNames, summed over chips.
	Residency []sim.Duration
	// StateEnergy is the resident energy per power state in joules,
	// indexed like StateNames. Transition and migration energy is not
	// attributable to residence in one state, so
	// sum(StateEnergy) + Energy[transition] + Energy[migration]
	// equals TotalEnergy (up to float summation order).
	StateEnergy []float64

	// SimulatedTime covered by the run.
	SimulatedTime sim.Duration

	// Events dispatched by the simulation engine during the run, for
	// events/sec throughput reporting.
	Events uint64

	// ClampedProcSpans counts accounting spans whose pending processor
	// work exceeded the span and spilled into the next one. A handful
	// per run is normal bursty-arrival behavior; a large count means
	// processor accesses arrive faster than the chip can serve them
	// and service-time numbers should be read with care.
	ClampedProcSpans int64
}

// TotalEnergy returns total joules.
func (r *Report) TotalEnergy() float64 { return r.Energy.Total() }

// MeanPower returns average system power in watts.
func (r *Report) MeanPower() float64 {
	if r.SimulatedTime <= 0 {
		return 0
	}
	return r.TotalEnergy() / r.SimulatedTime.Seconds()
}

// Savings returns the fractional energy saving of r relative to a
// baseline run: (base - r) / base. Positive means r consumes less.
func (r *Report) Savings(base *Report) float64 {
	b := base.TotalEnergy()
	if b == 0 {
		return 0
	}
	return (b - r.TotalEnergy()) / b
}

// Degradation returns the fractional increase of mean transfer service
// time relative to a reference run.
func (r *Report) Degradation(ref *Report) float64 {
	if ref.MeanServiceTime <= 0 {
		return 0
	}
	return float64(r.MeanServiceTime-ref.MeanServiceTime) / float64(ref.MeanServiceTime)
}

// ClientDegradation translates a transfer-level slowdown into the
// client-perceived response-time degradation CP-Limit bounds: the
// added transfer time, times the number of transfers on a client
// request's critical path, as a fraction of the client response time.
func (r *Report) ClientDegradation(ref *Report, cal Calibration) float64 {
	if cal.MeanClientResponse <= 0 {
		return 0
	}
	added := float64(r.MeanServiceTime - ref.MeanServiceTime)
	if added < 0 {
		added = 0
	}
	return added * cal.TransfersPerRequest / float64(cal.MeanClientResponse)
}

func (r *Report) String() string {
	return fmt.Sprintf("%s: %.4f J (%.1f mW), uf=%.3f, mean xfer=%v, wakes=%d",
		r.Scheme, r.TotalEnergy(), 1e3*r.MeanPower(), r.UtilizationFactor,
		r.MeanServiceTime, r.Wakes)
}

// Calibration carries the workload-level quantities of the off-line
// CP-Limit -> mu transform: how a bound on client-perceived response
// time degradation becomes the per-DMA-memory-request slack parameter
// mu that DMA-TA actually takes.
type Calibration struct {
	// MeanClientResponse of the workload (from the server model or an
	// estimate for synthetic traces).
	MeanClientResponse sim.Duration
	// TransfersPerRequest on a client request's critical path.
	TransfersPerRequest float64
	// MeanRequestsPerTransfer: DMA-memory requests per transfer
	// (transfer bytes / 8).
	MeanRequestsPerTransfer float64
	// T is the baseline service time of one DMA-memory request without
	// alignment or power management: one bus beat.
	T sim.Duration
	// SafetyFactor derates the analytic slack budget to cover delay
	// amplification that request-level accounting cannot see (bus
	// queueing behind released bursts, serialization behind wakes).
	// The paper derives mu by off-line measurement against the
	// client-perceived response time, which captures the same effects
	// empirically. Zero means 1 (no derating).
	SafetyFactor float64
}

// Validate reports a descriptive error for unusable calibrations.
func (c Calibration) Validate() error {
	switch {
	case c.MeanClientResponse <= 0:
		return fmt.Errorf("metrics: MeanClientResponse %v", c.MeanClientResponse)
	case c.TransfersPerRequest <= 0:
		return fmt.Errorf("metrics: TransfersPerRequest %g", c.TransfersPerRequest)
	case c.MeanRequestsPerTransfer <= 0:
		return fmt.Errorf("metrics: MeanRequestsPerTransfer %g", c.MeanRequestsPerTransfer)
	case c.T <= 0:
		return fmt.Errorf("metrics: T %v", c.T)
	}
	return nil
}

// Mu computes the per-request slack parameter for a client-perceived
// degradation limit: the total client budget cpLimit*R, spread over
// the transfers on the critical path and then over each transfer's
// DMA-memory requests, expressed as a multiple of T.
func (c Calibration) Mu(cpLimit float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if cpLimit < 0 {
		return 0, fmt.Errorf("metrics: negative CP-Limit %g", cpLimit)
	}
	sf := c.SafetyFactor
	if sf == 0 {
		sf = 1
	}
	if sf < 0 || sf > 1 {
		return 0, fmt.Errorf("metrics: SafetyFactor %g outside (0,1]", sf)
	}
	budget := sf * cpLimit * float64(c.MeanClientResponse) / c.TransfersPerRequest
	perReq := budget / c.MeanRequestsPerTransfer
	return perReq / float64(c.T), nil
}

// DurationStats summarizes a set of durations.
type DurationStats struct {
	n    int
	sum  sim.Duration
	vals []sim.Duration
}

// Add records one observation.
func (s *DurationStats) Add(d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative duration %v", d))
	}
	s.n++
	s.sum += d
	s.vals = append(s.vals, d)
}

// Merge appends every observation of o. Merging partition-local
// stats in a fixed partition order yields deterministic aggregates:
// Mean and Sum are exact integer arithmetic, and Percentile and Max do
// not depend on the order.
func (s *DurationStats) Merge(o *DurationStats) {
	s.n += o.n
	s.sum += o.sum
	s.vals = append(s.vals, o.vals...)
}

// Count returns the number of observations.
func (s *DurationStats) Count() int { return s.n }

// Mean returns the average, or 0 with no observations.
func (s *DurationStats) Mean() sim.Duration {
	if s.n == 0 {
		return 0
	}
	return sim.Duration(int64(s.sum) / int64(s.n))
}

// Percentile returns the p-quantile (0 < p <= 1) by nearest-rank. It
// selects the element in place in O(n), so it reorders the stored
// observations; every statistic here is independent of their order.
func (s *DurationStats) Percentile(p float64) sim.Duration {
	if s.n == 0 {
		return 0
	}
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("metrics: percentile %g", p))
	}
	rank := int(math.Ceil(p*float64(s.n))) - 1
	if rank < 0 {
		rank = 0
	}
	return nthSmallest(s.vals, rank)
}

// nthSmallest returns the element a sort of v would put at index k,
// reordering v. It is quickselect with a median-of-three pivot and a
// three-way partition, so runs of equal values (transfers of one size
// at one rate) cost one pass; after 2·log2(n) rounds that still leave
// a wide range it sorts that range, which bounds the worst case at
// O(n log n).
func nthSmallest(v []sim.Duration, k int) sim.Duration {
	lo, hi := 0, len(v)
	for rounds := 2 * bits.Len(uint(len(v))); hi-lo > 16 && rounds > 0; rounds-- {
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// [lo,lt) < pivot, [lt,i) == pivot, [gt,hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := v[i]; {
			case x < pivot:
				v[lt], v[i] = x, v[lt]
				lt++
				i++
			case x > pivot:
				gt--
				v[i], v[gt] = v[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	slices.Sort(v[lo:hi])
	return v[k]
}

// Max returns the maximum observation.
func (s *DurationStats) Max() sim.Duration {
	var m sim.Duration
	for _, v := range s.vals {
		if v > m {
			m = v
		}
	}
	return m
}
