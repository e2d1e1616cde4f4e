package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// JobTiming is the measured wall-clock execution of one simulation
// job. Wall is host time (time.Duration, nanoseconds), not simulated
// time: it measures how long the job occupied a worker, so parallel
// speedup is observable.
type JobTiming struct {
	// Label identifies the job ("fig5/OLTP-St/dma-ta/cp=0.10").
	Label string
	// Wall is the job's wall-clock execution time.
	Wall time.Duration
	// Events is the number of simulation events the job dispatched
	// (zero when the job did not report one).
	Events uint64
}

// Timings accumulates per-job wall-clock measurements from
// concurrently executing workers. The zero value is ready to use; Add
// is safe to call from multiple goroutines. Timings are observability
// only — they never feed back into simulation results, which stay
// bit-identical at any parallelism.
type Timings struct {
	mu     sync.Mutex
	jobs   []JobTiming
	allocs uint64 // process-wide allocation count over the run, see SetAllocs
}

// Add records one finished job. It is safe for concurrent use.
func (t *Timings) Add(label string, wall time.Duration) {
	t.AddSim(label, wall, 0)
}

// AddSim records one finished job together with the number of
// simulation events it dispatched. It is safe for concurrent use.
func (t *Timings) AddSim(label string, wall time.Duration, events uint64) {
	t.mu.Lock()
	t.jobs = append(t.jobs, JobTiming{Label: label, Wall: wall, Events: events})
	t.mu.Unlock()
}

// SetAllocs records the process-wide heap allocation count observed
// over the run (a runtime.MemStats.Mallocs delta). Zero (the initial
// state) means "not measured" and suppresses allocs/event reporting.
func (t *Timings) SetAllocs(n uint64) {
	t.mu.Lock()
	t.allocs = n
	t.mu.Unlock()
}

// TotalEvents returns the sum of events over all recorded jobs.
func (t *Timings) TotalEvents() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum uint64
	for _, j := range t.jobs {
		sum += j.Events
	}
	return sum
}

// AllocsPerEvent returns the recorded allocation count divided by the
// total event count, or 0 when either was not measured.
func (t *Timings) AllocsPerEvent() float64 {
	ev := t.TotalEvents()
	t.mu.Lock()
	allocs := t.allocs
	t.mu.Unlock()
	if ev == 0 || allocs == 0 {
		return 0
	}
	return float64(allocs) / float64(ev)
}

// Count returns the number of recorded jobs.
func (t *Timings) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

// Jobs returns a copy of the recorded jobs sorted by label (workers
// finish in nondeterministic order; sorting makes renderings stable).
func (t *Timings) Jobs() []JobTiming {
	t.mu.Lock()
	out := append([]JobTiming(nil), t.jobs...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Wall < out[j].Wall
	})
	return out
}

// TotalWork returns the sum of all job wall times: the time the same
// jobs would occupy a single worker back to back.
func (t *Timings) TotalWork() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, j := range t.jobs {
		sum += j.Wall
	}
	return sum
}

// Speedup returns TotalWork divided by the observed elapsed wall time:
// ~1 on one worker, approaching the worker count when independent jobs
// fill the pool. Zero elapsed returns 0. When workers outnumber CPU
// cores, timesharing inflates each job's wall time (preempted time
// still counts), so Speedup overstates the real gain — compare elapsed
// time against a -parallel 1 run for the honest number.
func (t *Timings) Speedup(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(t.TotalWork()) / float64(elapsed)
}

// Summary renders a one-paragraph timing report for the given elapsed
// wall time: job count, total work, elapsed, speedup, simulation
// throughput (events/sec, when jobs reported event counts; allocs per
// event when SetAllocs was called), and the slowest jobs.
func (t *Timings) Summary(elapsed time.Duration) string {
	jobs := t.Jobs()
	var b strings.Builder
	fmt.Fprintf(&b, "timing: %d jobs, %v total work in %v wall (speedup %.2fx)\n",
		len(jobs), t.TotalWork().Round(time.Millisecond),
		elapsed.Round(time.Millisecond), t.Speedup(elapsed))
	if ev := t.TotalEvents(); ev > 0 {
		fmt.Fprintf(&b, "  %d events", ev)
		if work := t.TotalWork(); work > 0 {
			fmt.Fprintf(&b, ", %.0f events/sec per worker", float64(ev)/work.Seconds())
		}
		if ape := t.AllocsPerEvent(); ape > 0 {
			fmt.Fprintf(&b, ", %.2f allocs/event", ape)
		}
		b.WriteString("\n")
	}
	slowest := append([]JobTiming(nil), jobs...)
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].Wall > slowest[j].Wall })
	if len(slowest) > 5 {
		slowest = slowest[:5]
	}
	for _, j := range slowest {
		fmt.Fprintf(&b, "  %-40s %v\n", j.Label, j.Wall.Round(time.Millisecond))
	}
	return b.String()
}
