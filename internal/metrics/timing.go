package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SimWork is what a simulation job did: the engine dispatches it ran
// and the trace records it replayed. Records measure the work itself;
// the dispatch count also depends on how the event model schedules
// it, so throughput is reported per record.
type SimWork struct {
	Events  uint64
	Records uint64
}

// Plus returns the sum of two jobs' work.
func (w SimWork) Plus(o SimWork) SimWork {
	return SimWork{Events: w.Events + o.Events, Records: w.Records + o.Records}
}

// jobTiming is the measured wall-clock execution of one simulation
// job. Wall is host time (time.Duration, nanoseconds), not simulated
// time: it measures how long the job occupied a worker, so parallel
// speedup is observable.
type jobTiming struct {
	// Label identifies the job ("fig5/OLTP-St/dma-ta/cp=0.10").
	Label string
	// Wall is the job's wall-clock execution time.
	Wall time.Duration
	// Work is what the job simulated (zero when it did not report it).
	Work SimWork
}

// Timings accumulates per-job wall-clock measurements from
// concurrently executing workers. The zero value is ready to use; Add
// is safe to call from multiple goroutines. Timings are observability
// only — they never feed back into simulation results, which stay
// bit-identical at any parallelism.
type Timings struct {
	mu     sync.Mutex
	jobs   []jobTiming
	allocs uint64 // process-wide allocation count over the run, see SetAllocs
}

// AddSim records one finished job together with what it simulated.
// It is safe for concurrent use.
func (t *Timings) AddSim(label string, wall time.Duration, work SimWork) {
	t.mu.Lock()
	t.jobs = append(t.jobs, jobTiming{Label: label, Wall: wall, Work: work})
	t.mu.Unlock()
}

// SetAllocs records the process-wide heap allocation count observed
// over the run (a runtime.MemStats.Mallocs delta). Zero (the initial
// state) means "not measured" and suppresses allocs/record reporting.
func (t *Timings) SetAllocs(n uint64) {
	t.mu.Lock()
	t.allocs = n
	t.mu.Unlock()
}

// totalSim returns the simulated work summed over all recorded jobs.
func (t *Timings) totalSim() SimWork {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum SimWork
	for _, j := range t.jobs {
		sum = sum.Plus(j.Work)
	}
	return sum
}

// allocsPerRecord returns the recorded allocation count divided by the
// total trace record count, or 0 when either was not measured.
func (t *Timings) allocsPerRecord() float64 {
	recs := t.totalSim().Records
	t.mu.Lock()
	allocs := t.allocs
	t.mu.Unlock()
	if recs == 0 || allocs == 0 {
		return 0
	}
	return float64(allocs) / float64(recs)
}

// sortedJobs returns a copy of the recorded jobs sorted by label (workers
// finish in nondeterministic order; sorting makes renderings stable).
func (t *Timings) sortedJobs() []jobTiming {
	t.mu.Lock()
	out := append([]jobTiming(nil), t.jobs...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Wall < out[j].Wall
	})
	return out
}

// totalWork returns the sum of all job wall times: the time the same
// jobs would occupy a single worker back to back.
func (t *Timings) totalWork() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, j := range t.jobs {
		sum += j.Wall
	}
	return sum
}

// speedup returns totalWork divided by the observed elapsed wall time:
// ~1 on one worker, approaching the worker count when independent jobs
// fill the pool. Zero elapsed returns 0. When workers outnumber CPU
// cores, timesharing inflates each job's wall time (preempted time
// still counts), so Speedup overstates the real gain — compare elapsed
// time against a -parallel 1 run for the honest number.
func (t *Timings) speedup(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(t.totalWork()) / float64(elapsed)
}

// Summary renders a one-paragraph timing report for the given elapsed
// wall time: job count, total work, elapsed, speedup, what the jobs
// simulated (events and trace records, when jobs reported them), the
// throughput in trace records/sec per worker (allocs per record when
// SetAllocs was called), and the slowest jobs.
func (t *Timings) Summary(elapsed time.Duration) string {
	jobs := t.sortedJobs()
	var b strings.Builder
	fmt.Fprintf(&b, "timing: %d jobs, %v total work in %v wall (speedup %.2fx)\n",
		len(jobs), t.totalWork().Round(time.Millisecond),
		elapsed.Round(time.Millisecond), t.speedup(elapsed))
	if sw := t.totalSim(); sw.Records > 0 {
		fmt.Fprintf(&b, "  %d events, %d trace records", sw.Events, sw.Records)
		if work := t.totalWork(); work > 0 {
			fmt.Fprintf(&b, ", %.0f records/sec per worker", float64(sw.Records)/work.Seconds())
		}
		if apr := t.allocsPerRecord(); apr > 0 {
			fmt.Fprintf(&b, ", %.2f allocs/record", apr)
		}
		b.WriteString("\n")
	}
	slowest := append([]jobTiming(nil), jobs...)
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].Wall > slowest[j].Wall })
	if len(slowest) > 5 {
		slowest = slowest[:5]
	}
	for _, j := range slowest {
		fmt.Fprintf(&b, "  %-40s %v\n", j.Label, j.Wall.Round(time.Millisecond))
	}
	return b.String()
}
