package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dmamem/internal/metrics"
)

// job is one independent unit of experiment work — typically a single
// simulation run (one scheme over one workload at one sweep point).
// Jobs handed to the same Runner.Do call must not share mutable state:
// each runs its own sim.Engine, which is owned by exactly one
// goroutine (see the internal/sim package documentation).
type job struct {
	// Label identifies the job in errors and timing reports.
	Label string
	// Run does the work. It must confine all mutable state to the
	// calling goroutine; ctx is canceled when a sibling job fails or
	// the caller gives up.
	Run func(ctx context.Context) error
	// Work may be set by Run to what the job simulated; the runner
	// folds it into the timing report's throughput.
	Work metrics.SimWork
}

// simWorker is implemented by job results that know what they
// simulated (e.g. *core.Result); mapJobs uses it to fill Job.Work
// without the result types importing this package.
type simWorker interface{ Work() metrics.SimWork }

// Runner fans independent simulation jobs across a pool of worker
// goroutines. Results stay deterministic because parallelism only
// reorders *execution*: every job writes to its own pre-assigned slot,
// every simulation runs on its own single-goroutine engine, and
// callers reassemble outputs in job order. A nil *Runner is valid and
// runs jobs sequentially on the calling goroutine; the output is
// byte-identical either way.
type Runner struct {
	// Parallel is the number of worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0).
	Parallel int
	// Timings, when non-nil, records per-job wall-clock time so
	// speedup is observable. Timing is observability only and never
	// influences results.
	Timings *metrics.Timings
}

// NewRunner returns a Runner with the given worker count (<= 0 means
// GOMAXPROCS).
func NewRunner(parallel int) *Runner { return &Runner{Parallel: parallel} }

// workers resolves the effective pool size. A nil Runner is
// sequential.
func (r *Runner) workers() int {
	if r == nil {
		return 1
	}
	if r.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Parallel
}

// runOne executes one job, recording its wall-clock time and wrapping
// any error with the job label.
func (r *Runner) runOne(ctx context.Context, j *job) error {
	start := time.Now()
	err := j.Run(ctx)
	if r != nil && r.Timings != nil {
		r.Timings.AddSim(j.Label, time.Since(start), j.Work)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", j.Label, err)
	}
	return nil
}

// do executes the jobs across the worker pool and returns the first
// error in job order (not completion order), so error reporting is as
// deterministic as the results. When a job fails, the context passed
// to the remaining jobs is canceled and unstarted jobs are skipped; a
// job that merely returns that cancellation is not a failure of its
// own, so it cannot mask the error that caused it. A canceled parent
// context is returned as-is when no job failed.
//
// With W workers over n jobs, the pool starts jobs slice-strided:
// jobs 0, n/W, 2n/W, … first, then 1, n/W+1, …, as if the list were
// cut into W contiguous slices run side by side. Sweep grids list
// neighbouring points over the same workload, which share one
// single-flight trace and baseline; in list order every worker would
// start on one workload and wait for the same baseline, while strided
// workers start on different ones.
func (r *Runner) do(ctx context.Context, jobs []job) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := r.runOne(ctx, &jobs[i]); err != nil {
				return err
			}
		}
		return nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, len(jobs))
	next := make(chan int)
	go func() {
		defer close(next)
		n := len(jobs)
		for off := 0; off < (n+workers-1)/workers; off++ {
			for k := 0; k < workers; k++ {
				i := k*n/workers + off
				if i >= (k+1)*n/workers {
					continue // slice k is shorter by one
				}
				select {
				case next <- i:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				err := r.runOne(ctx, &jobs[i])
				if err != nil && (ctx.Err() == nil || !errors.Is(err, ctx.Err())) {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return parent.Err()
}

// mapJobs runs fn for every index in [0,n) on r's pool and returns the
// results indexed like the inputs — the reassembly step that keeps
// parallel output identical to sequential output regardless of
// completion order.
func mapJobs[R any](ctx context.Context, r *Runner, n int, label func(i int) string, fn func(ctx context.Context, i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	jobs := make([]job, n)
	for i := 0; i < n; i++ {
		i := i
		j := &jobs[i]
		*j = job{Label: label(i), Run: func(ctx context.Context) error {
			v, err := fn(ctx, i)
			if err != nil {
				return err
			}
			if sw, ok := any(v).(simWorker); ok {
				j.Work = sw.Work()
			}
			out[i] = v
			return nil
		}}
	}
	if err := r.do(ctx, jobs); err != nil {
		return nil, err
	}
	return out, nil
}
