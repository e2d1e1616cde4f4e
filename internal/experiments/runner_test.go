package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dmamem/internal/metrics"
)

func TestRunnerNilSequentialOrder(t *testing.T) {
	var r *Runner
	var order []int
	jobs := make([]job, 5)
	for i := range jobs {
		i := i
		jobs[i] = job{Label: "seq", Run: func(context.Context) error {
			order = append(order, i)
			return nil
		}}
	}
	// A nil Runner runs on the calling goroutine — appending to a
	// shared slice without locks is safe and must preserve job order.
	if err := r.do(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}

func TestRunnerFirstErrorInJobOrder(t *testing.T) {
	sentinel := errors.New("boom")
	const failAt = 13
	var ran int32
	jobs := make([]job, 20)
	for i := range jobs {
		i := i
		jobs[i] = job{Label: "job-13", Run: func(context.Context) error {
			atomic.AddInt32(&ran, 1)
			if i == failAt {
				return sentinel
			}
			return nil
		}}
	}
	err := NewRunner(8).do(ctx, jobs)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "job-13") {
		t.Fatalf("error %q not labeled", err)
	}
}

func TestRunnerCancelSkipsSiblings(t *testing.T) {
	sentinel := errors.New("boom")
	var started int32
	jobs := make([]job, 64)
	for i := range jobs {
		i := i
		jobs[i] = job{Label: "j", Run: func(ctx context.Context) error {
			atomic.AddInt32(&started, 1)
			if i == 0 {
				return sentinel
			}
			// Siblings park until the failure cancels them.
			<-ctx.Done()
			return nil
		}}
	}
	if err := NewRunner(4).do(ctx, jobs); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	// The failure must abort the feed: far fewer than 64 jobs start.
	if n := atomic.LoadInt32(&started); n >= 64 {
		t.Fatalf("all %d jobs started despite early failure", n)
	}
}

func TestRunnerParentCancellation(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []job{{Label: "never", Run: func(context.Context) error {
		t.Error("job ran under canceled context")
		return nil
	}}}
	if err := NewRunner(1).do(canceled, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential: err = %v", err)
	}
	if err := NewRunner(4).do(canceled, append(jobs, jobs[0], jobs[0])); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel: err = %v", err)
	}
}

func TestMapJobsIndexStable(t *testing.T) {
	out, err := mapJobs(ctx, NewRunner(8), 32,
		func(i int) string { return "sq" },
		func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d: results not reassembled by index", i, v)
		}
	}
}

func TestRunnerRecordsTimings(t *testing.T) {
	r := NewRunner(2)
	r.Timings = &metrics.Timings{}
	jobs := make([]job, 6)
	for i := range jobs {
		jobs[i] = job{Label: "timed", Run: func(context.Context) error { return nil }}
	}
	if err := r.do(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	if got := timedJobs(r.Timings); got != len(jobs) {
		t.Fatalf("recorded %d timings, want %d", got, len(jobs))
	}
}

// TestRunnerSliceStridedDispatch pins the dispatch order: with W
// workers over n jobs the first W jobs to start are exactly
// {k*n/W : k < W}, the heads of W contiguous slices. The first wave
// holds at a gate until all W have started, so no worker takes a
// second job before the wave is recorded. The reported error is then
// still the lowest-indexed failure, not the first to happen, and a
// job that only returns the cancellation a failure caused masks
// nothing.
func TestRunnerSliceStridedDispatch(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{20, 4}, {22, 4}, {21, 3}, {9, 3}} {
		t.Run(fmt.Sprintf("n=%d/W=%d", tc.n, tc.workers), func(t *testing.T) {
			want := make([]int, tc.workers)
			for k := range want {
				want[k] = k * tc.n / tc.workers
			}
			var (
				mu      sync.Mutex
				started []int
				gate    = make(chan struct{})
			)
			// wave reports whether the first W starts are the strided
			// heads; only then do the heads play their failure roles,
			// so a wrong order fails the test instead of hanging it.
			wave := func() bool {
				mu.Lock()
				defer mu.Unlock()
				got := slices.Clone(started[:tc.workers])
				slices.Sort(got)
				return slices.Equal(got, want)
			}
			late, early := errors.New("late failure"), errors.New("early failure")
			jobs := make([]job, tc.n)
			for i := range jobs {
				i := i
				jobs[i] = job{Label: fmt.Sprintf("job-%d", i), Run: func(ctx context.Context) error {
					mu.Lock()
					started = append(started, i)
					first := len(started) <= tc.workers
					if len(started) == tc.workers {
						close(gate)
					}
					mu.Unlock()
					if !first {
						return nil
					}
					<-gate
					if !wave() {
						return nil
					}
					switch i {
					case want[0]: // echoes the cancellation only
						<-ctx.Done()
						return ctx.Err()
					case want[1]: // fails last, but ranks first
						<-ctx.Done()
						return late
					case want[tc.workers-1]: // fails first
						return early
					}
					return nil
				}}
			}
			err := NewRunner(tc.workers).do(ctx, jobs)
			if !wave() {
				t.Fatalf("first %d jobs started = %v, want %v", tc.workers, started[:tc.workers], want)
			}
			if label := fmt.Sprintf("job-%d: ", want[1]); !errors.Is(err, late) || !strings.HasPrefix(err.Error(), label) {
				t.Errorf("err = %v, want %q from %s", err, late, label)
			}
		})
	}
}

// timedJobs reads how many jobs a Timings recorded from its summary.
func timedJobs(tm *metrics.Timings) int {
	var n int
	fmt.Sscanf(tm.Summary(0), "timing: %d jobs", &n)
	return n
}
