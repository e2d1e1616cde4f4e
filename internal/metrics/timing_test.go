package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTimingsConcurrentAdd(t *testing.T) {
	var tm Timings // zero value ready to use
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm.AddSim("job", time.Millisecond, SimWork{})
		}()
	}
	wg.Wait()
	if got := len(tm.sortedJobs()); got != n {
		t.Fatalf("%d jobs, want %d", got, n)
	}
	if tm.totalWork() != n*time.Millisecond {
		t.Fatalf("totalWork = %v", tm.totalWork())
	}
}

func TestTimingsJobsSorted(t *testing.T) {
	var tm Timings
	tm.AddSim("c", 3*time.Millisecond, SimWork{})
	tm.AddSim("a", time.Millisecond, SimWork{})
	tm.AddSim("b", 2*time.Millisecond, SimWork{})
	jobs := tm.sortedJobs()
	if len(jobs) != 3 || jobs[0].Label != "a" || jobs[1].Label != "b" || jobs[2].Label != "c" {
		t.Fatalf("jobs not sorted by label: %+v", jobs)
	}
	// Jobs returns a copy: mutating it must not affect the accumulator.
	jobs[0].Wall = time.Hour
	if tm.totalWork() != 6*time.Millisecond {
		t.Fatal("Jobs did not copy")
	}
}

func TestTimingsSpeedup(t *testing.T) {
	var tm Timings
	tm.AddSim("a", 4*time.Second, SimWork{})
	tm.AddSim("b", 4*time.Second, SimWork{})
	if got := tm.speedup(2 * time.Second); got != 4.0 {
		t.Fatalf("Speedup = %g, want 4", got)
	}
	if got := tm.speedup(0); got != 0 {
		t.Fatalf("Speedup(0) = %g, want 0", got)
	}
}

func TestTimingsSummary(t *testing.T) {
	var tm Timings
	tm.AddSim("fig5/OLTP-St/dma-ta/cp=0.10", 10*time.Millisecond, SimWork{})
	tm.AddSim("fast", time.Millisecond, SimWork{})
	out := tm.Summary(11 * time.Millisecond)
	if !strings.Contains(out, "2 jobs") {
		t.Errorf("summary lacks job count:\n%s", out)
	}
	if !strings.Contains(out, "fig5/OLTP-St/dma-ta/cp=0.10") {
		t.Errorf("summary lacks slowest job:\n%s", out)
	}
	if strings.Contains(out, "records") {
		t.Errorf("summary reports throughput for jobs that simulated nothing:\n%s", out)
	}
}

// TestTimingsSummaryThroughput pins the throughput line: trace records
// per second of job wall time, with the dispatch count as a plain
// count (how many events a record costs depends on the event model,
// so events/sec would move without the work moving).
func TestTimingsSummaryThroughput(t *testing.T) {
	var tm Timings
	tm.AddSim("a", 2*time.Second, SimWork{Events: 700, Records: 300})
	tm.AddSim("b", 2*time.Second, SimWork{Events: 300, Records: 100})
	tm.SetAllocs(200)
	if got := tm.totalSim(); got != (SimWork{Events: 1000, Records: 400}) {
		t.Fatalf("totalSim = %+v, want 1000 events and 400 records", got)
	}
	out := tm.Summary(4 * time.Second)
	want := "  1000 events, 400 trace records, 100 records/sec per worker, 0.50 allocs/record\n"
	if !strings.Contains(out, want) {
		t.Errorf("summary lacks %q:\n%s", want, out)
	}
}
