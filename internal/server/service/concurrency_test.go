package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmamem/internal/experiments"
)

// noopJob builds a fast sweep job (no simulation runs) for scheduler
// and lifecycle tests. Distinct point counts give distinct cache
// hashes.
func noopJob(tenant string, points int) Job {
	return Job{Tenant: tenant, Grid: &experiments.GridSpec{Name: "noop", Points: points}}
}

// TestSchedulerWeightedFairOrder pins the WFQ dispatch order exactly:
// with tenant A at weight 2 and B at weight 1, both backlogged, the
// scheduler serves A twice for every B, deterministically.
func TestSchedulerWeightedFairOrder(t *testing.T) {
	s := newScheduler(0, map[string]float64{"a": 2, "b": 1})
	mk := func(tenant string, i int) *jobState {
		js := newJobState(fmt.Sprintf("%s-%d", tenant, i), tenant, "", work{}, 0, context.Background())
		return js
	}
	for i := 0; i < 6; i++ {
		if err := s.submit(mk("a", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.submit(mk("b", i)); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 9; i++ {
		js, ok := s.next()
		if !ok {
			t.Fatal("scheduler closed early")
		}
		order = append(order, js.tenant)
		s.finish(js.tenant)
	}
	got := strings.Join(order, "")
	// A's tags: 0.5, 1.0, 1.5, ...; B's: 1, 2, 3. Ties go to the
	// first tenant in name order (a), so the service pattern is aab
	// repeating — exactly the 2:1 weighted share.
	if want := "aabaabaab"; got != want {
		t.Fatalf("dispatch order %q, want %q", got, want)
	}
}

// TestSchedulerEqualWeightsInterleave checks the unweighted case:
// equal tenants alternate instead of one FIFO starving the other,
// no matter who flooded the queue first.
func TestSchedulerEqualWeightsInterleave(t *testing.T) {
	s := newScheduler(0, nil)
	for i := 0; i < 4; i++ {
		if err := s.submit(newJobState(fmt.Sprintf("x-%d", i), "x", "", work{}, 0, context.Background())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.submit(newJobState(fmt.Sprintf("y-%d", i), "y", "", work{}, 0, context.Background())); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 8; i++ {
		js, ok := s.next()
		if !ok {
			t.Fatal("scheduler closed early")
		}
		order = append(order, js.tenant)
		s.finish(js.tenant)
	}
	if got := strings.Join(order, ""); got != "xyxyxyxy" {
		t.Fatalf("dispatch order %q, want alternating xyxyxyxy", got)
	}
}

// TestDaemonFairDispatchOrder drives the same property through the
// whole daemon: jobs submitted while the fleet is paused are executed
// in weighted fair order once a single worker starts.
func TestDaemonFairDispatchOrder(t *testing.T) {
	d := newPaused(Config{TenantWeights: map[string]float64{"heavy": 2, "light": 1}})
	defer d.Close()

	var mu sync.Mutex
	var ran []string
	d.cfg.Log = writerFunc(func(p []byte) (int, error) {
		line := string(p)
		if strings.Contains(line, ": running") {
			mu.Lock()
			switch {
			case strings.Contains(line, "tenant heavy"):
				ran = append(ran, "h")
			case strings.Contains(line, "tenant light"):
				ran = append(ran, "l")
			}
			mu.Unlock()
		}
		return len(p), nil
	})

	var ids []string
	for i := 0; i < 6; i++ {
		st, err := submitJob(d, noopJob("heavy", 100+i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i := 0; i < 3; i++ {
		st, err := submitJob(d, noopJob("light", 200+i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	d.startWorkers(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		st, err := waitJob(ctx, d, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.Status != StatusDone {
			t.Fatalf("job %s finished %q: %s", id, st.Status, st.Error)
		}
	}
	mu.Lock()
	got := strings.Join(ran, "")
	mu.Unlock()
	if want := "hhlhhlhhl"; got != want {
		t.Fatalf("execution order %q, want %q", got, want)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMultiTenantConcurrentJobs is the -race stress gate: N tenants
// submit M jobs each from concurrent goroutines while a small fleet
// drains them. Every job completes, the counters balance, and every
// tenant's quota accounting returns to zero (a leak would make a
// follow-up submission fail).
func TestMultiTenantConcurrentJobs(t *testing.T) {
	const tenants, jobsPer = 4, 8
	d := New(Config{Workers: 4, TenantQuota: jobsPer + 1})
	defer d.Close()

	ids := make(chan string, tenants*jobsPer)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		ti := ti
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsPer; i++ {
				st, err := submitJob(d, noopJob(fmt.Sprintf("tenant-%d", ti), 1000+ti*jobsPer+i))
				if err != nil {
					t.Errorf("tenant %d job %d: %v", ti, i, err)
					return
				}
				ids <- st.ID
			}
		}()
	}
	wg.Wait()
	close(ids)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for id := range ids {
		st, err := waitJob(ctx, d, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.Status != StatusDone {
			t.Fatalf("job %s finished %q: %s", id, st.Status, st.Error)
		}
	}
	if got := counter(t, d, "jobs_completed"); got != tenants*jobsPer {
		t.Errorf("jobs_completed = %d, want %d", got, tenants*jobsPer)
	}
	if got := counter(t, d, "runs"); got != tenants*jobsPer {
		t.Errorf("runs = %d, want %d (every job distinct, no cache hits)", got, tenants*jobsPer)
	}
	// Quota accounting drained: every tenant can fill its quota again.
	for ti := 0; ti < tenants; ti++ {
		if _, err := submitJob(d, noopJob(fmt.Sprintf("tenant-%d", ti), 3000+ti)); err != nil {
			t.Errorf("tenant %d blocked after drain: %v", ti, err)
		}
	}
}

// TestCacheHitSkipsRun pins the result-cache fast path with an
// instrumented run counter: the second submission of an identical job
// completes immediately as a cache hit, byte-identical result, no
// second simulation.
func TestCacheHitSkipsRun(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	job := Job{Tenant: "a", Workload: "Synthetic-St"}
	st1, err := submitJob(d, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitJob(ctx, d, st1.ID); err != nil {
		t.Fatal(err)
	}
	r1, st1b, _ := resultOf(d, st1.ID)
	if st1b.Status != StatusDone || st1b.Cached {
		t.Fatalf("first run: %+v", st1b)
	}
	if got := counter(t, d, "runs"); got != 1 {
		t.Fatalf("runs after first job = %d, want 1", got)
	}

	// Same spec from a different tenant: served from cache, no run.
	st2, err := submitJob(d, Job{Tenant: "b", Workload: "Synthetic-St"})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Status != StatusDone || !st2.Cached {
		t.Fatalf("second submission not a synchronous cache hit: %+v", st2)
	}
	if st2.Hash != st1b.Hash {
		t.Errorf("cache hit under a different hash: %s vs %s", st2.Hash, st1b.Hash)
	}
	r2, _, _ := resultOf(d, st2.ID)
	if string(r1) != string(r2) {
		t.Error("cached result differs from the original run")
	}
	if got := counter(t, d, "runs"); got != 1 {
		t.Errorf("runs after cache hit = %d, want still 1", got)
	}
	if got := counter(t, d, "cache_hits"); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}

	// A different seed is a different canonical spec: it must run, not
	// hit.
	st3, err := submitJob(d, Job{Tenant: "a", Workload: "Synthetic-St", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached {
		t.Error("seed variant was served from cache; it must run")
	}
	if _, err := waitJob(ctx, d, st3.ID); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, d, "runs"); got != 2 {
		t.Errorf("runs after seed variant = %d, want 2", got)
	}
}

// TestQuotaRejectionTyped pins admission control: submissions beyond
// the per-tenant quota fail loudly with a *quotaError naming the
// tenant and limits, other tenants are unaffected, and capacity
// frees once jobs finish.
func TestQuotaRejectionTyped(t *testing.T) {
	d := newPaused(Config{TenantQuota: 2})
	defer d.Close()

	for i := 0; i < 2; i++ {
		if _, err := submitJob(d, noopJob("greedy", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := submitJob(d, noopJob("greedy", 12))
	if err == nil {
		t.Fatal("third submission admitted over a quota of 2")
	}
	var qe *quotaError
	if !errors.As(err, &qe) {
		t.Fatalf("error %T is not a *quotaError: %v", err, err)
	}
	if qe.Tenant != "greedy" || qe.Active != 2 || qe.Limit != 2 {
		t.Errorf("quotaError fields %+v, want tenant greedy, active 2, limit 2", qe)
	}
	for _, want := range []string{`"greedy"`, "2 jobs queued or running", "limit 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("quota error %q does not mention %s", err, want)
		}
	}
	if got := counter(t, d, "jobs_rejected_quota"); got != 1 {
		t.Errorf("jobs_rejected_quota = %d, want 1", got)
	}

	// Admission is per tenant: a polite tenant is not collateral.
	if _, err := submitJob(d, noopJob("polite", 20)); err != nil {
		t.Errorf("other tenant rejected: %v", err)
	}

	// Draining the queue frees the quota.
	d.startWorkers(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := submitJob(d, noopJob("greedy", int(30+time.Now().UnixNano()%1000))); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never freed after the queue drained")
		}
		select {
		case <-ctx.Done():
			t.Fatal(ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up:
// it completes as canceled without ever running, and the worker that
// later dequeues it skips it cleanly.
func TestCancelQueuedJob(t *testing.T) {
	d := newPaused(Config{})
	defer d.Close()
	st, err := submitJob(d, noopJob("a", 5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.cancelJob(st.ID)
	if err != nil || got.Status != StatusCanceled {
		t.Fatalf("cancel: %+v, %v", got, err)
	}
	// Canceling again is a no-op, not a double transition.
	again, _ := d.cancelJob(st.ID)
	if again.Status != StatusCanceled {
		t.Fatalf("second cancel: %+v", again)
	}
	d.startWorkers(1)
	// Submit a live job behind it; when it completes, the canceled one
	// was necessarily dequeued and skipped without running.
	st2, err := submitJob(d, noopJob("a", 6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := waitJob(ctx, d, st2.ID); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, d, "runs"); got != 1 {
		t.Errorf("runs = %d, want 1 (the canceled job must not run)", got)
	}
	if got := counter(t, d, "jobs_canceled"); got != 1 {
		t.Errorf("jobs_canceled = %d, want 1", got)
	}
}

// TestCancelRunningJob tears down a mid-flight simulation through its
// context: the job ends canceled (not failed, not done), the worker
// survives to run the next job, and the daemon shuts down cleanly
// afterwards.
func TestCancelRunningJob(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// The hook fires after the job enters the running state and
	// before its simulation executes, so the cancel deterministically
	// lands mid-job — the simulation then dies on its first context
	// poll no matter how fast it is.
	canceled := make(chan string, 1)
	d.runningHook = func(js *jobState) {
		if _, err := d.cancelJob(js.id); err != nil {
			t.Errorf("cancel lost the running job: %v", err)
		}
		canceled <- js.id
	}
	st, err := submitJob(d, Job{Tenant: "a", Workload: "Synthetic-St", DurationMs: 100})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-canceled:
	case <-ctx.Done():
		t.Fatal("timed out waiting for the job to start")
	}
	d.runningHook = nil
	final, err := waitJob(ctx, d, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Fatalf("job finished %q, want canceled (error %q)", final.Status, final.Error)
	}
	// The result endpoint refuses politely.
	if result, stR, _ := resultOf(d, st.ID); len(result) != 0 || stR.Status != StatusCanceled {
		t.Errorf("canceled job leaked a result (%d bytes, %+v)", len(result), stR)
	}
	// The worker survives: a fresh fast job still completes.
	st2, err := submitJob(d, noopJob("a", 7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := waitJob(ctx, d, st2.ID)
	if err != nil || got.Status != StatusDone {
		t.Fatalf("follow-up job after cancel: %+v, %v", got, err)
	}
}

// TestDaemonCloseCancelsInFlight shuts the daemon down with queued
// work and requires Close to return (no hung worker, no leaked
// goroutine blocking on the scheduler).
func TestDaemonCloseCancelsInFlight(t *testing.T) {
	d := newPaused(Config{})
	for i := 0; i < 4; i++ {
		if _, err := submitJob(d, noopJob("a", 40+i)); err != nil {
			t.Fatal(err)
		}
	}
	d.startWorkers(2)
	done := make(chan struct{})
	go func() { d.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain the fleet")
	}
	// Submissions after close fail loudly.
	if _, err := submitJob(d, noopJob("a", 99)); !errors.Is(err, errSchedClosed) {
		t.Errorf("submit after close: %v, want errSchedClosed", err)
	}
}

// TestEventStreamOrdering holds every job to a monotonically
// sequenced event stream whose last entry is terminal — the contract
// the NDJSON endpoint relays.
func TestEventStreamOrdering(t *testing.T) {
	d := New(Config{Workers: 2})
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := submitJob(d, noopJob("a", 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitJob(ctx, d, st.ID); err != nil {
		t.Fatal(err)
	}
	js, _ := d.get(st.ID)
	js.mu.Lock()
	events := append([]Event(nil), js.events...)
	js.mu.Unlock()
	if len(events) < 3 {
		t.Fatalf("events %+v", events)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has Seq %d", i, ev.Seq)
		}
	}
	if events[0].State != StatusQueued {
		t.Errorf("first event %+v, want queued", events[0])
	}
	if last := events[len(events)-1]; last.State != StatusDone {
		t.Errorf("last event %+v, want done", last)
	}
	b, err := json.Marshal(events[0])
	if err != nil || !strings.Contains(string(b), `"State"`) {
		t.Errorf("event does not serialize cleanly: %s, %v", b, err)
	}
}

// TestIdleTenantsForgotten runs one job each for many tenants and
// requires the scheduler to hold no tenant state once they are done:
// its memory, and the per-dispatch scan over tenants, follow the
// tenants with work, not every tenant name ever seen.
func TestIdleTenantsForgotten(t *testing.T) {
	d := New(Config{Workers: 2})
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		st, err := submitJob(d, noopJob(fmt.Sprintf("tenant-%d", i), 1+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitJob(ctx, d, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Wait returns when the job is done, a moment before its worker
	// releases the tenant's quota.
	for {
		d.sched.mu.Lock()
		n := len(d.sched.tenants)
		d.sched.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("%d idle tenants still held after every job finished", n)
		case <-time.After(time.Millisecond):
		}
	}
}

// The daemon's API is its HTTP handler. These helpers drive the
// unexported paths the handler uses, and return what it would answer.

func submitJob(d *Daemon, j Job) (JobStatus, error) {
	js, err := d.submit(j)
	if err != nil {
		return JobStatus{}, err
	}
	return js.statusView(), nil
}

func waitJob(ctx context.Context, d *Daemon, id string) (JobStatus, error) {
	js, err := d.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	return js.wait(ctx)
}

func resultOf(d *Daemon, id string) ([]byte, JobStatus, error) {
	js, err := d.get(id)
	if err != nil {
		return nil, JobStatus{}, err
	}
	result, st := js.resultView()
	return result, st, nil
}

// counter reads one of the daemon's counters as /v1/metrics renders it.
func counter(t *testing.T, d *Daemon, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(d.counters.Render(""), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}
