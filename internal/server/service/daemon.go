package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"dmamem/internal/experiments"
	"dmamem/internal/metrics"
)

// Config parameterizes a Daemon. The zero value is a runnable
// single-box service: 2 workers, quota 16 jobs per tenant, a 512 KiB
// result cache, grid points run one at a time.
type Config struct {
	// Workers is the job-execution fleet size; <= 0 means 2. Each
	// worker runs one job at a time, so Workers bounds the daemon's
	// concurrent simulations.
	Workers int
	// TenantQuota is the per-tenant admission bound on queued plus
	// running jobs; 0 means 16, negative means unlimited.
	TenantQuota int
	// TenantWeights sets per-tenant fair-queueing weights; unlisted
	// tenants get weight 1. A weight-2 tenant receives twice the
	// service share of a weight-1 tenant under contention.
	TenantWeights map[string]float64
	// CacheBytes bounds the result bytes the cache holds; 0 means
	// DefaultCacheBytes, negative disables caching. An answer larger
	// than the budget is served but not cached.
	CacheBytes int
	// PointParallel is the per-job worker-goroutine budget for
	// grid jobs; <= 0 means 1 (serial, the reference).
	PointParallel int
	// MaxGridPoints rejects grid jobs resolving to more points at
	// admission; 0 means 4096, negative means unlimited.
	MaxGridPoints int
	// Log, when non-nil, receives one line per job state change.
	Log io.Writer
}

// DefaultCacheBytes is the result cache's default budget: room for
// about 500 report answers of about 1 KB each.
const DefaultCacheBytes = 512 << 10

// retainJobs bounds the finished jobs a daemon keeps answering for by
// ID. Older ones are retired, oldest first: their IDs answer
// errRetired, and resubmitting the job is a cache hit while its
// answer is cached. The bound is a count, not an age, so a daemon's
// memory is set by its caches, not by how many jobs it has answered.
const retainJobs = 1024

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.TenantQuota == 0 {
		c.TenantQuota = 16
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.PointParallel <= 0 {
		c.PointParallel = 1
	}
	if c.MaxGridPoints == 0 {
		c.MaxGridPoints = 4096
	}
	return c
}

// Job lifecycle states.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// Event is one entry of a job's progress stream: a lifecycle
// transition or a finished grid point.
type Event struct {
	// Seq is the event's position in the job's stream, from 0.
	Seq int
	// State is a lifecycle state ("queued", "running", "done",
	// "failed", "canceled") or "point" for a finished grid point.
	State string
	// Detail carries the point label, the error message, or "cache"
	// for a cache-served completion.
	Detail string `json:",omitempty"`
}

// JobStatus is the API view of one job.
type JobStatus struct {
	// ID is the daemon-assigned job identity ("job-000001").
	ID string
	// Tenant that submitted the job.
	Tenant string
	// Hash is the canonical config hash keying the result cache; two
	// jobs with equal hashes always have byte-identical results.
	Hash string
	// Status is the lifecycle state.
	Status string
	// Cached reports that the result was served from the cache
	// without running.
	Cached bool `json:",omitempty"`
	// Points is the grid point count (0 for report jobs).
	Points int `json:",omitempty"`
	// Error is the failure message of a failed job.
	Error string `json:",omitempty"`
}

// jobState is the daemon-internal record of one submission.
type jobState struct {
	id     string
	tenant string
	hash   string
	w      work
	points int
	tag    float64 // WFQ virtual finish tag, set by the scheduler

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	status string
	cached bool
	result []byte
	errmsg string
	events []Event
	wake   *sync.Cond
	done   chan struct{}
}

func newJobState(id, tenant, hash string, w work, points int, parent context.Context) *jobState {
	js := &jobState{
		id: id, tenant: tenant, hash: hash, w: w, points: points,
		status: StatusQueued,
		done:   make(chan struct{}),
	}
	js.wake = sync.NewCond(&js.mu)
	js.ctx, js.cancel = context.WithCancel(parent)
	return js
}

// event appends a progress event (not a state change).
func (js *jobState) event(state, detail string) {
	js.mu.Lock()
	js.events = append(js.events, Event{Seq: len(js.events), State: state, Detail: detail})
	js.wake.Broadcast()
	js.mu.Unlock()
}

// transition moves the job from one lifecycle state to another,
// appending the matching event. A move to a terminal state goes
// through Daemon.end, which releases the job's waiters. It returns false (and does nothing)
// when the job is not in the expected state — the worker/cancel race
// is resolved by whoever transitions first.
func (js *jobState) transition(from, to, detail string) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.status != from {
		return false
	}
	js.status = to
	js.events = append(js.events, Event{Seq: len(js.events), State: to, Detail: detail})
	if terminal(to) {
		js.cancel() // release the context either way
	}
	js.wake.Broadcast()
	return true
}

// statusView snapshots the API view.
func (js *jobState) statusView() JobStatus {
	_, st := js.resultView()
	return st
}

// waitEvent blocks until event seq exists (returning it) or ctx ends.
func (js *jobState) waitEvent(ctx context.Context, seq int) (Event, bool) {
	stop := context.AfterFunc(ctx, func() {
		js.mu.Lock()
		js.wake.Broadcast()
		js.mu.Unlock()
	})
	defer stop()
	js.mu.Lock()
	defer js.mu.Unlock()
	for seq >= len(js.events) {
		if ctx.Err() != nil {
			return Event{}, false
		}
		js.wake.Wait()
	}
	return js.events[seq], true
}

// errUnknownJob is the lookup error for an ID the daemon never
// issued; handlers map it to HTTP 404.
var errUnknownJob = errors.New("service: unknown job")

// errRetired is the lookup error for a job that finished and was
// retired past the daemon's retention bound; handlers map it to HTTP
// 410. Resubmitting the job answers it again.
var errRetired = errors.New("service: job retired")

// Daemon is the simulation service: a bounded worker fleet draining a
// weighted fair queue of tenant jobs, with a canonical-hash result
// cache in front. Create one with New and stop it with Close.
type Daemon struct {
	cfg      Config
	sched    *scheduler
	cache    *resultCache
	counters *metrics.Counters

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*jobState
	// seq is the last issued job number: IDs job-000001 to seq name
	// accepted jobs, since a rejected submission takes no number.
	seq    int
	closed bool
	// finished is a ring of the finished jobs still in jobs, nfinished
	// of them from head on, oldest first. Once it is full, each job
	// that finishes retires the oldest. Its length is the retention
	// bound: retainJobs, or less in tests.
	finished      []finishedJob
	head          int
	nfinished     int
	retainedBytes int // result bytes of the finished jobs in the ring

	// runningHook, when set (tests only), runs after a job enters the
	// running state and before it executes — the deterministic seam
	// for exercising mid-job cancellation without racing a simulation.
	runningHook func(*jobState)
}

// finishedJob is one entry of the retention ring.
type finishedJob struct {
	id    string
	bytes int // length of the job's result
}

// New starts a daemon with cfg's worker fleet running.
func New(cfg Config) *Daemon {
	d := newPaused(cfg)
	d.startWorkers(d.cfg.Workers)
	return d
}

// newPaused builds a daemon without starting workers — the test
// seam that makes scheduling order observable: submit first, then
// startWorkers.
func newPaused(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:      cfg,
		sched:    newScheduler(cfg.TenantQuota, cfg.TenantWeights),
		cache:    newResultCache(cfg.CacheBytes),
		counters: &metrics.Counters{},
		jobs:     map[string]*jobState{},
		finished: make([]finishedJob, retainJobs),
	}
	d.baseCtx, d.cancel = context.WithCancel(context.Background())
	return d
}

func (d *Daemon) startWorkers(n int) {
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go d.worker()
	}
}

// Close stops accepting jobs, cancels everything queued or running,
// and waits for the workers to drain.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	d.cancel() // cancels every job context
	d.sched.close()
	d.wg.Wait()
}

// retained reports what the daemon holds beyond its running work: the
// finished jobs it still answers for by ID, the result bytes they
// reference, and the result bytes in the cache. The first two share
// bytes with the third whenever a kept job's answer is also cached.
func (d *Daemon) retained() (jobs, resultBytes, cacheBytes int) {
	d.mu.Lock()
	jobs, resultBytes = d.nfinished, d.retainedBytes
	d.mu.Unlock()
	return jobs, resultBytes, d.cache.size()
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Log != nil {
		fmt.Fprintf(d.cfg.Log, format+"\n", args...)
	}
}

// submit validates, normalizes and enqueues one job, and returns the
// job itself, which stays valid after the daemon retires its ID. The
// cache fast path completes the job immediately — without occupying a
// worker or consuming quota — when a canonical twin already ran. The
// error is a *quotaError for admission rejections and wraps errBadJob
// for validation failures.
func (d *Daemon) submit(j Job) (*jobState, error) {
	w, points, err := j.normalize(d.cfg.MaxGridPoints)
	if err != nil {
		d.counters.Add("jobs_rejected", 1)
		return nil, err
	}
	hash, err := experiments.CanonicalHash(w)
	if err != nil {
		return nil, fmt.Errorf("service: hashing job: %w", err)
	}
	tenant := j.Tenant
	if tenant == "" {
		tenant = "default"
	}

	// Admission runs under d.mu, so the job takes the next number
	// only once it is accepted.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, errSchedClosed
	}
	id := fmt.Sprintf("job-%06d", d.seq+1)
	js := newJobState(id, tenant, hash, w, points, d.baseCtx)
	cached, hit := d.cache.get(hash)
	if !hit {
		js.event(StatusQueued, "")
		if err := d.sched.submit(js); err != nil {
			d.mu.Unlock()
			js.cancel()
			var qe *quotaError
			if errors.As(err, &qe) {
				d.counters.Add("jobs_rejected_quota", 1)
			}
			return nil, err
		}
	}
	d.seq++
	d.jobs[id] = js
	d.mu.Unlock()
	d.counters.Add("jobs_submitted", 1)

	if hit {
		js.mu.Lock()
		js.cached = true
		js.result = cached
		js.mu.Unlock()
		d.end(js, StatusQueued, StatusDone, "cache", "cache_hits", "jobs_completed")
		d.logf("job %s (tenant %s): served from cache (%s)", id, tenant, hash[:12])
		return js, nil
	}
	d.logf("job %s (tenant %s): queued (%s)", id, tenant, hash[:12])
	return js, nil
}

// end moves js from state from to the terminal state to, as
// transition does, adds one to each named counter, and keeps js among
// the finished jobs, retiring the oldest one past the bound. Only then
// does it release the job's waiters, so a client answered through
// ?wait=1 finds its job already in the counters and gauges. It does
// nothing when js is not in state from: the worker/cancel race is
// settled, and counted, by whoever moves the job first.
func (d *Daemon) end(js *jobState, from, to, detail string, counters ...string) {
	if !js.transition(from, to, detail) {
		return
	}
	for _, name := range counters {
		d.counters.Add(name, 1)
	}
	js.mu.Lock()
	f := finishedJob{id: js.id, bytes: len(js.result)}
	js.mu.Unlock()
	d.mu.Lock()
	if d.nfinished == len(d.finished) {
		old := d.finished[d.head]
		delete(d.jobs, old.id)
		d.retainedBytes -= old.bytes
		d.head = (d.head + 1) % len(d.finished)
		d.nfinished--
	}
	d.finished[(d.head+d.nfinished)%len(d.finished)] = f
	d.nfinished++
	d.retainedBytes += f.bytes
	d.mu.Unlock()
	close(js.done)
}

// worker drains the fair queue until the scheduler closes.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		js, ok := d.sched.next()
		if !ok {
			return
		}
		d.runJob(js)
		d.sched.finish(js.tenant)
	}
}

// runJob executes one dequeued job, resolving the cancel/run race
// through the state machine.
func (d *Daemon) runJob(js *jobState) {
	if js.ctx.Err() != nil {
		// Canceled (or daemon shutdown) while queued; the transition
		// fails when an explicit Cancel already completed the job, in
		// which case that side counted it.
		d.end(js, StatusQueued, StatusCanceled, js.ctx.Err().Error(), "jobs_canceled")
		return
	}
	if !js.transition(StatusQueued, StatusRunning, "") {
		return // canceled concurrently; the canceling side counted it
	}
	d.logf("job %s (tenant %s): running", js.id, js.tenant)
	d.counters.Add("runs", 1)
	if d.runningHook != nil {
		d.runningHook(js)
	}
	result, err := d.execute(js)
	if err != nil {
		if js.ctx.Err() != nil {
			d.end(js, StatusRunning, StatusCanceled, err.Error(), "jobs_canceled")
			d.logf("job %s (tenant %s): canceled", js.id, js.tenant)
			return
		}
		js.mu.Lock()
		js.errmsg = err.Error()
		js.mu.Unlock()
		d.end(js, StatusRunning, StatusFailed, err.Error(), "jobs_failed")
		d.logf("job %s (tenant %s): failed: %v", js.id, js.tenant, err)
		return
	}
	d.cache.put(js.hash, result)
	js.mu.Lock()
	js.result = result
	js.mu.Unlock()
	d.end(js, StatusRunning, StatusDone, "", "jobs_completed")
	d.logf("job %s (tenant %s): done (%d bytes)", js.id, js.tenant, len(result))
}

// execute runs the job's work spec and returns the canonical result
// bytes. Errors are wrapped with the job and tenant identity, so a
// failure deep in a grid point still names whose sweep it broke
// ("job-000007 (tenant acme): fig5/OLTP-St/dma-ta/cp=0.10: ...").
func (d *Daemon) execute(js *jobState) ([]byte, error) {
	var (
		result []byte
		err    error
	)
	switch {
	case js.w.Report != nil:
		var rep any
		rep, err = experiments.RunReport(js.ctx, *js.w.Report)
		if err == nil {
			result, err = experiments.CanonicalJSON(rep)
		}
	case js.w.Grid != nil:
		result, err = d.executeGrid(js)
	default:
		err = errors.New("empty work spec")
	}
	if err != nil {
		return nil, fmt.Errorf("service: job %s (tenant %s): %w", js.id, js.tenant, err)
	}
	return result, nil
}

// executeGrid runs a grid job's points on up to PointParallel
// goroutines and returns the canonical point array.
func (d *Daemon) executeGrid(js *jobState) ([]byte, error) {
	gw := js.w.Grid
	s := experiments.NewSuiteFromSpec(gw.Suite)
	if d.cfg.PointParallel > 1 {
		s.Runner = &experiments.Runner{Parallel: d.cfg.PointParallel}
	}
	points, err := experiments.GridRunRaw(js.ctx, s, gw.Grid, func(i int, label string) {
		js.event("point", label)
		d.counters.Add("grid_points", 1)
	})
	if err != nil {
		return nil, err
	}
	return experiments.CanonicalJSON(points)
}

// get looks a job up by ID. The error wraps errRetired for a job
// retired past the retention bound and errUnknownJob for an ID the
// daemon never issued.
func (d *Daemon) get(id string) (*jobState, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if js, ok := d.jobs[id]; ok {
		return js, nil
	}
	digits, _ := strings.CutPrefix(id, "job-")
	if n, err := strconv.Atoi(digits); err == nil && n >= 1 && n <= d.seq && fmt.Sprintf("job-%06d", n) == id {
		return nil, fmt.Errorf("%w: %s finished and the daemon keeps only its last %d finished jobs; resubmit the job to get its answer (a cache hit while it is cached)",
			errRetired, id, len(d.finished))
	}
	return nil, fmt.Errorf("%w %q", errUnknownJob, id)
}

// resultView snapshots the result bytes and the API view together.
func (js *jobState) resultView() ([]byte, JobStatus) {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.result, JobStatus{
		ID: js.id, Tenant: js.tenant, Hash: js.hash, Status: js.status,
		Cached: js.cached, Points: js.points, Error: js.errmsg,
	}
}

// cancelJob cancels a job: queued jobs complete as canceled immediately,
// running jobs abort through their context within microseconds of
// simulated dispatch. Canceling a terminal job is a no-op.
func (d *Daemon) cancelJob(id string) (JobStatus, error) {
	js, err := d.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	d.end(js, StatusQueued, StatusCanceled, "canceled before running", "jobs_canceled")
	js.cancel() // aborts a running simulation mid-flight
	return js.statusView(), nil
}

// wait blocks until js reaches a terminal state or ctx ends.
func (js *jobState) wait(ctx context.Context) (JobStatus, error) {
	select {
	case <-js.done:
		return js.statusView(), nil
	case <-ctx.Done():
		return js.statusView(), ctx.Err()
	}
}
