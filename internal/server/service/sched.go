package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// quotaError is the typed admission-control rejection: the tenant
// already has its quota of jobs queued or running. Handlers map it to
// HTTP 429; callers detect it with errors.As.
type quotaError struct {
	// Tenant that was rejected.
	Tenant string
	// Active is the tenant's queued-plus-running job count at
	// rejection time.
	Active int
	// Limit is the per-tenant admission quota.
	Limit int
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over admission quota: %d jobs queued or running (limit %d)",
		e.Tenant, e.Active, e.Limit)
}

var errSchedClosed = errors.New("service: daemon is shutting down")

// tenantState is one tenant's scheduler view: a FIFO of its queued
// jobs, its weighted-fair-queueing virtual finish time, and its
// admission accounting.
type tenantState struct {
	name string
	// weight scales the tenant's service share; a weight-2 tenant
	// finishes twice the jobs of a weight-1 tenant under contention.
	weight float64
	queue  []*jobState
	// lastFinish is the virtual finish tag of the tenant's most
	// recently tagged job.
	lastFinish float64
	// active counts the tenant's queued plus running jobs (admission
	// control); decremented when a job leaves a worker.
	active int
}

// scheduler is a weighted fair queue over tenants. Every submitted
// job gets a virtual finish tag
//
//	tag = max(virtualTime, tenant.lastFinish) + 1/weight
//
// and workers always run the queued job with the smallest tag
// (ties broken by tenant name, so dispatch order is deterministic).
// Under contention each tenant therefore receives service
// proportional to its weight no matter how many jobs it floods into
// its own FIFO — the classic start-time fair queueing argument with
// unit job cost.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantState
	// vtime is the system virtual time: the largest finish tag ever
	// dispatched. New tenants join at vtime, so an idle tenant cannot
	// hoard credit.
	vtime   float64
	quota   int // per-tenant active bound; <= 0 means unlimited
	weights map[string]float64
	closed  bool
}

func newScheduler(quota int, weights map[string]float64) *scheduler {
	s := &scheduler{tenants: map[string]*tenantState{}, quota: quota, weights: weights}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *scheduler) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		w := s.weights[name]
		if w <= 0 {
			w = 1
		}
		ts = &tenantState{name: name, weight: w, lastFinish: s.vtime}
		s.tenants[name] = ts
	}
	return ts
}

// submit enqueues a job under its tenant, enforcing the admission
// quota. The returned error is a *quotaError when the tenant is over
// quota.
func (s *scheduler) submit(j *jobState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errSchedClosed
	}
	ts := s.tenant(j.tenant)
	if s.quota > 0 && ts.active >= s.quota {
		return &quotaError{Tenant: j.tenant, Active: ts.active, Limit: s.quota}
	}
	ts.active++
	tag := ts.lastFinish
	if s.vtime > tag {
		tag = s.vtime
	}
	tag += 1 / ts.weight
	ts.lastFinish = tag
	j.tag = tag
	ts.queue = append(ts.queue, j)
	s.cond.Signal()
	return nil
}

// next blocks until a job is available (returning the queued job with
// the smallest virtual finish tag) or the scheduler closes.
func (s *scheduler) next() (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var best *tenantState
		// Deterministic tie-break: scan tenants in name order.
		names := make([]string, 0, len(s.tenants))
		for name := range s.tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ts := s.tenants[name]
			if len(ts.queue) == 0 {
				continue
			}
			if best == nil || ts.queue[0].tag < best.queue[0].tag {
				best = ts
			}
		}
		if best != nil {
			j := best.queue[0]
			best.queue = best.queue[1:]
			if j.tag > s.vtime {
				s.vtime = j.tag
			}
			return j, true
		}
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
}

// finish releases one unit of the tenant's admission quota — called
// by the worker that dequeued the job, whether it ran, failed, or was
// already canceled. A tenant left with no job queued or running is
// forgotten: every job it had was dispatched, so its lastFinish is at
// most vtime, and it would rejoin at vtime just as a new tenant does.
// The scheduler's state thus grows with the tenants that have work,
// not with every tenant name it has seen.
func (s *scheduler) finish(tenant string) {
	s.mu.Lock()
	if ts, ok := s.tenants[tenant]; ok && ts.active > 0 {
		ts.active--
		if ts.active == 0 {
			delete(s.tenants, tenant)
		}
	}
	s.mu.Unlock()
}

// close wakes every blocked worker; next returns false once the
// queues drain.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
