package sim

import "container/heap"

// heapScheduler is the reference pending-event store: a binary heap
// ordered by (at, prio, seq) with O(log n) schedule, cancel and fire.
// It is the obviously correct implementation the timer wheel
// (wheel.go) is cross-checked against, store to store; see
// TestSchedulerEquivalence.
type heapScheduler struct{ q eventQueue }

func (h *heapScheduler) schedule(ev *event) { heap.Push(&h.q, ev) }
func (h *heapScheduler) unlink(ev *event)   { heap.Remove(&h.q, ev.index) }
func (h *heapScheduler) fire(ev *event)     { heap.Remove(&h.q, ev.index) }
func (h *heapScheduler) len() int           { return len(h.q) }

func (h *heapScheduler) peekMin() *event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

// eventQueue implements heap.Interface over pending events.
type eventQueue []*event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].less(q[j]) }
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
