package simtime

import "container/heap"

// heapScheduler is the reference Scheduler: a global binary min-heap over
// (At, seq). O(log n) per operation — the simplest store that satisfies the
// ordering contract, kept as the differential oracle for the timer wheel.
type heapScheduler struct{ h eventHeap }

func (s *heapScheduler) push(ev *event) { heap.Push(&s.h, ev) }

func (s *heapScheduler) pop() *event {
	if len(s.h) == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*event)
}

func (s *heapScheduler) peekAt() (Time, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	return s.h[0].At, true
}

// eventHeap orders events by (At, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
