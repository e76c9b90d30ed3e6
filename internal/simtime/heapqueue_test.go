package simtime

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// queue is the API the scheduler tests drive. The EventQueue implements it,
// and heapQueue is its reference implementation.
type queue interface {
	Now() Time
	Schedule(at Time, fn func(now Time)) error
	After(d Duration, fn func(now Time)) error
	Step() bool
	RunUntil(end Time)
	NewTicker(start Time, period Duration, fn func(now Time)) error
}

// heapQueue is the reference event queue, the oracle of the differential
// tests: the EventQueue contract over a container/heap min-heap of
// (At, seq), with its own freelist and tickers.
type heapQueue struct {
	now  Time
	seq  uint64
	h    eventHeap
	free []*event
}

func (q *heapQueue) Now() Time { return q.now }

func (q *heapQueue) Schedule(at Time, fn func(now Time)) error {
	if math.IsNaN(float64(at)) || at < q.now || fn == nil {
		return fmt.Errorf("heap oracle: invalid schedule at %v (now %v)", at, q.now)
	}
	var ev *event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.At, ev.Fn, ev.seq = at, fn, q.seq
	q.seq++
	heap.Push(&q.h, ev)
	return nil
}

func (q *heapQueue) After(d Duration, fn func(now Time)) error {
	if d < 0 {
		d = 0
	}
	return q.Schedule(q.now+d, fn)
}

func (q *heapQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	ev := heap.Pop(&q.h).(*event)
	q.now = ev.At
	ev.Fn(q.now)
	ev.Fn = nil
	q.free = append(q.free, ev)
	return true
}

func (q *heapQueue) RunUntil(end Time) {
	for len(q.h) > 0 && q.h[0].At <= end {
		q.Step()
	}
	if end > q.now {
		q.now = end
	}
}

func (q *heapQueue) NewTicker(start Time, period Duration, fn func(now Time)) error {
	if period <= 0 || fn == nil {
		return errors.New("heap oracle: invalid ticker")
	}
	var tick func(now Time)
	tick = func(now Time) {
		fn(now)
		if err := q.Schedule(now+period, tick); err != nil {
			panic(err)
		}
	}
	return q.Schedule(start, tick)
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
