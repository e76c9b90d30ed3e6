// Package simtime provides a deterministic discrete-event simulation kernel:
// a virtual clock, a time-ordered event queue, and periodic timers.
//
// All HCPerf simulation components (task engine, vehicle dynamics,
// coordinators) schedule work on a single EventQueue and observe the same
// virtual clock, which makes every run exactly reproducible for a given
// seed and configuration.
//
// An EventQueue keeps its pending events in one slice sorted by (At, seq),
// the order they fire in. A queue carries one vehicle's loop, whose task
// graph and plant tickers bound it to a few dozen pending events, so a
// backward insertion scan costs less than a heap or a timer wheel.
package simtime

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a virtual simulation instant, measured in seconds from the start
// of the run. float64 seconds keeps the arithmetic in the same units the
// paper uses (periods, deadlines and execution times are all given in
// seconds or milliseconds).
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Common conversion helpers.
const (
	Millisecond Duration = 1e-3
	Second      Duration = 1
)

// FromDuration converts a time.Duration into virtual seconds.
func FromDuration(d time.Duration) Duration { return Duration(d.Seconds()) }

// ToDuration converts virtual seconds into a time.Duration.
func (t Time) ToDuration() time.Duration { return time.Duration(float64(t) * float64(time.Second)) }

// String renders the instant with millisecond precision, e.g. "12.340s".
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// event is a unit of scheduled work. Fn runs when the virtual clock reaches
// At. Events at the same instant run in scheduling order (FIFO), which keeps
// runs deterministic. Events are fire-and-forget: the queue hands out no
// handle, so a record can be recycled the moment its Fn returns.
type event struct {
	At Time
	Fn func(now Time)

	seq uint64
}

// EventQueue is a discrete-event scheduler. The zero value is not usable;
// construct with NewEventQueue.
type EventQueue struct {
	now Time
	seq uint64
	// pending holds the scheduled events sorted by (At, seq), earliest
	// last, so the next event pops off the end. seq is unique, so the
	// order is total and events fire in exactly the order of a heap.
	pending []*event
	// free recycles fired event records so steady-state Schedule/Step
	// allocates nothing.
	free []*event
}

// NewEventQueue returns an empty queue with the clock at zero.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Now returns the current virtual time.
func (q *EventQueue) Now() Time { return q.now }

// Schedule enqueues fn to run at the absolute instant at. Scheduling in the
// past (before Now), at NaN or with a nil fn is an error and enqueues
// nothing.
func (q *EventQueue) Schedule(at Time, fn func(now Time)) error {
	if math.IsNaN(float64(at)) {
		return fmt.Errorf("simtime: schedule at NaN")
	}
	if at < q.now {
		return fmt.Errorf("simtime: schedule at %v before now %v", at, q.now)
	}
	if fn == nil {
		return errors.New("simtime: schedule with nil fn")
	}
	var ev *event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.At = at
	ev.Fn = fn
	ev.seq = q.seq
	q.seq++
	// ev has the largest seq yet, so it fires after every pending event
	// at or before its instant: shift those up one place and put ev below
	// the first later one.
	p := append(q.pending, ev)
	i := len(p) - 1
	for ; i > 0 && p[i-1].At <= at; i-- {
		p[i] = p[i-1]
	}
	p[i] = ev
	q.pending = p
	return nil
}

// After enqueues fn to run d seconds from now. Negative delays are clamped
// to zero.
func (q *EventQueue) After(d Duration, fn func(now Time)) error {
	if d < 0 {
		d = 0
	}
	return q.Schedule(q.now+d, fn)
}

// Step executes the single earliest pending event, advancing the clock to
// its instant. It reports whether an event ran.
func (q *EventQueue) Step() bool {
	n := len(q.pending)
	if n == 0 {
		return false
	}
	ev := q.pending[n-1]
	q.pending[n-1] = nil
	q.pending = q.pending[:n-1]
	q.now = ev.At
	ev.Fn(q.now)
	// Recycled only after Fn returns: anything Fn scheduled drew from the
	// freelist before this record rejoined it.
	ev.Fn = nil
	q.free = append(q.free, ev)
	return true
}

// RunUntil executes events with At <= end, then advances the clock to end.
// Pending events after end stay queued.
func (q *EventQueue) RunUntil(end Time) {
	for len(q.pending) > 0 && q.pending[len(q.pending)-1].At <= end {
		q.Step()
	}
	if end > q.now {
		q.now = end
	}
}

// Reset drops every pending event unfired and restarts the clock at zero,
// so one queue can carry one run after another. The dropped records join
// the freelist, and a ticker whose tick was dropped never ticks again.
// Sequence numbers keep counting: they order only events of the same run.
func (q *EventQueue) Reset() {
	for i, ev := range q.pending {
		ev.Fn = nil
		q.free = append(q.free, ev)
		q.pending[i] = nil
	}
	q.pending = q.pending[:0]
	q.now = 0
}

// NewTicker fires fn every period seconds, starting at start. period must be
// positive. The ticks have no handle: a ticker runs until its queue stops
// stepping or is Reset.
func (q *EventQueue) NewTicker(start Time, period Duration, fn func(now Time)) error {
	if period <= 0 {
		return fmt.Errorf("simtime: ticker period %v must be positive", period)
	}
	if fn == nil {
		return errors.New("simtime: ticker with nil fn")
	}
	var tick func(now Time)
	tick = func(now Time) {
		fn(now)
		if err := q.Schedule(now+period, tick); err != nil {
			// Impossible by construction: now + period is strictly after
			// the queue's clock for the positive, finite periods NewTicker
			// admits. A failure here means a simtime bug, not a caller's.
			panic(fmt.Sprintf("simtime: ticker invariant violated rescheduling period %v at %v: %v", period, now, err))
		}
	}
	return q.Schedule(start, tick)
}
