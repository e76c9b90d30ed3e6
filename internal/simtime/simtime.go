// Package simtime provides a deterministic discrete-event simulation kernel:
// a virtual clock, a time-ordered event queue, and periodic timers.
//
// All HCPerf simulation components (task engine, vehicle dynamics,
// coordinators) schedule work on a single EventQueue and observe the same
// virtual clock, which makes every run exactly reproducible for a given
// seed and configuration.
//
// The pending-event store behind an EventQueue is pluggable (see Scheduler):
// the default is a hierarchical timer wheel tuned for the periodic-tick
// workloads the simulator generates, with a binary heap as the reference
// implementation. Both fire events in exactly the same (At, seq) order, so
// the choice is invisible to simulation results.
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

	seq  uint64
	next *event // intrusive slot-list link while parked in a wheel slot
}

// Scheduler is the pending-event store strategy behind an EventQueue. It is
// sealed: the two implementations are the hierarchical timer wheel
// (NewEventQueue, the default) and the reference binary heap
// (NewHeapEventQueue). Both fire events in identical (At, seq) order — the
// differential fuzz harness pins that equivalence — so scheduler choice
// never changes simulation results, only their cost.
type Scheduler interface {
	// push stores a pending event.
	push(ev *event)
	// pop removes and returns the earliest (At, seq) event, or returns nil
	// when none is pending.
	pop() *event
	// peekAt returns the instant of the earliest pending event.
	peekAt() (Time, bool)
}

// EventQueue is a discrete-event scheduler. The zero value is not usable;
// construct with NewEventQueue (timer wheel) or NewHeapEventQueue (binary
// heap).
type EventQueue struct {
	now Time
	sch Scheduler
	seq uint64
	// free recycles fired event records so steady-state Schedule/Step
	// allocates nothing.
	free []*event
}

// NewEventQueue returns an empty queue with the clock at zero, backed by the
// hierarchical timer wheel.
func NewEventQueue() *EventQueue { return &EventQueue{sch: &wheelScheduler{}} }

// NewHeapEventQueue returns an empty queue with the clock at zero, backed by
// the reference binary-heap scheduler. It exists for differential testing
// and benchmarking against the default wheel.
func NewHeapEventQueue() *EventQueue { return &EventQueue{sch: &heapScheduler{}} }

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
	q.sch.push(ev)
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
	ev := q.sch.pop()
	if ev == nil {
		return false
	}
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
	for {
		at, ok := q.sch.peekAt()
		if !ok || at > end {
			break
		}
		q.Step()
	}
	if end > q.now {
		q.now = end
	}
}

// Ticker fires fn every period seconds, starting at start. Changing the
// period takes effect from the next tick. Stop ends the ticks.
type Ticker struct {
	q      *EventQueue
	fn     func(now Time)
	tickFn func(now Time) // t.tick bound once; a method value allocates per use
	period Duration
	stop   bool
}

// NewTicker schedules a periodic callback. period must be > 0.
func (q *EventQueue) NewTicker(start Time, period Duration, fn func(now Time)) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("simtime: ticker period %v must be positive", period)
	}
	if fn == nil {
		return nil, errors.New("simtime: ticker with nil fn")
	}
	t := &Ticker{q: q, fn: fn, period: period}
	t.tickFn = t.tick
	if err := q.Schedule(start, t.tickFn); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Ticker) tick(now Time) {
	if t.stop {
		return
	}
	t.fn(now)
	if t.stop { // fn may have stopped us
		return
	}
	if err := t.q.Schedule(now+t.period, t.tickFn); err != nil {
		// Impossible by construction: now + period is strictly after the
		// queue's clock for the positive, finite periods NewTicker and
		// SetPeriod admit. A failure here means the ticker invariant was
		// broken by a simtime bug, not by the caller.
		panic(fmt.Sprintf("simtime: ticker invariant violated rescheduling period %v at %v: %v", t.period, now, err))
	}
}

// SetPeriod updates the tick interval from the next tick onward.
// Non-positive periods are rejected and leave the ticker unchanged.
func (t *Ticker) SetPeriod(period Duration) error {
	if period <= 0 {
		return fmt.Errorf("simtime: ticker period %v must be positive", period)
	}
	t.period = period
	return nil
}

// Stop ends the ticks: the tick already queued fires without calling fn
// and schedules no other.
func (t *Ticker) Stop() { t.stop = true }
