package simtime

import (
	"fmt"
	"testing"
)

// both runs the same subtest against the EventQueue and its heap oracle, so
// the oracle the differential tests trust behaves as the queue does.
func both(t *testing.T, f func(t *testing.T, q queue)) {
	t.Helper()
	t.Run("sorted", func(t *testing.T) { f(t, NewEventQueue()) })
	t.Run("heap", func(t *testing.T) { f(t, &heapQueue{}) })
}

// drain steps q until no event is pending.
func drain(q *EventQueue) {
	for q.Step() {
	}
}

// TestFarApartInstants schedules, in reverse order, instants from a tenth
// of a millisecond to a day apart, with a tie, and checks the global firing
// order.
func TestFarApartInstants(t *testing.T) {
	q := NewEventQueue()
	ats := []Time{0.0001, 0.01, 0.2, 1.5, 30, 63.9, 64, 500, 500, 4096.25, 100000}
	var got []Time
	for i := len(ats) - 1; i >= 0; i-- {
		if err := q.Schedule(ats[i], func(now Time) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	drain(q)
	if fmt.Sprint(got) != fmt.Sprint(ats) {
		t.Fatalf("fired at %v, want %v", got, ats)
	}
}

// TestFarFutureInstants schedules instants beyond 2^42 s, where float64
// instants lie about a millisecond apart, among a near one: they fire in
// exact (At, seq) order.
func TestFarFutureInstants(t *testing.T) {
	q := NewEventQueue()
	far := Time(1 << 42)
	var got []Time
	for _, at := range []Time{far + 3, far + 1, far + 2, far + 1} {
		if err := q.Schedule(at, func(now Time) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Schedule(1, func(now Time) { got = append(got, now) }); err != nil {
		t.Fatal(err)
	}
	drain(q)
	want := []Time{1, far + 1, far + 1, far + 2, far + 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestSteadyStateZeroAllocs pins the freelist contract: once warmed up, a
// schedule→step cycle and a ticker's tick allocate nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	both(t, func(t *testing.T, q queue) {
		fn := func(Time) {}
		// Warm-up: populate the freelist and the pending store's capacity.
		for i := 0; i < 64; i++ {
			if err := q.After(0.001, fn); err != nil {
				t.Fatal(err)
			}
		}
		for q.Step() {
		}
		allocs := testing.AllocsPerRun(100, func() {
			_ = q.After(0.001, fn)
			q.Step()
		})
		if allocs != 0 {
			t.Errorf("schedule/step steady state: %v allocs/op, want 0", allocs)
		}
		if err := q.NewTicker(q.Now(), 0.001, fn); err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(100, func() { q.Step() })
		if allocs != 0 {
			t.Errorf("ticker tick steady state: %v allocs/op, want 0", allocs)
		}
	})
}

// TestResetDropsPendingEvents pins the reset a fleet reuses one queue by:
// pending events never fire, their tickers stay silent, the clock restarts
// at zero and the dropped records serve the next run without allocating.
func TestResetDropsPendingEvents(t *testing.T) {
	q := NewEventQueue()
	fired := 0
	fn := func(Time) { fired++ }
	if err := q.NewTicker(0, 0.01, fn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := q.Schedule(5+Time(i), fn); err != nil {
			t.Fatal(err)
		}
	}
	q.RunUntil(1)
	before := fired
	q.Reset()
	if q.Now() != 0 {
		t.Fatalf("clock at %v after Reset, want 0", q.Now())
	}
	q.RunUntil(100)
	if fired != before {
		t.Fatalf("%d dropped events fired after Reset", fired-before)
	}
	allocs := testing.AllocsPerRun(1, func() {
		q.Reset()
		for i := 0; i < 9; i++ {
			_ = q.Schedule(Time(i), fn)
		}
		q.RunUntil(10)
	})
	if allocs != 0 {
		t.Errorf("a run of 9 events after Reset: %v allocs, want 0", allocs)
	}
}

// TestSortedAndHeapIdenticalSequences is the deterministic sibling of
// FuzzSchedulerEquivalence: a fixed pseudo-random script replayed on the
// EventQueue and on the heap oracle must fire at identical instants in
// identical order.
func TestSortedAndHeapIdenticalSequences(t *testing.T) {
	script := make([]byte, 0, 4096)
	s := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4096; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		script = append(script, byte(s))
	}
	sorted := runSchedulerScript(NewEventQueue(), script)
	heap := runSchedulerScript(&heapQueue{}, script)
	if fmt.Sprint(sorted) != fmt.Sprint(heap) {
		t.Fatalf("queue fired %d events, heap oracle fired %d; sequences differ", len(sorted), len(heap))
	}
}
