package simtime

import (
	"fmt"
	"testing"
)

// both runs the same subtest against the wheel-backed (default) and
// heap-backed queues, so every behavior below is pinned on both schedulers.
func both(t *testing.T, f func(t *testing.T, q *EventQueue)) {
	t.Helper()
	t.Run("wheel", func(t *testing.T) { f(t, NewEventQueue()) })
	t.Run("heap", func(t *testing.T) { f(t, NewHeapEventQueue()) })
}

// drain steps q until no event is pending.
func drain(q *EventQueue) {
	for q.Step() {
	}
}

// TestTickerSetPeriodAfterSameInstantStopStart stops ticker A from inside its
// own callback and immediately starts ticker B at the same instant. A
// SetPeriod on B must take effect from B's next tick, and stopping A again
// must leave B alone.
func TestTickerSetPeriodAfterSameInstantStopStart(t *testing.T) {
	both(t, func(t *testing.T, q *EventQueue) {
		var fires []Time
		var a, b *Ticker
		var err error
		a, err = q.NewTicker(0, 1, func(now Time) {
			a.Stop()
			b, err = q.NewTicker(now, 1, func(now Time) {
				fires = append(fires, now)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.SetPeriod(2); err != nil {
				t.Fatal(err)
			}
			a.Stop() // must be a no-op for b
		})
		if err != nil {
			t.Fatal(err)
		}
		q.RunUntil(5)
		// b starts at the same instant as a's only tick (t=0); its first tick
		// fires immediately, then the updated period of 2 applies.
		want := []Time{0, 2, 4}
		if fmt.Sprint(fires) != fmt.Sprint(want) {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	})
}

// TestWheelOverflowCascade schedules events far enough apart to live in the
// level-1 wheel and the overflow heap, interleaved with near events, and
// checks global firing order.
func TestWheelOverflowCascade(t *testing.T) {
	q := NewEventQueue()
	// Instants chosen to span all containers: sub-tick (drain after quantize),
	// level 0 (< 0.25 s), level 1 (< 64 s), overflow (>= 64 s), plus ties.
	ats := []Time{0.0001, 0.01, 0.2, 1.5, 30, 63.9, 64, 500, 500, 4096.25, 100000}
	var got []Time
	// Schedule in reverse to exercise out-of-order insertion.
	for i := len(ats) - 1; i >= 0; i-- {
		if err := q.Schedule(ats[i], func(now Time) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	drain(q)
	if len(got) != len(ats) {
		t.Fatalf("fired %d events, want %d", len(got), len(ats))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v after %v (all: %v)", i, got[i], got[i-1], got)
		}
	}
}

// TestWheelFarFutureClamp pins the beyond-horizon degradation: events past
// the quantization horizon share one clamped tick but still fire in exact
// (At, seq) order from the overflow heap.
func TestWheelFarFutureClamp(t *testing.T) {
	q := NewEventQueue()
	far := Time(float64(wheelHorizon)) // 2^52 ticks * 2^-10 s/tick = 2^42 s
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
// schedule→step cycle and a retimed ticker's tick allocate nothing, on both
// schedulers.
func TestSteadyStateZeroAllocs(t *testing.T) {
	both(t, func(t *testing.T, q *EventQueue) {
		fn := func(Time) {}
		// Warm-up: populate the freelist and container capacity.
		for i := 0; i < 64; i++ {
			if err := q.After(0.001, fn); err != nil {
				t.Fatal(err)
			}
		}
		drain(q)
		allocs := testing.AllocsPerRun(100, func() {
			_ = q.After(0.001, fn)
			q.Step()
		})
		if allocs != 0 {
			t.Errorf("schedule/step steady state: %v allocs/op, want 0", allocs)
		}
		tk, err := q.NewTicker(q.Now(), 0.001, fn)
		if err != nil {
			t.Fatal(err)
		}
		period := Duration(0.001)
		allocs = testing.AllocsPerRun(100, func() {
			period = 0.003 - period
			_ = tk.SetPeriod(period)
			q.Step()
		})
		if allocs != 0 {
			t.Errorf("ticker retime/step steady state: %v allocs/op, want 0", allocs)
		}
	})
}

// TestHeapAndWheelIdenticalSequences is the deterministic sibling of
// FuzzSchedulerEquivalence: a fixed pseudo-random script replayed on both
// queues must fire at identical instants in identical order.
func TestHeapAndWheelIdenticalSequences(t *testing.T) {
	script := make([]byte, 0, 4096)
	s := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4096; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		script = append(script, byte(s))
	}
	wheel := runSchedulerScript(NewEventQueue(), script)
	heap := runSchedulerScript(NewHeapEventQueue(), script)
	if fmt.Sprint(wheel) != fmt.Sprint(heap) {
		t.Fatalf("wheel fired %d events, heap fired %d; sequences differ", len(wheel), len(heap))
	}
}
