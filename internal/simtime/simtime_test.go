package simtime

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	q := NewEventQueue()
	var got []Time
	for _, at := range []Time{3, 1, 2, 1.5} {
		at := at
		if err := q.Schedule(at, func(now Time) { got = append(got, now) }); err != nil {
			t.Fatalf("Schedule(%v): %v", at, err)
		}
	}
	drain(q)
	want := []Time{1, 1.5, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	q := NewEventQueue()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := q.Schedule(5, func(Time) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	drain(q)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	q := NewEventQueue()
	if err := q.Schedule(2, func(Time) {}); err != nil {
		t.Fatal(err)
	}
	if !q.Step() {
		t.Fatal("Step returned false with pending event")
	}
	if err := q.Schedule(1, func(Time) {}); err == nil {
		t.Error("scheduling in the past succeeded, want error")
	}
	if err := q.Schedule(Time(math.NaN()), func(Time) {}); err == nil {
		t.Error("scheduling at NaN succeeded, want error")
	}
	if err := q.Schedule(3, nil); err == nil {
		t.Error("scheduling nil fn succeeded, want error")
	}
}

func TestAfterClampsNegative(t *testing.T) {
	q := NewEventQueue()
	if err := q.Schedule(4, func(Time) {}); err != nil {
		t.Fatal(err)
	}
	q.Step()
	fired := false
	if err := q.After(-1, func(now Time) {
		fired = true
		if now != 4 {
			t.Errorf("After(-1) fired at %v, want 4 (clamped to now)", now)
		}
	}); err != nil {
		t.Fatal(err)
	}
	drain(q)
	if !fired {
		t.Error("After(-1) event never fired")
	}
}

func TestRunUntil(t *testing.T) {
	q := NewEventQueue()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		if err := q.Schedule(at, func(now Time) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	q.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(2.5) fired %d events, want 2", len(fired))
	}
	if q.Now() != 2.5 {
		t.Errorf("clock at %v after RunUntil(2.5), want 2.5", q.Now())
	}
	// The events after 2.5 stayed queued: they fire on the next run.
	q.RunUntil(10)
	if len(fired) != 4 {
		t.Errorf("fired %d events total, want 4", len(fired))
	}
	if q.Now() != 10 {
		t.Errorf("clock at %v, want 10", q.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	q := NewEventQueue()
	var fired []Time
	if err := q.Schedule(1, func(now Time) {
		fired = append(fired, now)
		if err := q.After(0.5, func(now Time) { fired = append(fired, now) }); err != nil {
			t.Errorf("nested schedule: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	drain(q)
	if len(fired) != 2 || fired[1] != 1.5 {
		t.Errorf("nested event fired at %v, want [1 1.5]", fired)
	}
}

func TestTicker(t *testing.T) {
	q := NewEventQueue()
	var ticks []Time
	if err := q.NewTicker(0, 0.1, func(now Time) { ticks = append(ticks, now) }); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(0.55)
	if len(ticks) != 6 { // 0.0 .. 0.5
		t.Fatalf("got %d ticks, want 6: %v", len(ticks), ticks)
	}
}

func TestTickerInvalid(t *testing.T) {
	q := NewEventQueue()
	if err := q.NewTicker(0, 0, func(Time) {}); err == nil {
		t.Error("NewTicker period 0 succeeded, want error")
	}
	if err := q.NewTicker(0, 1, nil); err == nil {
		t.Error("NewTicker nil fn succeeded, want error")
	}
}

func TestConversions(t *testing.T) {
	if got := FromDuration(1500 * time.Millisecond); got != 1.5 {
		t.Errorf("FromDuration = %v, want 1.5", got)
	}
	if got := Time(2.5).ToDuration(); got != 2500*time.Millisecond {
		t.Errorf("ToDuration = %v, want 2.5s", got)
	}
	if got := Time(1.2345).String(); got != "1.234s" && got != "1.235s" {
		t.Errorf("String = %q", got)
	}
}

// Property: for any set of non-negative offsets, events fire in sorted order
// and the fired count matches the scheduled count.
func TestQuickFiringOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		q := NewEventQueue()
		var fired []Time
		times := make([]float64, len(raw))
		for i, r := range raw {
			at := Time(float64(r) / 100.0)
			times[i] = float64(at)
			if err := q.Schedule(at, func(now Time) { fired = append(fired, now) }); err != nil {
				return false
			}
		}
		drain(q)
		if len(fired) != len(raw) {
			return false
		}
		sort.Float64s(times)
		for i := range fired {
			if float64(fired[i]) != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
