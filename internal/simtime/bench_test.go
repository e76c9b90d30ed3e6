package simtime

import "testing"

// benchTickerSecond drives a realistic kernel workload: 32 tickers with
// HCPerf-like periods sharing one queue for one simulated second.
func benchTickerSecond(b *testing.B, newQ func() *EventQueue) {
	periods := []Duration{0.008, 0.010, 0.0125, 0.020, 0.025, 0.040, 0.050, 0.125}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := newQ()
		for t := 0; t < 32; t++ {
			if _, err := q.NewTicker(0, periods[t%len(periods)], func(Time) {}); err != nil {
				b.Fatal(err)
			}
		}
		q.RunUntil(1)
	}
}

func BenchmarkTickerSecondWheel(b *testing.B) { benchTickerSecond(b, NewEventQueue) }
func BenchmarkTickerSecondHeap(b *testing.B)  { benchTickerSecond(b, NewHeapEventQueue) }

// benchScheduleStep measures raw schedule+step churn on a warm queue.
func benchScheduleStep(b *testing.B, newQ func() *EventQueue) {
	q := newQ()
	fn := func(Time) {}
	for i := 0; i < 64; i++ {
		if err := q.After(0.001, fn); err != nil {
			b.Fatal(err)
		}
	}
	for q.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.After(0.004, fn); err != nil {
			b.Fatal(err)
		}
		q.Step()
	}
}

func BenchmarkScheduleStepWheel(b *testing.B) { benchScheduleStep(b, NewEventQueue) }
func BenchmarkScheduleStepHeap(b *testing.B)  { benchScheduleStep(b, NewHeapEventQueue) }
