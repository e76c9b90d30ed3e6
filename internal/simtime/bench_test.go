package simtime

import "testing"

// BenchmarkTickerSecond drives a realistic kernel workload: 32 tickers with
// HCPerf-like periods sharing one queue for one simulated second.
func BenchmarkTickerSecond(b *testing.B) {
	periods := []Duration{0.008, 0.010, 0.0125, 0.020, 0.025, 0.040, 0.050, 0.125}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := NewEventQueue()
		for t := 0; t < 32; t++ {
			if err := q.NewTicker(0, periods[t%len(periods)], func(Time) {}); err != nil {
				b.Fatal(err)
			}
		}
		q.RunUntil(1)
	}
}

// BenchmarkScheduleStep measures raw schedule+step churn on a warm queue.
func BenchmarkScheduleStep(b *testing.B) {
	q := NewEventQueue()
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
