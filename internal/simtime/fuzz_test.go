package simtime

import "testing"

// firing is one observed event execution: the instant it ran, the queue's
// sequence-derived tag, and the firing ordinal. Comparing slices of firings
// across schedulers pins bit-for-bit (At, seq) equivalence.
type firing struct {
	At  Time
	Tag int
	Ord int
}

// runSchedulerScript interprets script as a deterministic stream of
// schedule / ticker start, stop and retime operations against q, interleaved
// with event execution, and returns the complete firing sequence. The same
// script run on the wheel and on the heap must return identical slices.
func runSchedulerScript(q *EventQueue, script []byte) []firing {
	var fired []firing
	var tickers []*Ticker
	tag := 0
	note := func(id int) func(Time) {
		return func(now Time) {
			fired = append(fired, firing{now, id, len(fired)})
		}
	}
	for i := 0; i+2 < len(script) && len(fired) < 1<<14; i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		switch op % 7 {
		case 0, 1: // schedule a one-shot at a quantized-or-not offset
			// Offsets deliberately mix sub-tick fractions, exact tick
			// multiples, same-instant duplicates, and far-future jumps so the
			// wheel's drain/l0/l1/overflow routing all get exercised.
			off := Duration(a) * Duration(b+1) / 997
			if a%5 == 0 {
				off = Duration(a) // exact integer seconds: l1/overflow
			}
			if a%17 == 0 {
				off = 0 // same-instant FIFO
			}
			if a == 251 {
				off = Duration(b) * 100000 // deep overflow pages
			}
			tag++
			if err := q.Schedule(q.Now()+off, note(tag)); err != nil {
				panic(err)
			}
		case 2: // retime a live ticker, as the Task Rate Adapter does
			if len(tickers) > 0 {
				if err := tickers[int(a)%len(tickers)].SetPeriod(Duration(b%50+1) / 128); err != nil {
					panic(err)
				}
			}
		case 3: // start a ticker
			period := Duration(a%50+1) / 128
			tag++
			tk, err := q.NewTicker(q.Now()+Duration(b)/256, period, note(tag))
			if err != nil {
				panic(err)
			}
			tickers = append(tickers, tk)
		case 4: // stop a ticker
			if len(tickers) > 0 {
				tickers[int(a)%len(tickers)].Stop()
			}
		case 5: // run a bounded slice of virtual time
			q.RunUntil(q.Now() + Duration(a)/16)
		case 6: // step a few events
			for n := 0; n < int(a%8); n++ {
				if !q.Step() {
					break
				}
			}
		}
	}
	// Drain everything still queued so late-container routing is compared
	// too; tickers would run forever, so stop them first.
	for _, tk := range tickers {
		tk.Stop()
	}
	const cap = 1 << 15
	for len(fired) < cap && q.Step() {
	}
	return fired
}

// FuzzSchedulerEquivalence feeds random operation scripts to the wheel-backed
// and heap-backed queues and requires byte-identical firing sequences — the
// (At, seq) total order the determinism guarantees rest on.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 10, 20, 5, 255, 0})
	f.Add([]byte{3, 7, 0, 5, 200, 0, 4, 0, 0, 5, 255, 0})
	f.Add([]byte{0, 251, 9, 0, 251, 9, 2, 0, 0, 5, 255, 0})
	f.Add([]byte{0, 17, 1, 0, 34, 1, 0, 51, 1, 6, 7, 0})
	f.Add([]byte{1, 85, 3, 3, 12, 128, 5, 90, 0, 2, 1, 0, 5, 255, 0})
	// A ticker retimed mid-run, then run on: the retime engine.SetRate
	// applies to a source ticker.
	f.Add([]byte{3, 7, 0, 5, 40, 0, 2, 0, 20, 5, 255, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		wheel := runSchedulerScript(NewEventQueue(), script)
		heap := runSchedulerScript(NewHeapEventQueue(), script)
		if len(wheel) != len(heap) {
			t.Fatalf("wheel fired %d events, heap fired %d", len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("firing %d diverges: wheel %+v, heap %+v", i, wheel[i], heap[i])
			}
		}
	})
}
