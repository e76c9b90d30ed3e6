package simtime

import "testing"

// firing is one observed event execution: the instant it ran, the queue's
// sequence-derived tag, and the firing ordinal. Comparing slices of firings
// across the queue and its heap oracle pins bit-for-bit (At, seq)
// equivalence.
type firing struct {
	At  Time
	Tag int
	Ord int
}

// runSchedulerScript interprets script as a deterministic stream of
// one-shot, ticker and capture-loop starts and capture-loop retimes,
// interleaved with event execution, and returns the complete firing
// sequence. The same script run on the EventQueue and on the heap oracle
// must return identical slices.
func runSchedulerScript(q queue, script []byte) []firing {
	const drainBudget = 1 << 12
	var fired []firing
	// periods[i] is capture loop i's period, read each time it fires.
	var periods []Duration
	var last Time // the latest one-shot instant scheduled
	draining := false
	tag := 0
	note := func(id int) func(Time) {
		return func(now Time) {
			fired = append(fired, firing{now, id, len(fired)})
		}
	}
	for i := 0; i+2 < len(script) && len(fired) < 1<<14; i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		switch op % 7 {
		case 0, 1: // schedule a one-shot at an offset from now
			// Offsets deliberately mix fractions, whole seconds,
			// same-instant duplicates and far-future jumps, so events
			// land anywhere in the pending order.
			off := Duration(a) * Duration(b+1) / 997
			if a%5 == 0 {
				off = Duration(a) // whole seconds
			}
			if a%17 == 0 {
				off = 0 // same-instant FIFO
			}
			if a == 251 {
				off = Duration(b) * 100000 // far future
			}
			tag++
			at := q.Now() + off
			if err := q.Schedule(at, note(tag)); err != nil {
				panic(err)
			}
			if at > last {
				last = at
			}
		case 2: // retime a capture loop, as the Task Rate Adapter does
			if len(periods) > 0 {
				periods[int(a)%len(periods)] = Duration(b%50+1) / 128
			}
		case 3: // start a ticker
			tag++
			if err := q.NewTicker(q.Now()+Duration(b)/256, Duration(a%50+1)/128, note(tag)); err != nil {
				panic(err)
			}
		case 4: // start a capture loop: an event that reschedules itself
			// at the period it reads when it fires, as a kernel source
			// does, until the drain stops it as Kernel.Stop does
			tag++
			idx, fn := len(periods), note(tag)
			periods = append(periods, Duration(a%50+1)/128)
			var capture func(Time)
			capture = func(now Time) {
				if draining {
					return
				}
				fn(now)
				if err := q.Schedule(now+periods[idx], capture); err != nil {
					panic(err)
				}
			}
			if err := q.Schedule(q.Now()+Duration(b)/256, capture); err != nil {
				panic(err)
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
	// Drain up to the latest one-shot instant, so far-future events are
	// compared too. Capture loops stop first; tickers never end, so the
	// drain is bounded by that instant and by a firing budget.
	draining = true
	for n := 0; n < drainBudget && q.Now() < last && q.Step(); n++ {
	}
	return fired
}

// FuzzSchedulerEquivalence feeds random operation scripts to the EventQueue
// and to its heap oracle and requires byte-identical firing sequences — the
// (At, seq) total order the determinism guarantees rest on.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 10, 20, 5, 255, 0})
	f.Add([]byte{3, 7, 0, 5, 200, 0, 4, 0, 0, 5, 255, 0})
	f.Add([]byte{0, 251, 9, 0, 251, 9, 2, 0, 0, 5, 255, 0})
	f.Add([]byte{0, 17, 1, 0, 34, 1, 0, 51, 1, 6, 7, 0})
	f.Add([]byte{1, 85, 3, 3, 12, 128, 5, 90, 0, 2, 1, 0, 5, 255, 0})
	// A capture loop retimed mid-run, then run on: the retime a rate
	// change applies to a kernel source.
	f.Add([]byte{4, 7, 0, 5, 40, 0, 2, 0, 20, 5, 255, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		sorted := runSchedulerScript(NewEventQueue(), script)
		heap := runSchedulerScript(&heapQueue{}, script)
		if len(sorted) != len(heap) {
			t.Fatalf("queue fired %d events, heap oracle fired %d", len(sorted), len(heap))
		}
		for i := range sorted {
			if sorted[i] != heap[i] {
				t.Fatalf("firing %d diverges: queue %+v, heap oracle %+v", i, sorted[i], heap[i])
			}
		}
	})
}
