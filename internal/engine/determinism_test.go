package engine_test

// Dispatch-order determinism: the engine and its kernel iterate several
// per-task structures (source captures, per-processor state) kept in dense
// slices for the allocation-free hot path.
// Maps iterate in randomized order, so any map-ordered decision would show
// up here as a run-to-run permutation of the dispatch stream. This test
// pins the guarantee the golden report digests rely on: the same seed
// yields the exact same dispatch sequence, every run.

import (
	"fmt"
	"testing"

	"hcperf/internal/dag"
	"hcperf/internal/engine"
	"hcperf/internal/lifecycle"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// dispatchTrace runs the 23-task stack for two simulated seconds under the
// given policy and returns the full dispatch sequence as strings of
// (task, cycle, time, processor).
func dispatchTrace(t *testing.T, mk func() sched.Scheduler, seed int64) []string {
	t.Helper()
	g, err := dag.ADGraph23()
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	q := simtime.NewEventQueue()
	eng, err := engine.New(engine.Config{
		Kernel: lifecycle.Config{
			Graph:     g,
			Scheduler: mk(),
			Seed:      seed,
			Tracer: lifecycle.TracerFunc(func(ev lifecycle.Event) {
				if ev.Kind == lifecycle.EventDispatch {
					seq = append(seq, fmt.Sprintf("%d/%d@%v proc=%d", ev.Task, ev.Cycle, ev.T, ev.Proc))
				}
			}),
		},
		NumProcs: 2,
		Queue:    q,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(2)
	return seq
}

func TestDispatchOrderDeterministic(t *testing.T) {
	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"HCPerf", func() sched.Scheduler { return sched.NewDynamic(0) }},
		{"EDF", func() sched.Scheduler { return sched.EDF{} }},
	}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			ref := dispatchTrace(t, p.mk, 1)
			if len(ref) == 0 {
				t.Fatal("no dispatches traced in two simulated seconds")
			}
			for run := 1; run < 10; run++ {
				got := dispatchTrace(t, p.mk, 1)
				if len(got) != len(ref) {
					t.Fatalf("run %d: %d dispatches, reference has %d", run, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("run %d: dispatch %d = %q, reference %q", run, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestDispatchOrderSeedSensitivity is the counter-probe: a different seed
// must eventually produce a different dispatch stream, proving the test
// above compares something the seed actually feeds.
func TestDispatchOrderSeedSensitivity(t *testing.T) {
	mk := func() sched.Scheduler { return sched.NewDynamic(0) }
	a := dispatchTrace(t, mk, 1)
	b := dispatchTrace(t, mk, 2)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical dispatch streams; the determinism test is vacuous")
		}
	}
}
