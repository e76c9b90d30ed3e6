// Differential harness: the same graph, seed and policy run through both
// execution backends — the discrete-event engine and the wall-clock rt
// executor — must produce identical lifecycle event sequences per job
// (modulo timestamps and processor assignment, which are backend-specific).
//
// Wall-clock runs carry OS scheduling jitter, so the graphs are uniformly
// time-scaled (every duration multiplied by scaleK, every rate divided by
// it): the semantics — data-triggered release structure, deadline slack
// relative to execution time, utilization — are unchanged, but millisecond
// jitter becomes negligible against the stretched deadlines, so a semantic
// divergence between the backends is the only way the sequences can differ.
package lifecycle_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hcperf/internal/dag"
	"hcperf/internal/engine"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/rt"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

const (
	// scaleK slows the graphs down 3x for the wall-clock backend.
	scaleK = 3.0
	// runFor is how long each backend executes (simulated seconds for the
	// engine, wall-clock seconds for rt). Deep pipelines accrue up to one
	// primary-period of phase delay per stage before settling, so the run
	// must outlast that transient by several sink periods.
	runFor = 2.4
	// deadlineSlack additionally stretches relative deadlines and E2E
	// bounds beyond scaleK. Deadlines only gate miss/expire outcomes —
	// with zero misses the release structure is identical — so the extra
	// slack hardens the harness against OS jitter under parallel test
	// load without weakening the structural comparison.
	deadlineSlack = 2.0
	diffM         = 4 // processors per backend
)

// scaledExec stretches every sample of an execution-time model by k.
type scaledExec struct {
	inner exectime.Model
	k     float64
}

func (s scaledExec) Sample(rng *rand.Rand, at simtime.Time, scene exectime.Scene) simtime.Duration {
	return s.inner.Sample(rng, at, scene) * simtime.Duration(s.k)
}

func (s scaledExec) Nominal() simtime.Duration {
	return s.inner.Nominal() * simtime.Duration(s.k)
}

// scaleGraph returns a copy of g with all durations multiplied and all rates
// divided by k, preserving topology and predecessor (primary-edge) order.
func scaleGraph(t *testing.T, g *dag.Graph, k float64) *dag.Graph {
	t.Helper()
	out := dag.New()
	for _, task := range g.Tasks() {
		c := *task
		c.ID = 0
		c.RelDeadline *= simtime.Duration(k * deadlineSlack)
		if c.E2E > 0 {
			c.E2E *= simtime.Duration(k * deadlineSlack)
		}
		if c.Rate > 0 {
			c.Rate /= k
			c.MinRate /= k
			c.MaxRate /= k
		}
		c.Exec = scaledExec{inner: task.Exec, k: k}
		if _, err := out.AddTask(c); err != nil {
			t.Fatalf("scale task %q: %v", task.Name, err)
		}
	}
	for _, task := range g.Tasks() {
		for _, p := range g.Predecessors(task.ID) {
			if err := out.AddEdgeByName(g.Task(p).Name, task.Name); err != nil {
				t.Fatalf("scale edge %q->%q: %v", g.Task(p).Name, task.Name, err)
			}
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("scaled graph invalid: %v", err)
	}
	return out
}

// sliceTracer records every event in order. Both backends invoke tracers
// from a single serialization context, so no extra locking is needed.
type sliceTracer struct {
	events []lifecycle.Event
}

func (s *sliceTracer) Trace(ev lifecycle.Event) { s.events = append(s.events, ev) }

// terminal reports whether k ends a job's lifecycle.
func terminal(k lifecycle.EventKind) bool {
	switch k {
	case lifecycle.EventDeliver, lifecycle.EventMiss, lifecycle.EventExpire,
		lifecycle.EventInvalid, lifecycle.EventControl:
		return true
	case lifecycle.EventComplete:
		// Complete is terminal except for control tasks, whose Control
		// emission follows; the caller resolves this per task.
		return true
	}
	return false
}

// kindSeqs groups the stream into per-task, per-cycle event-kind sequences.
func kindSeqs(events []lifecycle.Event) map[string]map[uint64][]lifecycle.EventKind {
	out := make(map[string]map[uint64][]lifecycle.EventKind)
	for _, ev := range events {
		byCycle := out[ev.TaskName]
		if byCycle == nil {
			byCycle = make(map[uint64][]lifecycle.EventKind)
			out[ev.TaskName] = byCycle
		}
		byCycle[ev.Cycle] = append(byCycle[ev.Cycle], ev.Kind)
	}
	return out
}

// completePrefix returns the number of leading cycles (1, 2, ...) whose
// recorded sequence ends in a terminal event: the cycles whose outcome the
// run fully decided before it was cut off.
func completePrefix(byCycle map[uint64][]lifecycle.EventKind, isControl bool) int {
	n := 0
	for {
		seq := byCycle[uint64(n+1)]
		if len(seq) == 0 {
			return n
		}
		last := seq[len(seq)-1]
		if !terminal(last) {
			return n
		}
		if isControl && last == lifecycle.EventComplete {
			// An on-time control completion must be followed by its
			// Control emission; a bare Complete means the stream was
			// cut mid-job.
			return n
		}
		n++
	}
}

// fmtCycles renders every recorded cycle of one task for failure output.
func fmtCycles(byCycle map[uint64][]lifecycle.EventKind) string {
	out := ""
	for c := uint64(1); ; c++ {
		seq, ok := byCycle[c]
		if !ok {
			break
		}
		if c > 1 {
			out += " "
		}
		out += fmt.Sprintf("#%d[%s]", c, fmtKinds(seq))
	}
	return out
}

func fmtKinds(seq []lifecycle.EventKind) string {
	out := ""
	for i, k := range seq {
		if i > 0 {
			out += ","
		}
		out += k.String()
	}
	return out
}

// runEngine executes the graph on the discrete-event backend.
func runEngine(t *testing.T, g *dag.Graph, s sched.Scheduler, seed int64) []lifecycle.Event {
	t.Helper()
	q := simtime.NewEventQueue()
	tr := &sliceTracer{}
	eng, err := engine.New(engine.Config{
		Kernel:   lifecycle.Config{Graph: g, Scheduler: s, Seed: seed, Tracer: tr},
		NumProcs: diffM,
		Queue:    q,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if err := eng.Start(); err != nil {
		t.Fatalf("engine.Start: %v", err)
	}
	q.RunUntil(simtime.Time(runFor))
	return tr.events
}

// runWallClock executes the graph on the wall-clock backend.
func runWallClock(t *testing.T, g *dag.Graph, s sched.Scheduler, seed int64) []lifecycle.Event {
	t.Helper()
	tr := &sliceTracer{}
	ex, err := rt.New(rt.Config{
		Kernel:   lifecycle.Config{Graph: g, Scheduler: s, Seed: seed, Tracer: tr},
		NumProcs: diffM,
	})
	if err != nil {
		t.Fatalf("rt.New: %v", err)
	}
	if err := ex.Start(); err != nil {
		t.Fatalf("rt.Start: %v", err)
	}
	time.Sleep(time.Duration(runFor * float64(time.Second)))
	if err := ex.Stop(); err != nil {
		t.Fatalf("rt.Stop: %v", err)
	}
	return tr.events
}

// TestEngineRTEventSequenceEquality is the differential harness: three
// paper graphs under EDF and the HCPerf Dynamic policy, each run through
// both backends, asserting per-job lifecycle equality.
func TestEngineRTEventSequenceEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential test")
	}
	graphs := []struct {
		name  string
		build func() (*dag.Graph, error)
	}{
		{name: "motivation", build: dag.MotivationGraph},
		{name: "adgraph23", build: dag.ADGraph23},
		{name: "dual_control", build: dag.ADGraphDualControl},
	}
	schemes := []struct {
		name string
		// The Dynamic scheduler is stateful, so each backend run gets a
		// fresh instance.
		make func() sched.Scheduler
	}{
		{name: "edf", make: func() sched.Scheduler { return sched.EDF{} }},
		{name: "dynamic", make: func() sched.Scheduler { return sched.NewDynamic(0) }},
	}
	const seed = 7
	for _, gc := range graphs {
		for _, sc := range schemes {
			gc, sc := gc, sc
			t.Run(fmt.Sprintf("%s/%s", gc.name, sc.name), func(t *testing.T) {
				t.Parallel()
				base, err := gc.build()
				if err != nil {
					t.Fatal(err)
				}
				gEngine := scaleGraph(t, base, scaleK)
				gRT := scaleGraph(t, base, scaleK)

				evEngine := runEngine(t, gEngine, sc.make(), seed)
				evRT := runWallClock(t, gRT, sc.make(), seed)

				seqE := kindSeqs(evEngine)
				seqR := kindSeqs(evRT)
				compared := 0
				for _, task := range base.Tasks() {
					isControl := task.IsControl
					nE := completePrefix(seqE[task.Name], isControl)
					nR := completePrefix(seqR[task.Name], isControl)
					n := nE
					if nR < n {
						n = nR
					}
					if n < 2 {
						t.Errorf("task %q: only %d comparable cycles (engine %d, rt %d)\n  engine: %s\n  rt:     %s",
							task.Name, n, nE, nR, fmtCycles(seqE[task.Name]), fmtCycles(seqR[task.Name]))
						continue
					}
					for c := uint64(1); c <= uint64(n); c++ {
						e, r := seqE[task.Name][c], seqR[task.Name][c]
						if fmtKinds(e) != fmtKinds(r) {
							t.Errorf("task %q cycle %d: engine [%s] != rt [%s]",
								task.Name, c, fmtKinds(e), fmtKinds(r))
						}
					}
					compared += n
				}
				if compared == 0 {
					t.Fatal("no cycles compared")
				}
				// The pipelines must actually reach actuation in both
				// backends: at least one compared control emission.
				foundControl := false
				for _, task := range base.Tasks() {
					if task.IsControl && completePrefix(seqE[task.Name], true) >= 2 &&
						completePrefix(seqR[task.Name], true) >= 2 {
						foundControl = true
					}
				}
				if !foundControl {
					t.Error("no control task produced >= 2 comparable cycles")
				}
			})
		}
	}
}
