package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// randomGraph builds a random layered DAG with 2-4 sources and 1-2 sinks.
func randomGraph(rng *rand.Rand) (*dag.Graph, error) {
	g := dag.New()
	nLayers := rng.Intn(3) + 2
	var layers [][]dag.TaskID
	prio := 1
	total := 0
	for l := 0; l < nLayers; l++ {
		width := rng.Intn(3) + 1
		var layer []dag.TaskID
		for w := 0; w < width; w++ {
			total++
			t := dag.Task{
				Name:        fmt.Sprintf("t%d_%d", l, w),
				Priority:    prio,
				RelDeadline: simtime.Duration(0.02 + rng.Float64()*0.08),
				Exec:        exectime.Constant(simtime.Duration(0.001 + rng.Float64()*0.01)),
			}
			prio++
			if l == 0 {
				r := 5 + rng.Float64()*25
				t.Rate, t.MinRate, t.MaxRate = r, 5, 40
			}
			if l == nLayers-1 {
				t.IsControl = true
			}
			added, err := g.AddTask(t)
			if err != nil {
				return nil, err
			}
			layer = append(layer, added.ID)
		}
		layers = append(layers, layer)
	}
	// Every non-source task gets 1-2 predecessors from the previous layer.
	for l := 1; l < nLayers; l++ {
		for _, id := range layers[l] {
			prev := layers[l-1]
			first := prev[rng.Intn(len(prev))]
			if err := g.AddEdge(first, id); err != nil {
				return nil, err
			}
			if len(prev) > 1 && rng.Intn(2) == 0 {
				second := prev[rng.Intn(len(prev))]
				if second != first {
					if err := g.AddEdge(second, id); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	_ = total
	return g, nil
}

func schedulerFor(pick int) sched.Scheduler {
	switch pick % 5 {
	case 0:
		return sched.HPF{}
	case 1:
		return sched.EDF{}
	case 2:
		return sched.NewEDFVD(0.75)
	case 3:
		return sched.Apollo{}
	default:
		return sched.NewDynamic(0.02)
	}
}

// TestQuickEngineInvariants runs random graphs under random schedulers and
// checks the engine's accounting and timing invariants.
func TestQuickEngineInvariants(t *testing.T) {
	f := func(seed int64, pick uint8, procs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := randomGraph(rng)
		if err != nil {
			t.Logf("graph: %v", err)
			return false
		}
		q := simtime.NewEventQueue()
		var decided uint64
		timingOK := true
		e, err := New(Config{
			Graph:      g,
			Scheduler:  schedulerFor(int(pick)),
			NumProcs:   int(procs%3) + 1,
			Queue:      q,
			Seed:       seed,
			MaxDataAge: 300 * ms,
			OnControl: func(cmd lifecycle.ControlCommand) {
				if cmd.SourceTime > cmd.Release || cmd.Release > cmd.Completed {
					timingOK = false
				}
				if cmd.ResponseTime() < 0 || cmd.EndToEndLatency() < 0 {
					timingOK = false
				}
			},
			OnJobDecided: func(now simtime.Time, j *sched.Job, missed bool) {
				decided++
				if missed && now < j.AbsDeadline && now != j.AbsDeadline && j.Release != j.AbsDeadline {
					// A miss decided before the deadline can only be
					// an invalid cycle (Release == AbsDeadline).
					timingOK = false
				}
			},
		})
		if err != nil {
			t.Logf("engine: %v", err)
			return false
		}
		if err := e.Start(); err != nil {
			t.Logf("start: %v", err)
			return false
		}
		q.RunUntil(3)
		e.Stop()
		// Drain everything in flight.
		q.RunUntil(10)

		st := e.Stats()
		if !timingOK {
			t.Log("timing invariant violated")
			return false
		}
		// Conservation: every released job is decided or still queued.
		if st.Released != st.Completed+st.Missed+uint64(e.QueueLen()) {
			t.Logf("conservation: released=%d completed=%d missed=%d queued=%d",
				st.Released, st.Completed, st.Missed, e.QueueLen())
			return false
		}
		// Every decision callback corresponds to a decided job.
		if decided > st.Completed+st.Missed {
			t.Logf("decided callbacks %d exceed decided jobs %d", decided, st.Completed+st.Missed)
			return false
		}
		if r := st.MissRatio(); r < 0 || r > 1 {
			t.Logf("miss ratio %v", r)
			return false
		}
		if r := st.E2EMissRatio(); r < 0 || r > 1 {
			t.Logf("e2e miss ratio %v", r)
			return false
		}
		if u := e.Utilization(); u < 0 || u > 1+1e-9 {
			t.Logf("utilization %v", u)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickEngineDeterminism: identical (graph seed, engine seed, policy)
// yield identical statistics.
func TestQuickEngineDeterminism(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		run := func() lifecycle.Stats {
			rng := rand.New(rand.NewSource(seed))
			g, err := randomGraph(rng)
			if err != nil {
				return lifecycle.Stats{}
			}
			q := simtime.NewEventQueue()
			e, err := New(Config{
				Graph:     g,
				Scheduler: schedulerFor(int(pick)),
				NumProcs:  2,
				Queue:     q,
				Seed:      seed,
			})
			if err != nil {
				return lifecycle.Stats{}
			}
			if err := e.Start(); err != nil {
				return lifecycle.Stats{}
			}
			q.RunUntil(2)
			return e.Stats()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEngineZeroExecTask: zero execution times must not wedge the engine.
func TestEngineZeroExecTask(t *testing.T) {
	g := dag.New()
	if _, err := g.AddTask(dag.Task{
		Name: "s", Priority: 2, RelDeadline: 10 * ms,
		Rate: 100, MinRate: 100, MaxRate: 100,
		Exec: exectime.Constant(0),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddTask(dag.Task{
		Name: "w", Priority: 1, RelDeadline: 10 * ms, IsControl: true,
		Exec: exectime.Constant(0),
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdgeByName("s", "w"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	q := simtime.NewEventQueue()
	e, err := New(Config{Graph: g, Scheduler: sched.EDF{}, NumProcs: 1, Queue: q, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(1)
	if st := e.Stats(); st.ControlCommands < 90 {
		t.Errorf("only %d commands with zero-cost tasks at 100 Hz", st.ControlCommands)
	}
}

// TestEngineExtremeObstacles: a pathological scene (hundreds of obstacles)
// must degrade gracefully, not hang or panic.
func TestEngineExtremeObstacles(t *testing.T) {
	g, err := dag.ADGraph23()
	if err != nil {
		t.Fatal(err)
	}
	q := simtime.NewEventQueue()
	e, err := New(Config{
		Graph:     g,
		Scheduler: sched.EDF{},
		NumProcs:  2,
		Queue:     q,
		Seed:      1,
		Scene: func(simtime.Time) exectime.Scene {
			return exectime.Scene{Obstacles: 300, LoadFactor: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(2)
	st := e.Stats()
	if st.MissRatio() < 0.2 {
		t.Errorf("miss ratio %.2f with 300 obstacles, want heavy misses", st.MissRatio())
	}
	if st.Released == 0 {
		t.Error("engine stopped releasing under extreme load")
	}
}
