// Quickstart: build a small autonomous-driving task graph, execute it on
// the discrete-event engine under HCPerf's hierarchical coordination, and
// print the end-to-end outcomes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"hcperf/internal/core"
	"hcperf/internal/dag"
	"hcperf/internal/engine"
	"hcperf/internal/exectime"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const ms = simtime.Millisecond

	// 1. Describe the pipeline: sensor -> perception -> control, with a
	// perception stage whose execution time depends on scene complexity.
	g := dag.New()
	fusion, err := exectime.NewFusion(5*ms, 2e-6, 0.05)
	if err != nil {
		return err
	}
	specs := []dag.Task{
		{
			Name: "camera", Priority: 3, RelDeadline: 40 * ms,
			Rate: 20, MinRate: 10, MaxRate: 40,
			Exec: exectime.Constant(1 * ms),
		},
		{
			Name: "perception", Priority: 2, RelDeadline: 60 * ms,
			Exec: fusion,
		},
		{
			Name: "control", Priority: 1, RelDeadline: 30 * ms, E2E: 150 * ms,
			IsControl: true,
			Exec:      exectime.Constant(2 * ms),
		},
	}
	for _, t := range specs {
		if _, err := g.AddTask(t); err != nil {
			return err
		}
	}
	for _, e := range [][2]string{{"camera", "perception"}, {"perception", "control"}} {
		if err := g.AddEdgeByName(e[0], e[1]); err != nil {
			return err
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}

	// 2. Wire the engine with HCPerf's Dynamic Priority Scheduler.
	// OnControl receives every control command; a dashboard or logger
	// would hook in here.
	q := simtime.NewEventQueue()
	dyn := sched.NewDynamic(0)
	eng, err := engine.New(engine.Config{
		Graph:     g,
		Scheduler: dyn,
		NumProcs:  2,
		Queue:     q,
		Seed:      42,
		Scene: func(now simtime.Time) exectime.Scene {
			// The scene gets busy between t=3s and t=7s.
			if now >= 3 && now < 7 {
				return exectime.Scene{Obstacles: 24, LoadFactor: 1}
			}
			return exectime.Scene{Obstacles: 10, LoadFactor: 1}
		},
		OnControl: func(cmd engine.ControlCommand) {
			// A real application would actuate the vehicle here.
			_ = cmd
		},
	})
	if err != nil {
		return err
	}

	// 3. Attach the hierarchical coordinator. The tracking error is the
	// driving-performance signal; here a synthetic oscillation stands in
	// for a real vehicle's error.
	coord, err := core.New(core.Config{
		Engine:  eng,
		Queue:   q,
		Dynamic: dyn,
		TrackingError: func(now simtime.Time) float64 {
			return math.Abs(1.2 * math.Sin(float64(now)))
		},
	})
	if err != nil {
		return err
	}

	// 4. Run ten simulated seconds.
	if err := eng.Start(); err != nil {
		return err
	}
	if err := coord.Start(); err != nil {
		return err
	}
	if err := q.RunUntil(10); err != nil {
		return err
	}

	st := eng.Stats()
	fmt.Println("HCPerf quickstart — 10 simulated seconds")
	fmt.Printf("  jobs released     %d\n", st.Released)
	fmt.Printf("  deadline misses   %d (ratio %.3f)\n", st.Missed, st.MissRatio())
	fmt.Printf("  control commands  %d\n", st.ControlCommands)
	fmt.Printf("  mean e2e latency  %.1f ms\n", st.EndToEnd.Mean()*1000)
	fmt.Printf("  gamma now         %.4f (u=%.4f)\n", coord.Gamma(), coord.NominalU())
	fmt.Printf("  camera rate now   %.1f Hz (adapter-tuned)\n", eng.SourceRate(g.TaskByName("camera").ID))
	overhead := coord.Overhead()
	fmt.Printf("  coordinator cost  %.1f µs/step\n", overhead.Mean()*1e6)
	return nil
}
