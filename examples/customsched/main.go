// Custom scheduler: the engine's Scheduler interface accepts user-defined
// policies. This example implements Least-Laxity-First (LLF) — dispatch the
// job with the smallest slack — plugs it into the car-following scenario's
// building blocks, and compares it against EDF on the same workload.
//
//	go run ./examples/customsched
package main

import (
	"fmt"
	"log"

	"hcperf/internal/dag"
	"hcperf/internal/engine"
	"hcperf/internal/lifecycle"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// LLF is Least-Laxity-First: the ready job whose latest feasible start is
// nearest to now runs first. (With γ = 0 HCPerf's Dynamic scheduler
// degenerates to exactly this policy; writing it out shows the plug-in
// surface.)
type LLF struct{}

// Name implements sched.Scheduler.
func (LLF) Name() string { return "LLF" }

// Select implements sched.Scheduler.
func (LLF) Select(now simtime.Time, ready []*sched.Job, _ int, _ *sched.ProcState) int {
	best := -1
	var bestSlack simtime.Duration
	for i, j := range ready {
		slack := j.Slack(now)
		if best == -1 || slack < bestSlack {
			best, bestSlack = i, slack
		}
	}
	return best
}

var _ sched.Scheduler = LLF{}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	for _, policy := range []sched.Scheduler{LLF{}, sched.EDF{}} {
		graph, err := dag.ADGraph23()
		if err != nil {
			return err
		}
		q := simtime.NewEventQueue()
		eng, err := engine.New(engine.Config{
			Kernel: lifecycle.Config{
				Graph:      graph,
				Scheduler:  policy,
				Seed:       7,
				MaxDataAge: 220 * simtime.Millisecond,
			},
			NumProcs: 2,
			Queue:    q,
		})
		if err != nil {
			return err
		}
		if err := eng.Start(); err != nil {
			return err
		}
		q.RunUntil(30)
		st := eng.Kernel().Stats()
		fmt.Printf("%-4s released=%5d missed=%4d (ratio %.3f) commands=%4d e2e=%.0fms\n",
			policy.Name(), st.Released, st.Missed, st.MissRatio(),
			st.ControlCommands, st.EndToEnd.Mean()*1000)
	}
	return nil
}
