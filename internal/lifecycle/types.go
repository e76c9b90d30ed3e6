// Package lifecycle is the backend-agnostic job-lifecycle kernel shared by
// the discrete-event engine (internal/engine) and the wall-clock executor
// (internal/rt). It owns the job state machine
//
//	release → ready → dispatched → completed | missed | expired
//
// together with pipeline provenance (SourceTime), deadline and
// end-to-end-budget accounting, latest-value edge propagation (Cyber RT
// channel semantics), the canonical ControlCommand/Stats types, and a
// structured trace stream of lifecycle events.
//
// The kernel is parameterized over a small Backend interface — deliver a
// source capture after its latency, wake idle processors, snapshot the
// processor pool — so an execution backend reduces to scheduling-loop glue:
// the engine maps Backend onto a simtime.EventQueue, the rt executor onto
// goroutines and wall-clock timers. Running the same graph, seed and policy
// through both backends must produce identical lifecycle event sequences
// (modulo timestamps); internal/lifecycle's differential tests assert this.
package lifecycle

import (
	"hcperf/internal/dag"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
	"hcperf/internal/stats"
)

// ControlCommand describes one completed control-task job, the command
// type of both execution backends.
type ControlCommand struct {
	// Task is the control task that produced the command.
	Task *dag.Task
	// Cycle is the control task's release sequence number.
	Cycle uint64
	// Release is when the control job entered the ready queue.
	Release simtime.Time
	// Completed is when the control job finished executing.
	Completed simtime.Time
	// SourceTime is the release instant of the oldest sensing data that
	// flowed into this command; Completed-SourceTime is the end-to-end
	// pipeline latency.
	SourceTime simtime.Time
}

// ResponseTime returns how long the control job waited plus ran.
func (c ControlCommand) ResponseTime() simtime.Duration { return c.Completed - c.Release }

// EndToEndLatency returns sensing-to-actuation latency.
func (c ControlCommand) EndToEndLatency() simtime.Duration { return c.Completed - c.SourceTime }

// Stats aggregates kernel-wide outcomes. The struct is comparable: two runs
// with identical semantics yield identical Stats values.
type Stats struct {
	Released        uint64
	Completed       uint64
	Missed          uint64
	Expired         uint64
	ControlCommands uint64
	// E2EDecided and E2EMissed count only control (sink) jobs: their
	// deadline outcomes are the system's end-to-end deadline outcomes.
	E2EDecided      uint64
	E2EMissed       uint64
	ControlResponse stats.Accumulator
	EndToEnd        stats.Accumulator
}

// MissRatio returns misses over decided jobs (completed+missed), the
// paper's deadline miss ratio m.
func (s *Stats) MissRatio() float64 {
	decided := s.Completed + s.Missed
	if decided == 0 {
		return 0
	}
	return float64(s.Missed) / float64(decided)
}

// E2EMissRatio returns the end-to-end deadline miss ratio: misses over
// decided control jobs.
func (s *Stats) E2EMissRatio() float64 {
	if s.E2EDecided == 0 {
		return 0
	}
	return float64(s.E2EMissed) / float64(s.E2EDecided)
}

// QueueObserver is implemented by schedulers (HCPerf's Dynamic) that want
// to re-derive internal state whenever the ready queue changes.
type QueueObserver interface {
	Recompute(now simtime.Time, ready []*sched.Job, state *sched.ProcState)
}
