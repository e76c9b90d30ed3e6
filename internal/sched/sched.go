// Package sched defines the scheduling framework of the HCPerf evaluation:
// ready-queue jobs, the Scheduler policy interface, the four baseline
// policies (HPF, EDF, EDF-VD, Apollo) and HCPerf's Dynamic Priority
// Scheduler (paper §V).
//
// Scheduling is non-preemptive over M identical processors: whenever a
// processor is idle and jobs are ready, the engine asks the policy which job
// to dispatch there; the job then runs to completion.
package sched

import (
	"hcperf/internal/dag"
	"hcperf/internal/simtime"
)

// Job is one release of a task inside a control cycle.
type Job struct {
	// Task is the graph task this job instantiates.
	Task *dag.Task
	// Cycle is the release sequence number of the job's pipeline.
	Cycle uint64
	// Release is when the job entered the ready queue.
	Release simtime.Time
	// AbsDeadline is Release + Task.RelDeadline.
	AbsDeadline simtime.Time
	// EstExec is the execution time of the task as observed by the
	// system (c_i in the paper: the duration of the task's last run, or
	// the nominal model value before any observation).
	EstExec simtime.Duration
	// SourceTime is the release instant of the earliest sensing job
	// whose data flows into this job; the scenario uses it to compute
	// control commands from appropriately stale sensor data.
	SourceTime simtime.Time

	// arenaSlot is the job's slot in its owning JobArena; meaningless
	// (zero) for jobs constructed outside an arena.
	arenaSlot int32
}

// LatestStart returns the absolute latest instant the job may start and
// still meet its deadline given the observed execution time: the absolute
// form of the paper's scheduling deadline d_i = D_i - c_i (Eq. 9).
func (j *Job) LatestStart() simtime.Time { return j.AbsDeadline - j.EstExec }

// Slack returns how much later than now the job could start and still meet
// its deadline.
func (j *Job) Slack(now simtime.Time) simtime.Duration { return j.LatestStart() - now }

// ProcState describes the processor pool at a scheduling decision.
type ProcState struct {
	// NumProcs is the number of identical processors (n_p).
	NumProcs int
	// Remaining[p] is the remaining processing time of the job running
	// on processor p (T_p), zero when idle.
	Remaining []simtime.Duration
}

// TotalRemaining returns the sum of T_p over all processors.
func (s *ProcState) TotalRemaining() simtime.Duration {
	var sum simtime.Duration
	for _, r := range s.Remaining {
		sum += r
	}
	return sum
}

// Scheduler selects the next job to dispatch. Implementations must be
// deterministic functions of their inputs and internal configuration.
type Scheduler interface {
	// Name identifies the policy in traces and reports.
	Name() string
	// Select returns the index into ready of the job to run on processor
	// proc, or -1 to leave the processor idle. ready is never reordered
	// by the caller during the call.
	Select(now simtime.Time, ready []*Job, proc int, state *ProcState) int
}

// pickBest returns the index of the minimum-key eligible job, breaking ties
// by earlier release and then lower task ID so every policy is
// deterministic. eligible may be nil (all jobs eligible).
func pickBest(ready []*Job, eligible func(*Job) bool, key func(*Job) float64) int {
	best := -1
	var bestKey float64
	for i, j := range ready {
		if eligible != nil && !eligible(j) {
			continue
		}
		k := key(j)
		if best == -1 || better(k, j, bestKey, ready[best]) {
			best = i
			bestKey = k
		}
	}
	return best
}

func better(k float64, j *Job, bestKey float64, best *Job) bool {
	if k != bestKey {
		return k < bestKey
	}
	if j.Release != best.Release {
		return j.Release < best.Release
	}
	return j.Task.ID < best.Task.ID
}

// HPF is the High-Priority-First baseline: the ready job with the smallest
// statically configured priority value runs first, non-preemptively.
type HPF struct{}

// Name implements Scheduler.
func (HPF) Name() string { return "HPF" }

// Select implements Scheduler.
func (HPF) Select(_ simtime.Time, ready []*Job, _ int, _ *ProcState) int {
	return pickBest(ready, nil, func(j *Job) float64 { return float64(j.Task.Priority) })
}

// EDF is the Earliest-Deadline-First baseline: the ready job with the
// earliest absolute deadline runs first.
type EDF struct{}

// Name implements Scheduler.
func (EDF) Name() string { return "EDF" }

// Select implements Scheduler.
func (EDF) Select(_ simtime.Time, ready []*Job, _ int, _ *ProcState) int {
	return pickBest(ready, nil, func(j *Job) float64 { return float64(j.AbsDeadline) })
}

// EDFVD is the EDF-VD baseline: high-criticality tasks are scheduled by a
// virtual deadline shortened with the scaling factor X in (0,1]; low-
// criticality tasks keep their actual deadlines. Everything then runs EDF.
type EDFVD struct {
	// X is the virtual-deadline scaling factor applied to
	// high-criticality tasks. Values outside (0,1] are treated as 1
	// (plain EDF).
	X float64
}

// NewEDFVD builds an EDF-VD scheduler with the given scaling factor.
func NewEDFVD(x float64) *EDFVD { return &EDFVD{X: x} }

// Name implements Scheduler.
func (s *EDFVD) Name() string { return "EDF-VD" }

// Select implements Scheduler.
func (s *EDFVD) Select(_ simtime.Time, ready []*Job, _ int, _ *ProcState) int {
	x := s.X
	if x <= 0 || x > 1 {
		x = 1
	}
	return pickBest(ready, nil, func(j *Job) float64 {
		if j.Task.Criticality == dag.HighCriticality {
			return float64(j.Release) + x*float64(j.Task.RelDeadline)
		}
		return float64(j.AbsDeadline)
	})
}

// Apollo is the state-of-the-practice baseline: tasks are statically bound
// to processors (dag.Task.Processor, a 1-based binding label, placed by
// ApolloProcessor) and each processor picks its highest static priority
// job. Unbound tasks (Processor < 0) may run anywhere.
type Apollo struct{}

// Name implements Scheduler.
func (Apollo) Name() string { return "Apollo" }

// Select implements Scheduler.
func (Apollo) Select(_ simtime.Time, ready []*Job, proc int, state *ProcState) int {
	return pickBest(ready, func(j *Job) bool {
		return ApolloProcessor(j.Task.Processor, state.NumProcs) == proc || j.Task.Processor < 0
	}, func(j *Job) float64 { return float64(j.Task.Priority) })
}

// apolloLabels is the size of Apollo's binding-label space, the AD graph's
// label count.
const apolloLabels = 4

// ApolloProcessor maps a 1-based binding label onto one of numProcs
// processors, or returns -1 for an unbound label (< 1). Labels are placed in
// contiguous blocks — label L runs on processor (L-1)·M/4 — mirroring how
// Apollo deployments group pipeline stages (perception node, planning node)
// when fewer processors than binding groups are available. Labels beyond
// the label space wrap.
func ApolloProcessor(label, numProcs int) int {
	if label < 1 || numProcs <= 0 {
		return -1
	}
	return ((label - 1) % apolloLabels) * numProcs / apolloLabels
}
