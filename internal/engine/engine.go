// Package engine implements the Auto-Driving Simulator of the HCPerf
// evaluation testbed: a deterministic discrete-event executor for periodic
// DAG task sets on M identical processors with non-preemptive,
// policy-driven dispatch.
//
// The job-lifecycle semantics (paper §III-A) — periodic source release with
// off-CPU capture latency, data-triggered release on the primary
// predecessor, relative-deadline and end-to-end-budget expiry, discard of
// late output, control-command emission — live in the shared
// internal/lifecycle kernel, which also times every source capture; this
// package is the kernel's discrete-event Backend. It contributes exactly
// the execution substrate: a simtime.EventQueue for time and an
// M-processor non-preemptive dispatch loop.
package engine

import (
	"errors"
	"fmt"

	"hcperf/internal/lifecycle"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// Config configures an Engine: the kernel's configuration plus the
// processor pool and the event queue it runs on.
type Config struct {
	// Kernel configures the lifecycle kernel: graph, policy, seed, scene,
	// data-age bound, callbacks and tracer.
	Kernel lifecycle.Config
	// NumProcs is the number of identical processors (M >= 1).
	NumProcs int
	// Queue is the simulation event queue shared with the scenario.
	Queue *simtime.EventQueue
}

type processor struct {
	busyUntil simtime.Time
	running   *sched.Job
	busyTotal simtime.Duration
	// actual is the sampled execution time of the running job; complete is
	// the processor's completion callback, bound once at construction.
	// Dispatch is non-preemptive, so a processor has at most one completion
	// in flight and the pair can be reused for every job it runs.
	actual   simtime.Duration
	complete func(at simtime.Time)
}

// Engine executes a task graph under a scheduling policy on virtual time.
type Engine struct {
	k *lifecycle.Kernel
	q *simtime.EventQueue

	procs []processor
	// procState is the reusable processor-pool snapshot handed to
	// scheduling decisions; see lifecycle.Backend.ProcState for the
	// non-retention contract that makes the reuse safe.
	procState sched.ProcState
}

// backend adapts the Engine onto lifecycle.Backend: capture latencies are
// event-queue timers, waking idle processors is a dispatch pass.
type backend struct {
	e *Engine
}

// DeliverAfter implements lifecycle.Backend.
func (b backend) DeliverAfter(now simtime.Time, d simtime.Duration, fn func(at simtime.Time)) {
	// Delivery is never scheduled in the past relative to now, so
	// Schedule cannot fail.
	if err := b.e.q.Schedule(now+d, fn); err != nil {
		panic(fmt.Sprintf("engine: schedule delivery: %v", err))
	}
}

// Wake implements lifecycle.Backend.
func (b backend) Wake(now simtime.Time) { b.e.dispatch(now) }

// ProcState implements lifecycle.Backend. The snapshot is reused across
// scheduling decisions — dispatch runs at every queue change — so it is
// filled in place rather than allocated per call.
func (b backend) ProcState(now simtime.Time) *sched.ProcState {
	e := b.e
	st := &e.procState
	for i := range e.procs {
		var r simtime.Duration
		if e.procs[i].busyUntil > now {
			r = e.procs[i].busyUntil - now
		}
		st.Remaining[i] = r
	}
	return st
}

// New validates the configuration and builds an engine. Start must be
// called to begin source captures.
func New(cfg Config) (*Engine, error) {
	if cfg.NumProcs < 1 {
		return nil, fmt.Errorf("engine: NumProcs %d < 1", cfg.NumProcs)
	}
	if cfg.Queue == nil {
		return nil, errors.New("engine: nil event queue")
	}
	e := &Engine{
		q:     cfg.Queue,
		procs: make([]processor, cfg.NumProcs),
		procState: sched.ProcState{
			NumProcs:  cfg.NumProcs,
			Remaining: make([]simtime.Duration, cfg.NumProcs),
		},
	}
	k, err := lifecycle.NewKernel(cfg.Kernel, backend{e})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e.k = k
	for p := range e.procs {
		p := p
		e.procs[p].complete = func(at simtime.Time) {
			pr := &e.procs[p]
			j := pr.running
			pr.running = nil
			e.k.Complete(at, p, j, pr.actual)
		}
	}
	return e, nil
}

// Kernel returns the lifecycle kernel the engine runs.
func (e *Engine) Kernel() *lifecycle.Kernel { return e.k }

// Start schedules every source's first capture at the queue's current
// time (see lifecycle.Kernel.Start). It may be called once.
func (e *Engine) Start() error { return e.k.Start(e.q.Now()) }

// Utilization returns mean processor utilisation over [0, now].
func (e *Engine) Utilization() float64 {
	now := float64(e.q.Now())
	if now <= 0 {
		return 0
	}
	var busy float64
	for i := range e.procs {
		b := float64(e.procs[i].busyTotal)
		// Subtract the not-yet-elapsed tail of the running job.
		if e.procs[i].busyUntil > e.q.Now() {
			b -= float64(e.procs[i].busyUntil - e.q.Now())
		}
		busy += b
	}
	return busy / (now * float64(len(e.procs)))
}

// dispatch fills every idle processor according to the policy.
func (e *Engine) dispatch(now simtime.Time) {
	e.k.PurgeExpired(now)
	for p := range e.procs {
		if e.procs[p].busyUntil > now {
			continue
		}
		j := e.k.Next(now, p)
		if j == nil {
			continue // no eligible job for this processor
		}
		e.run(now, p, j)
	}
}

// run executes job j on processor p, sampling its true execution time.
func (e *Engine) run(now simtime.Time, p int, j *sched.Job) {
	actual := e.k.SampleExec(now, j.Task)
	finish := now + actual
	pr := &e.procs[p]
	pr.busyUntil = finish
	pr.running = j
	pr.busyTotal += actual
	pr.actual = actual
	// Completion events always run in the future relative to now, so
	// Schedule cannot fail.
	if err := e.q.Schedule(finish, pr.complete); err != nil {
		panic(fmt.Sprintf("engine: schedule completion: %v", err))
	}
}
