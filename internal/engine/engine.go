// Package engine implements the Auto-Driving Simulator of the HCPerf
// evaluation testbed: a deterministic discrete-event executor for periodic
// DAG task sets on M identical processors with non-preemptive,
// policy-driven dispatch.
//
// The job-lifecycle semantics (paper §III-A) — periodic source release with
// off-CPU capture latency, data-triggered release on the primary
// predecessor, relative-deadline and end-to-end-budget expiry, discard of
// late output, control-command emission — live in the shared
// internal/lifecycle kernel; this package is the kernel's discrete-event
// Backend. It contributes exactly the execution substrate: a
// simtime.EventQueue for time, tickers for source rates, and an
// M-processor non-preemptive dispatch loop.
package engine

import (
	"errors"
	"fmt"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// Canonical lifecycle types, re-exported so existing callers (examples,
// scenarios) keep compiling unchanged.
type (
	// ControlCommand describes one completed control-task job.
	ControlCommand = lifecycle.ControlCommand
	// Stats aggregates engine-wide outcomes.
	Stats = lifecycle.Stats
	// TaskStats aggregates per-task outcomes.
	TaskStats = lifecycle.TaskStats
	// QueueObserver is implemented by schedulers (HCPerf's Dynamic) that
	// want to re-derive internal state whenever the ready queue changes.
	QueueObserver = lifecycle.QueueObserver
)

// Config configures an Engine.
type Config struct {
	// Graph is the validated task graph to execute.
	Graph *dag.Graph
	// Scheduler is the dispatch policy.
	Scheduler sched.Scheduler
	// NumProcs is the number of identical processors (M >= 1).
	NumProcs int
	// Queue is the simulation event queue shared with the scenario.
	Queue *simtime.EventQueue
	// Seed seeds the engine's private RNG (execution-time sampling).
	Seed int64
	// Scene supplies the runtime scene; nil means exectime.NominalScene.
	Scene func(now simtime.Time) exectime.Scene
	// OnControl is invoked for every emitted control command.
	OnControl func(cmd ControlCommand)
	// OnJobDecided is invoked whenever a job's outcome is decided:
	// missed=false for an on-time completion, missed=true for a late
	// completion or queue expiration.
	OnJobDecided func(now simtime.Time, j *sched.Job, missed bool)
	// MaxDataAge, when positive, bounds the age of every input a task
	// may consume (see lifecycle.Config.MaxDataAge). Zero disables.
	MaxDataAge simtime.Duration
	// Tracer optionally receives the structured lifecycle event stream.
	Tracer lifecycle.Tracer
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
	// tickers is indexed by task ID (task IDs are dense); nil entries are
	// tasks that are not started sources. A dense slice instead of a map
	// keeps every iteration (Stop, SourceRates, ScaleSourceRates) in task
	// order — deterministic by construction — and avoids map overhead on
	// the rate-adaptation path.
	tickers []*simtime.Ticker
	started bool
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
	if _, err := b.e.q.Schedule(now+d, fn); err != nil {
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
// called to begin releasing source tasks.
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
	if cfg.Graph != nil {
		e.tickers = make([]*simtime.Ticker, cfg.Graph.Len())
	}
	k, err := lifecycle.NewKernel(lifecycle.Config{
		Graph:        cfg.Graph,
		Scheduler:    cfg.Scheduler,
		Seed:         cfg.Seed,
		Scene:        cfg.Scene,
		MaxDataAge:   cfg.MaxDataAge,
		OnControl:    cfg.OnControl,
		OnJobDecided: cfg.OnJobDecided,
		Tracer:       cfg.Tracer,
	}, backend{e})
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

// Start schedules the first release of every source task at the queue's
// current time. It may be called once.
func (e *Engine) Start() error {
	if e.started {
		return errors.New("engine: already started")
	}
	e.started = true
	now := e.q.Now()
	for _, src := range e.k.Graph().Sources() {
		id := src.ID
		period := simtime.Duration(1 / e.k.Rate(id))
		tk, err := e.q.NewTicker(now, period, func(tick simtime.Time) {
			e.k.SourceFired(tick, id)
		})
		if err != nil {
			return fmt.Errorf("engine: start source %q: %w", src.Name, err)
		}
		e.tickers[id] = tk
	}
	return nil
}

// Stop cancels all future source releases. Running jobs finish normally.
func (e *Engine) Stop() {
	for _, tk := range e.tickers {
		if tk != nil {
			tk.Stop()
		}
	}
}

// SetSourceRate retunes a source task's release rate, clamped to the
// task's [MinRate, MaxRate]. It returns the rate actually applied.
func (e *Engine) SetSourceRate(id dag.TaskID, hz float64) (float64, error) {
	t := e.k.Graph().Task(id)
	if t == nil {
		return 0, fmt.Errorf("engine: unknown task %d", id)
	}
	var tk *simtime.Ticker
	if int(id) < len(e.tickers) {
		tk = e.tickers[id]
	}
	if tk == nil {
		return 0, fmt.Errorf("engine: task %q is not a started source", t.Name)
	}
	hz, err := e.k.SetRate(id, hz)
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	if err := tk.SetPeriod(simtime.Duration(1 / hz)); err != nil {
		return 0, err
	}
	return hz, nil
}

// SourceRate returns the current rate of a source task.
func (e *Engine) SourceRate(id dag.TaskID) float64 { return e.k.Rate(id) }

// SourceRates returns the current rates of all source tasks keyed by ID.
func (e *Engine) SourceRates() map[dag.TaskID]float64 {
	out := make(map[dag.TaskID]float64)
	for id, tk := range e.tickers {
		if tk != nil {
			out[dag.TaskID(id)] = e.k.Rate(dag.TaskID(id))
		}
	}
	return out
}

// ScaleSourceRates multiplies every source rate by factor (clamped to each
// task's range), implementing the Task Rate Adapter's joint adjustment.
// Sources are retuned in task-ID order, so the adjustment is deterministic.
func (e *Engine) ScaleSourceRates(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("engine: non-positive rate factor %v", factor)
	}
	for id, tk := range e.tickers {
		if tk == nil {
			continue
		}
		tid := dag.TaskID(id)
		if _, err := e.SetSourceRate(tid, e.k.Rate(tid)*factor); err != nil {
			return err
		}
	}
	return nil
}

// Graph returns the executing graph.
func (e *Engine) Graph() *dag.Graph { return e.k.Graph() }

// Scheduler returns the dispatch policy.
func (e *Engine) Scheduler() sched.Scheduler { return e.k.Scheduler() }

// QueueLen returns the current ready-queue length.
func (e *Engine) QueueLen() int { return e.k.QueueLen() }

// Stats returns a copy of the engine-wide counters.
func (e *Engine) Stats() Stats { return e.k.Stats() }

// WindowStats returns a copy of the counters since the last ResetWindow.
func (e *Engine) WindowStats() Stats { return e.k.WindowStats() }

// ResetWindow zeroes the windowed counters; the Task Rate Adapter calls
// this once per adaptation period.
func (e *Engine) ResetWindow() { e.k.ResetWindow() }

// TaskStats returns a copy of the per-task counters.
func (e *Engine) TaskStats(id dag.TaskID) TaskStats { return e.k.TaskStats(id) }

// ObservedExec returns the engine's current estimate of c_i.
func (e *Engine) ObservedExec(id dag.TaskID) simtime.Duration { return e.k.ObservedExec(id) }

// RefreshScheduler re-runs the queue observer (if any) against the live
// ready queue and processor state. The coordinator calls this after
// installing a new nominal u so γ is re-derived immediately instead of at
// the next queue change.
func (e *Engine) RefreshScheduler() { e.k.RefreshObserver(e.q.Now()) }

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
	if _, err := e.q.Schedule(finish, pr.complete); err != nil {
		panic(fmt.Sprintf("engine: schedule completion: %v", err))
	}
}
