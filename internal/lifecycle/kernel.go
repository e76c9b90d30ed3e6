package lifecycle

import (
	"errors"
	"fmt"
	"math/rand"

	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// Backend abstracts an execution substrate under the kernel: how capture
// latencies elapse, how idle processors learn about new work, and what the
// processor pool looks like. internal/engine implements it on a
// simtime.EventQueue; internal/rt implements it on goroutines and
// wall-clock timers.
//
// The kernel calls every Backend method from inside the backend's own
// execution context (the event loop, or with the executor lock held), so
// implementations need no additional synchronization of kernel state.
type Backend interface {
	// DeliverAfter runs fn once, d after now on the backend's clock, in
	// the backend's execution context. The kernel uses it for source
	// capture latencies: sensor output materializes off-CPU.
	DeliverAfter(now simtime.Time, d simtime.Duration, fn func(at simtime.Time))
	// Wake tells the backend the ready queue may have gained runnable
	// work, so idle processors should re-run dispatch.
	Wake(now simtime.Time)
	// ProcState snapshots the processor pool for a scheduling decision.
	// The snapshot is only valid for the duration of that decision:
	// backends may reuse the same ProcState across calls, so consumers
	// (schedulers, observers) must not retain it.
	ProcState(now simtime.Time) *sched.ProcState
}

// Config configures a Kernel. Backend-specific knobs (processor counts,
// event queues, coordination loops) live in the backends' own configs.
type Config struct {
	// Graph is the validated task graph to execute.
	Graph *dag.Graph
	// Scheduler is the dispatch policy.
	Scheduler sched.Scheduler
	// Seed seeds the kernel's private RNG (execution-time sampling).
	Seed int64
	// Scene supplies the runtime scene; nil means exectime.NominalScene.
	Scene func(now simtime.Time) exectime.Scene
	// MaxDataAge, when positive, bounds the age of every input a task
	// may consume: a data-triggered release whose auxiliary inputs are
	// older than this is invalid — the cycle is lost and counts as a
	// deadline miss of the consuming task. Zero disables the bound.
	MaxDataAge simtime.Duration
	// OnControl is invoked for every emitted control command.
	OnControl func(cmd ControlCommand)
	// OnJobDecided is invoked whenever a job's outcome is decided:
	// missed=false for an on-time completion, missed=true for a late
	// completion, queue expiration or invalid cycle.
	OnJobDecided func(now simtime.Time, j *sched.Job, missed bool)
	// Tracer, when non-nil, receives the structured lifecycle event
	// stream.
	Tracer Tracer
}

// edgeData is the latest-value channel state of one precedence edge.
type edgeData struct {
	// fresh marks unconsumed data (meaningful on primary edges).
	fresh bool
	// has marks that the edge has carried data at least once.
	has bool
	// sourceTime is the capture instant at the root of the producing
	// job's primary chain.
	sourceTime simtime.Time
	// producedAt is when the value was written.
	producedAt simtime.Time
}

// Kernel owns the job state machine shared by all execution backends:
// releases, ready queue, dispatch selection, deadline and end-to-end
// accounting, edge propagation and control emission. All methods must be
// called from the backend's execution context; the kernel itself holds no
// locks.
type Kernel struct {
	graph     *dag.Graph
	sch       sched.Scheduler
	b         Backend
	rng       *rand.Rand
	scene     func(now simtime.Time) exectime.Scene
	onCmd     func(cmd ControlCommand)
	onDecided func(now simtime.Time, j *sched.Job, missed bool)
	tracer    Tracer

	// jobs allocates every job record this kernel creates; records are
	// freed back to the arena the moment their outcome is decided and the
	// last observer has run, so steady-state execution allocates no job
	// garbage. purged is PurgeExpired's reusable scratch for jobs whose
	// release must outlive the queue-change notification.
	jobs   sched.JobArena
	purged []*sched.Job
	// freeDeliveries recycles the capture-delivery records (and their bound
	// callbacks) SourceFired hands to Backend.DeliverAfter.
	freeDeliveries []*delivery

	ready []*sched.Job
	// succs/preds cache the graph adjacency per task: dag.Graph accessors
	// return defensive copies, far too expensive for every Propagate.
	succs [][]dag.TaskID
	preds [][]dag.TaskID
	// outEdges[id][i] is the channel state of edge id→succs[id][i];
	// inEdges[id][i] of edge preds[id][i]→id. Both views alias one dense
	// store, so edge lookups on the propagation hot path are slice walks.
	outEdges [][]*edgeData
	inEdges  [][]*edgeData
	observed []simtime.Duration // c_i per task: last observed execution time
	cycles   []uint64           // per-task release counter
	rates    []float64          // current rate per task (sources only)
	budgets  []simtime.Duration // end-to-end deadline budget per task
	maxAge   simtime.Duration

	total    Stats
	window   Stats // reset by ResetWindow (Task Rate Adapter sampling)
	observer QueueObserver
}

// NewKernel validates the configuration and builds a kernel bound to the
// given backend.
func NewKernel(cfg Config, b Backend) (*Kernel, error) {
	if cfg.Graph == nil {
		return nil, errors.New("lifecycle: nil graph")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("lifecycle: %w", err)
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("lifecycle: nil scheduler")
	}
	if b == nil {
		return nil, errors.New("lifecycle: nil backend")
	}
	scene := cfg.Scene
	if scene == nil {
		scene = func(simtime.Time) exectime.Scene { return exectime.NominalScene() }
	}
	n := cfg.Graph.Len()
	k := &Kernel{
		graph:     cfg.Graph,
		sch:       cfg.Scheduler,
		b:         b,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		scene:     scene,
		onCmd:     cfg.OnControl,
		onDecided: cfg.OnJobDecided,
		tracer:    cfg.Tracer,
		observed:  make([]simtime.Duration, n),
		cycles:    make([]uint64, n),
		rates:     make([]float64, n),
		maxAge:    cfg.MaxDataAge,
	}
	k.succs = make([][]dag.TaskID, n)
	k.preds = make([][]dag.TaskID, n)
	k.outEdges = make([][]*edgeData, n)
	k.inEdges = make([][]*edgeData, n)
	edgeCount := 0
	for _, t := range cfg.Graph.Tasks() {
		k.observed[t.ID] = t.Exec.Nominal()
		k.rates[t.ID] = t.Rate
		k.succs[t.ID] = cfg.Graph.Successors(t.ID)
		k.preds[t.ID] = cfg.Graph.Predecessors(t.ID)
		edgeCount += len(k.succs[t.ID])
	}
	store := make([]edgeData, edgeCount)
	next := 0
	byEdge := make(map[[2]dag.TaskID]*edgeData, edgeCount)
	for id := range k.succs {
		out := make([]*edgeData, len(k.succs[id]))
		for i, s := range k.succs[id] {
			ed := &store[next]
			next++
			out[i] = ed
			byEdge[[2]dag.TaskID{dag.TaskID(id), s}] = ed
		}
		k.outEdges[id] = out
	}
	for id := range k.preds {
		in := make([]*edgeData, len(k.preds[id]))
		for i, p := range k.preds[id] {
			in[i] = byEdge[[2]dag.TaskID{p, dag.TaskID(id)}]
		}
		k.inEdges[id] = in
	}
	if obs, ok := cfg.Scheduler.(QueueObserver); ok {
		k.observer = obs
	}
	topo, err := cfg.Graph.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("lifecycle: %w", err)
	}
	k.budgets = make([]simtime.Duration, n)
	for _, id := range topo {
		var longest simtime.Duration
		for _, p := range k.preds[id] {
			if k.budgets[p] > longest {
				longest = k.budgets[p]
			}
		}
		k.budgets[id] = longest + cfg.Graph.Task(id).RelDeadline
	}
	return k, nil
}

// Graph returns the executing graph.
func (k *Kernel) Graph() *dag.Graph { return k.graph }

// Scheduler returns the dispatch policy.
func (k *Kernel) Scheduler() sched.Scheduler { return k.sch }

// QueueLen returns the current ready-queue length.
func (k *Kernel) QueueLen() int { return len(k.ready) }

// Stats returns a copy of the kernel-wide counters.
func (k *Kernel) Stats() Stats { return k.total }

// WindowStats returns a copy of the counters since the last ResetWindow.
func (k *Kernel) WindowStats() Stats { return k.window }

// ResetWindow zeroes the windowed counters; the Task Rate Adapter calls
// this once per adaptation period.
func (k *Kernel) ResetWindow() { k.window = Stats{} }

// ObservedExec returns the kernel's current estimate of c_i.
func (k *Kernel) ObservedExec(id dag.TaskID) simtime.Duration { return k.observed[id] }

// Rate returns the current rate of a task (meaningful for sources).
func (k *Kernel) Rate(id dag.TaskID) float64 {
	if id < 0 || int(id) >= len(k.rates) {
		return 0
	}
	return k.rates[id]
}

// SetRate clamps hz to the task's allowable range, stores it as the task's
// current rate and returns the rate actually applied. Fixed-rate tasks
// (MaxRate == 0) keep their configured rate.
func (k *Kernel) SetRate(id dag.TaskID, hz float64) (float64, error) {
	t := k.graph.Task(id)
	if t == nil {
		return 0, fmt.Errorf("lifecycle: unknown task %d", id)
	}
	if t.MaxRate > 0 {
		if hz < t.MinRate {
			hz = t.MinRate
		}
		if hz > t.MaxRate {
			hz = t.MaxRate
		}
	} else {
		hz = t.Rate // fixed-rate source
	}
	if hz <= 0 {
		return 0, fmt.Errorf("lifecycle: non-positive rate for %q", t.Name)
	}
	k.rates[id] = hz
	return hz, nil
}

// SampleExec draws a job execution time for task t at the given instant,
// clamped to be non-negative. Backends call it exactly once per dispatched
// job so RNG consumption stays deterministic.
func (k *Kernel) SampleExec(now simtime.Time, t *dag.Task) simtime.Duration {
	actual := t.Exec.Sample(k.rng, now, k.scene(now))
	if actual < 0 {
		actual = 0
	}
	return actual
}

// RefreshObserver re-runs the queue observer (if any) against the live
// ready queue and processor state. Coordinators call this after installing
// a new nominal u so γ is re-derived immediately instead of at the next
// queue change.
func (k *Kernel) RefreshObserver(now simtime.Time) { k.queueChanged(now) }

// queueChanged notifies a queue-observing scheduler (γmax re-derivation).
func (k *Kernel) queueChanged(now simtime.Time) {
	if k.observer != nil {
		k.observer.Recompute(now, k.ready, k.b.ProcState(now))
	}
}

// traceJob emits a job lifecycle event, building the Event only when a
// tracer is configured — the event construction is pure overhead otherwise.
func (k *Kernel) traceJob(kind EventKind, now simtime.Time, j *sched.Job, proc int) {
	if k.tracer != nil {
		k.tracer.Trace(jobEvent(kind, now, j, proc))
	}
}

// jobEvent builds the common fields of a lifecycle event for job j.
func jobEvent(kind EventKind, now simtime.Time, j *sched.Job, proc int) Event {
	return Event{
		Kind:       kind,
		Task:       j.Task.ID,
		TaskName:   j.Task.Name,
		Cycle:      j.Cycle,
		T:          now,
		Proc:       proc,
		SourceTime: j.SourceTime,
		Deadline:   j.AbsDeadline,
	}
}

// SourceFired models one sensor capture of source task id: the job runs
// off-CPU (sensor hardware/DMA produces the data) and delivers its output
// after the sampled capture latency, via the backend clock. Captures never
// miss deadlines.
func (k *Kernel) SourceFired(now simtime.Time, id dag.TaskID) {
	t := k.graph.Task(id)
	k.cycles[id]++
	j := k.jobs.New()
	j.Task = t
	j.Cycle = k.cycles[id]
	j.Release = now
	j.AbsDeadline = now + t.RelDeadline
	j.EstExec = k.observed[id]
	j.SourceTime = now
	k.total.Released++
	k.window.Released++
	k.traceJob(EventRelease, now, j, -1)
	actual := k.SampleExec(now, t)
	d := k.newDelivery()
	d.j = j
	d.actual = actual
	k.b.DeliverAfter(now, actual, d.run)
}

// delivery carries one in-flight source capture from SourceFired to
// deliverSource. The callback handed to Backend.DeliverAfter is bound to the
// record once, so recycling records through freeDeliveries makes the capture
// path closure-allocation-free.
type delivery struct {
	k      *Kernel
	j      *sched.Job
	actual simtime.Duration
	run    func(at simtime.Time)
}

// newDelivery takes a delivery record off the freelist, or builds one with
// its bound callback. The callback returns the record to the freelist before
// delivering, and runs in the backend's execution context like every other
// kernel entry point.
func (k *Kernel) newDelivery() *delivery {
	if n := len(k.freeDeliveries); n > 0 {
		d := k.freeDeliveries[n-1]
		k.freeDeliveries[n-1] = nil
		k.freeDeliveries = k.freeDeliveries[:n-1]
		return d
	}
	d := &delivery{k: k}
	d.run = func(at simtime.Time) {
		j, actual := d.j, d.actual
		d.j = nil
		d.k.freeDeliveries = append(d.k.freeDeliveries, d)
		d.k.deliverSource(at, j, actual)
	}
	return d
}

// deliverSource finalises a capture: the source job completes on time and
// propagates downstream.
func (k *Kernel) deliverSource(now simtime.Time, j *sched.Job, actual simtime.Duration) {
	id := j.Task.ID
	k.observed[id] = actual
	k.total.Completed++
	k.window.Completed++
	k.traceJob(EventDeliver, now, j, -1)
	if k.onDecided != nil {
		k.onDecided(now, j, false)
	}
	k.Propagate(now, j)
	k.b.Wake(now)
	// Outcome decided and every observer has run: the record can be reused.
	k.jobs.Free(j)
}

// release creates a job for data-triggered task id, appends it to the
// ready queue and wakes the backend.
func (k *Kernel) release(now simtime.Time, id dag.TaskID, sourceTime simtime.Time) {
	t := k.graph.Task(id)
	k.cycles[id]++
	deadline := now + t.RelDeadline
	if e2e := sourceTime + k.budgets[id]; e2e < deadline {
		deadline = e2e
	}
	if t.E2E > 0 {
		if e2e := sourceTime + t.E2E; e2e < deadline {
			deadline = e2e
		}
	}
	j := k.jobs.New()
	j.Task = t
	j.Cycle = k.cycles[id]
	j.Release = now
	j.AbsDeadline = deadline
	j.EstExec = k.observed[id]
	j.SourceTime = sourceTime
	k.ready = append(k.ready, j)
	k.total.Released++
	k.window.Released++
	k.traceJob(EventRelease, now, j, -1)
	k.queueChanged(now)
	k.b.Wake(now)
}

// PurgeExpired drops queued jobs whose deadline has already passed; they
// can no longer produce valid output.
func (k *Kernel) PurgeExpired(now simtime.Time) {
	kept := k.ready[:0]
	k.purged = k.purged[:0]
	for _, j := range k.ready {
		if j.AbsDeadline <= now {
			k.total.Missed++
			k.total.Expired++
			k.window.Missed++
			k.window.Expired++
			if j.Task.IsControl {
				k.total.E2EDecided++
				k.total.E2EMissed++
				k.window.E2EDecided++
				k.window.E2EMissed++
			}
			k.traceJob(EventExpire, now, j, -1)
			if k.onDecided != nil {
				k.onDecided(now, j, true)
			}
			k.purged = append(k.purged, j)
			continue
		}
		kept = append(kept, j)
	}
	k.ready = kept
	if len(k.purged) > 0 {
		// Notify the observer before freeing: a queue-observing scheduler
		// rebuilds its view from the surviving queue here, dropping any
		// internal references to the purged records.
		k.queueChanged(now)
		for i, j := range k.purged {
			k.jobs.Free(j)
			k.purged[i] = nil
		}
	}
}

// Next asks the policy for the job to run on processor proc and removes it
// from the ready queue, or returns nil when the queue is empty or no job is
// eligible. Callers should PurgeExpired first.
func (k *Kernel) Next(now simtime.Time, proc int) *sched.Job {
	if len(k.ready) == 0 {
		return nil
	}
	idx := k.sch.Select(now, k.ready, proc, k.b.ProcState(now))
	if idx < 0 {
		return nil
	}
	j := k.ready[idx]
	k.ready = append(k.ready[:idx], k.ready[idx+1:]...)
	k.traceJob(EventDispatch, now, j, proc)
	return j
}

// Complete finalises a job dispatched on processor proc that ran for
// actual: deadline accounting, data propagation and control emission. The
// backend must clear its own processor bookkeeping before calling it.
func (k *Kernel) Complete(now simtime.Time, proc int, j *sched.Job, actual simtime.Duration) {
	id := j.Task.ID
	k.observed[id] = actual

	missed := now > j.AbsDeadline
	if j.Task.IsControl {
		k.total.E2EDecided++
		k.window.E2EDecided++
		if missed {
			k.total.E2EMissed++
			k.window.E2EMissed++
		}
	}
	if k.onDecided != nil {
		k.onDecided(now, j, missed)
	}
	if missed {
		k.total.Missed++
		k.window.Missed++
		k.traceJob(EventMiss, now, j, proc)
	} else {
		k.total.Completed++
		k.window.Completed++
		k.traceJob(EventComplete, now, j, proc)
		k.Propagate(now, j)
	}
	k.queueChanged(now)
	k.b.Wake(now)
	// The backend dropped its reference before calling Complete, and all
	// observers above run synchronously: the record can be reused.
	k.jobs.Free(j)
}

// Propagate pushes the completed job's output onto its outgoing edges and
// data-triggers successors whose primary edge refreshed. Control tasks emit
// commands first.
func (k *Kernel) Propagate(now simtime.Time, j *sched.Job) {
	if j.Task.IsControl {
		k.emitControl(now, j)
	}
	id := j.Task.ID
	outs := k.outEdges[id]
	for i, succ := range k.succs[id] {
		ed := outs[i]
		ed.fresh = true
		ed.has = true
		ed.sourceTime = j.SourceTime
		ed.producedAt = now
		// preds[succ][0] is the primary (triggering) predecessor — the
		// first edge added, same order dag.PrimaryPred reports.
		if k.preds[succ][0] == id {
			k.tryRelease(now, succ)
		}
	}
}

// tryRelease data-triggers task id: it releases when the primary edge is
// fresh and every incoming edge has carried data at least once. The primary
// data is consumed; auxiliary inputs are read at their latest values. The
// job inherits the sensing instant of its primary chain — the capture time
// of the source at the root of the chain of primary edges — which defines
// the pipeline's end-to-end staleness.
func (k *Kernel) tryRelease(now simtime.Time, id dag.TaskID) {
	ins := k.inEdges[id]
	for _, ed := range ins {
		if !ed.has {
			return
		}
	}
	primary := ins[0]
	if !primary.fresh {
		return
	}
	primary.fresh = false
	if k.maxAge > 0 {
		for _, ed := range ins {
			if now-ed.producedAt > k.maxAge {
				// An input is too stale for a valid cycle: the
				// release is invalid and counts as a miss of
				// the consuming task.
				k.invalidCycle(now, id, primary.sourceTime)
				return
			}
		}
	}
	k.release(now, id, primary.sourceTime)
}

// invalidCycle accounts a data-triggered release whose inputs were too
// stale to produce valid output.
func (k *Kernel) invalidCycle(now simtime.Time, id dag.TaskID, sourceTime simtime.Time) {
	t := k.graph.Task(id)
	k.cycles[id]++
	j := k.jobs.New()
	j.Task = t
	j.Cycle = k.cycles[id]
	j.Release = now
	j.AbsDeadline = now
	j.EstExec = k.observed[id]
	j.SourceTime = sourceTime
	k.total.Released++
	k.window.Released++
	k.total.Missed++
	k.window.Missed++
	if t.IsControl {
		k.total.E2EDecided++
		k.total.E2EMissed++
		k.window.E2EDecided++
		k.window.E2EMissed++
	}
	k.traceJob(EventInvalid, now, j, -1)
	if k.onDecided != nil {
		k.onDecided(now, j, true)
	}
	k.jobs.Free(j)
}

// emitControl accounts and publishes a control command.
func (k *Kernel) emitControl(now simtime.Time, j *sched.Job) {
	cmd := ControlCommand{
		Task:       j.Task,
		Cycle:      j.Cycle,
		Release:    j.Release,
		Completed:  now,
		SourceTime: j.SourceTime,
	}
	k.total.ControlCommands++
	k.window.ControlCommands++
	k.total.ControlResponse.Add(float64(cmd.ResponseTime()))
	k.window.ControlResponse.Add(float64(cmd.ResponseTime()))
	k.total.EndToEnd.Add(float64(cmd.EndToEndLatency()))
	k.window.EndToEnd.Add(float64(cmd.EndToEndLatency()))
	k.traceJob(EventControl, now, j, -1)
	if k.onCmd != nil {
		k.onCmd(cmd)
	}
}
