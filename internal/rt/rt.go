// Package rt is the wall-clock counterpart of the discrete-event engine: a
// goroutine-based real-time executor that runs the same task graphs under
// the same scheduling policies on actual time, standing in for the paper's
// 1:10-scale hardware testbed (DESIGN.md §5 substitution).
//
// The job-lifecycle semantics — periodic source release with off-CPU capture
// latency, data-triggered release on the primary predecessor, deadline and
// end-to-end-budget expiry, discard of late output, control-command emission
// — live in the shared internal/lifecycle kernel, which also times every
// source capture; this package is the kernel's wall-clock Backend. It
// contributes exactly the execution substrate: worker goroutines as
// processors that sleep for each job's sampled execution time, time.After
// for capture latencies and capture periods, and a mutex/cond pair
// serializing kernel access.
//
// When a tracking-error source is configured, the executor runs the
// simulation's HCPerf coordinator (internal/core) on its kernel, stepping
// both coordination loops from wall-clock tickers, so HCPerf's full
// hierarchy runs on wall clock too.
package rt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hcperf/internal/core"
	"hcperf/internal/dag"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
)

// DefaultStopTimeout bounds how long Stop waits for goroutines to exit.
const DefaultStopTimeout = 10 * time.Second

// Config configures an Executor.
type Config struct {
	// Graph is the validated task graph to execute.
	Graph *dag.Graph
	// Scheduler is the dispatch policy (pass a *sched.Dynamic to enable
	// HCPerf coordination together with TrackingError).
	Scheduler sched.Scheduler
	// NumProcs is the worker count (M >= 1).
	NumProcs int
	// Seed seeds execution-time sampling.
	Seed int64
	// Scene supplies the runtime scene by wall-clock offset; nil means
	// exectime.NominalScene.
	Scene func(elapsed simtime.Time) exectime.Scene
	// MaxDataAge bounds input ages as in the engine (0 disables).
	MaxDataAge simtime.Duration
	// OnControl observes emitted control commands (called off the worker
	// goroutines' critical section but potentially concurrently).
	OnControl func(cmd lifecycle.ControlCommand)
	// Tracer optionally receives the structured lifecycle event stream.
	// It is invoked with the executor lock held and must not block.
	Tracer lifecycle.Tracer
	// TrackingError, when set together with a *sched.Dynamic scheduler,
	// enables the HCPerf coordinators on wall clock. It is called outside
	// the executor lock, from one goroutine.
	TrackingError func(elapsed simtime.Time) float64
	// DisableExternal turns off the Task Rate Adapter.
	DisableExternal bool
	// ControlPeriod is the internal-coordinator period (default 100 ms).
	ControlPeriod time.Duration
	// AdaptPeriod is the external-coordinator period (default 1 s).
	AdaptPeriod time.Duration
}

// Executor runs a task graph on wall-clock time.
type Executor struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond
	k         *lifecycle.Kernel
	running   []simtime.Time  // per-worker expected finish (elapsed time)
	procState sched.ProcState // reused snapshot, guarded by mu
	stopped   bool

	start   time.Time
	started bool
	wg      sync.WaitGroup
	stopCh  chan struct{}

	coord *core.Coordinator // nil without a TrackingError
}

// rtBackend adapts the Executor onto lifecycle.Backend: capture latencies
// are timer goroutines, waking idle processors is a cond broadcast. Every
// method is invoked by the kernel with e.mu held.
type rtBackend struct {
	e *Executor
}

// DeliverAfter implements lifecycle.Backend. The delivery goroutine joins
// the executor's WaitGroup. Add is safe: its callers are Start, holding the
// lock Shutdown takes before it waits, and a delivery goroutine that is
// itself still registered, so the counter cannot be zero under a Wait.
func (b rtBackend) DeliverAfter(now simtime.Time, d simtime.Duration, fn func(at simtime.Time)) {
	e := b.e
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		if d > 0 {
			select {
			case <-e.stopCh:
				return
			case <-time.After(d.ToDuration()):
			}
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.stopped {
			return
		}
		fn(e.Elapsed())
	}()
}

// Wake implements lifecycle.Backend.
func (b rtBackend) Wake(now simtime.Time) { b.e.cond.Broadcast() }

// ProcState implements lifecycle.Backend. Every call arrives with e.mu
// held, so the snapshot is reused across scheduling decisions instead of
// being allocated per call (see the Backend non-retention contract).
func (b rtBackend) ProcState(now simtime.Time) *sched.ProcState {
	e := b.e
	st := &e.procState
	for i, until := range e.running {
		var r simtime.Duration
		if until > now {
			r = until - now
		}
		st.Remaining[i] = r
	}
	return st
}

// New validates cfg and builds an executor.
func New(cfg Config) (*Executor, error) {
	if cfg.NumProcs < 1 {
		return nil, fmt.Errorf("rt: NumProcs %d < 1", cfg.NumProcs)
	}
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = 100 * time.Millisecond
	}
	if cfg.AdaptPeriod <= 0 {
		cfg.AdaptPeriod = time.Second
	}
	e := &Executor{
		cfg:     cfg,
		running: make([]simtime.Time, cfg.NumProcs),
		procState: sched.ProcState{
			NumProcs:  cfg.NumProcs,
			Remaining: make([]simtime.Duration, cfg.NumProcs),
		},
		stopCh: make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	onControl := cfg.OnControl
	k, err := lifecycle.NewKernel(lifecycle.Config{
		Graph:      cfg.Graph,
		Scheduler:  cfg.Scheduler,
		Seed:       cfg.Seed,
		Scene:      cfg.Scene,
		MaxDataAge: cfg.MaxDataAge,
		OnControl: func(cmd lifecycle.ControlCommand) {
			if onControl == nil {
				return
			}
			// The kernel runs under e.mu; release it around the user
			// callback so observers may call back into the executor.
			e.mu.Unlock()
			onControl(cmd)
			e.mu.Lock()
		},
		Tracer: cfg.Tracer,
	}, rtBackend{e})
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	e.k = k
	if cfg.TrackingError != nil {
		if _, ok := cfg.Scheduler.(*sched.Dynamic); !ok {
			return nil, errors.New("rt: TrackingError requires a *sched.Dynamic scheduler")
		}
		trackingError := cfg.TrackingError
		e.coord, err = core.New(core.Config{
			Kernel: k,
			// The control step runs under e.mu; like OnControl, the user
			// callback runs with it released.
			TrackingError: func(now simtime.Time) float64 {
				e.mu.Unlock()
				defer e.mu.Lock()
				return trackingError(now)
			},
			ControlPeriod:   simtime.FromDuration(cfg.ControlPeriod),
			AdaptPeriod:     simtime.FromDuration(cfg.AdaptPeriod),
			DisableExternal: cfg.DisableExternal,
		})
		if err != nil {
			return nil, fmt.Errorf("rt: %w", err)
		}
	}
	return e, nil
}

// Start schedules each source's first capture for now, then launches the
// workers and (if configured) the coordinators.
func (e *Executor) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return errors.New("rt: already started")
	}
	e.started = true
	e.start = time.Now()
	if err := e.k.Start(e.Elapsed()); err != nil {
		return fmt.Errorf("rt: %w", err)
	}
	for w := 0; w < e.cfg.NumProcs; w++ {
		e.wg.Add(1)
		go e.worker(w)
	}
	if c := e.coord; c != nil {
		e.wg.Add(1)
		go e.every(e.cfg.ControlPeriod, c.ControlStep)
		if !e.cfg.DisableExternal {
			e.wg.Add(1)
			go e.every(e.cfg.AdaptPeriod, c.AdaptStep)
		}
	}
	return nil
}

// Shutdown signals every goroutine to stop and waits until they exit or ctx
// is done, whichever comes first. A wedged worker (e.g. one blocked in an
// OnControl callback) makes Shutdown return ctx.Err() instead of hanging;
// the straggler still exits once it unblocks. Shutdown is idempotent.
func (e *Executor) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		return nil
	}
	if !e.stopped {
		e.stopped = true
		close(e.stopCh)
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("rt: shutdown: %w", ctx.Err())
	}
}

// Stop halts all goroutines, waiting up to DefaultStopTimeout for them to
// exit.
func (e *Executor) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultStopTimeout)
	defer cancel()
	return e.Shutdown(ctx)
}

// Stats returns a snapshot of the counters.
func (e *Executor) Stats() lifecycle.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.k.Stats()
}

// Elapsed returns the wall-clock time since Start.
func (e *Executor) Elapsed() simtime.Time {
	return simtime.Time(time.Since(e.start).Seconds())
}

// worker is one processor: it waits for an eligible job, runs it to
// completion and finalises it through the kernel.
func (e *Executor) worker(w int) {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		var j *sched.Job
		for {
			if e.stopped {
				e.mu.Unlock()
				return
			}
			now := e.Elapsed()
			e.k.PurgeExpired(now)
			j = e.k.Next(now, w)
			if j != nil {
				break
			}
			e.cond.Wait()
		}
		now := e.Elapsed()
		actual := e.k.SampleExec(now, j.Task)
		e.running[w] = now + actual
		e.mu.Unlock()

		// Execution is a sleep for the sampled time, cut short by Shutdown.
		select {
		case <-e.stopCh:
		case <-time.After(actual.ToDuration()):
		}

		done := e.Elapsed()
		e.mu.Lock()
		e.running[w] = 0
		// The observed execution time is the wall clock actually spent,
		// not the sampled target: sleep overshoot feeds back into c_i
		// like on real hardware.
		e.k.Complete(done, w, j, done-now)
		e.mu.Unlock()
	}
}

// every runs one coordination loop on wall clock: step, called with the
// executor lock held, once per period until Shutdown.
func (e *Executor) every(period time.Duration, step func(now simtime.Time)) {
	defer e.wg.Done()
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ticker.C:
		}
		e.mu.Lock()
		if !e.stopped {
			step(e.Elapsed())
		}
		e.mu.Unlock()
	}
}
