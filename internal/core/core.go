// Package core implements HCPerf itself: the performance-directed
// hierarchical coordination framework (paper Fig. 6). It wires the two
// coordinators around a task executor, the discrete-event engine or the
// wall-clock executor's lifecycle kernel alike:
//
//   - The internal coordinator runs once per control period: it samples the
//     vehicle's driving-performance tracking error E(t), feeds it through
//     the Performance Directed Controller (package mfc) to obtain the
//     nominal priority-adjustment signal u(t), and installs u on the
//     Dynamic Priority Scheduler (package sched), which clamps it into the
//     schedulable range [0, γmax] and dispatches by P_i = γ·p_i + d_i.
//
//   - The external coordinator runs once per adaptation period: it reads
//     the windowed end-to-end deadline-miss ratio from the executor, runs
//     the Task Rate Adapter (package rate), and applies the resulting
//     source-task rates. It also watches the observed execution-time
//     regime and resets the adapter gain when the scene changes abruptly.
package core

import (
	"errors"
	"fmt"
	"time"

	"hcperf/internal/dag"
	"hcperf/internal/lifecycle"
	"hcperf/internal/mfc"
	"hcperf/internal/rate"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
	"hcperf/internal/stats"
)

// TrackingErrorFunc reports the vehicle's driving-performance tracking
// error E(t) at time now on the backend's clock — |R(t) − P(t)| in the
// problem statement (Eq. 1a), e.g. the speed difference to the lead car for
// car following or the lateral offset for lane keeping. The sign convention
// is positive = performance degrading; the controller only needs
// consistency.
type TrackingErrorFunc func(now simtime.Time) float64

// Backend is the task executor a Coordinator steers, named after the
// lifecycle kernel's own methods: *lifecycle.Kernel and *engine.Engine
// implement it.
type Backend interface {
	Graph() *dag.Graph
	Scheduler() sched.Scheduler
	// WindowStats returns the counters since the last ResetWindow.
	WindowStats() lifecycle.Stats
	ResetWindow()
	// ObservedExec returns the current estimate of a task's c_i.
	ObservedExec(id dag.TaskID) simtime.Duration
	// Rate returns a source task's release rate; SetRate retunes it,
	// clamped to the task's range, and returns the rate applied.
	Rate(id dag.TaskID) float64
	SetRate(id dag.TaskID, hz float64) (float64, error)
	// RefreshObserver re-derives the scheduler's queue-dependent state
	// (Dynamic's γmax and γ) against the live ready queue at now.
	RefreshObserver(now simtime.Time)
}

// Config configures a Coordinator.
type Config struct {
	// Backend is the task executor to coordinate.
	Backend Backend
	// Dynamic is the HCPerf scheduler instance the backend was built
	// with. It must be the same object the backend dispatches with.
	Dynamic *sched.Dynamic
	// TrackingError samples the driving performance each control period.
	TrackingError TrackingErrorFunc
	// MFC parameterises the Performance Directed Controller. Zero value
	// selects MFCConfigForScale(DefaultErrScale, Dynamic.GammaCap).
	MFC mfc.Config
	// Rate parameterises the Task Rate Adapter. Zero value selects
	// rate.DefaultConfig.
	Rate rate.Config
	// ControlPeriod is the internal coordinator's period; it defaults to
	// the MFC sampling period Ts.
	ControlPeriod simtime.Duration
	// AdaptPeriod is the external coordinator's period (default 1 s).
	AdaptPeriod simtime.Duration
	// DisableExternal turns off the Task Rate Adapter (the Fig. 18
	// ablation: internal coordinator only).
	DisableExternal bool
	// OnControlPeriod, when set, observes every internal-coordinator
	// step (diagnostics/tracing).
	OnControlPeriod func(now simtime.Time, e, u, gamma float64)
	// OnAdaptPeriod, when set, observes every external-coordinator step.
	OnAdaptPeriod func(now simtime.Time, missRatio float64, proposals []rate.Proposal)
}

// MFCConfigForScale returns a Performance Directed Controller
// configuration tuned for a driving application whose emergency-scale
// tracking error is errScale (in the application's own units: m/s for car
// following, metres of lateral offset for lane keeping): α is sized so an
// emergency-scale error traverses the scheduler's full γ range within about
// ten control periods, with anti-windup at twice the γ cap so u keeps
// responding to error changes even when the error has an unreachable floor.
func MFCConfigForScale(errScale, gammaCap float64) mfc.Config {
	cfg := mfc.DefaultConfig()
	if errScale <= 0 {
		errScale = 1
	}
	if gammaCap <= 0 {
		gammaCap = sched.DefaultGammaCap
	}
	cfg.Alpha = -errScale * 10 / gammaCap
	cfg.UClamp = 2 * gammaCap
	return cfg
}

// Coordinator is a running HCPerf instance.
type Coordinator struct {
	b       Backend
	dyn     *sched.Dynamic
	pdc     *mfc.Controller
	adapter *rate.Adapter
	trkErr  TrackingErrorFunc

	controlPeriod simtime.Duration
	adaptPeriod   simtime.Duration
	external      bool
	onControl     func(now simtime.Time, e, u, gamma float64)
	onAdapt       func(now simtime.Time, missRatio float64, proposals []rate.Proposal)

	sources  []*dag.Task
	started  bool
	overhead stats.Accumulator // wall-clock seconds per coordinator step
}

// New validates cfg and builds a coordinator. Call Start to coordinate on
// an event queue, or call ControlStep and AdaptStep from another clock; the
// backend must be started separately.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Backend == nil {
		return nil, errors.New("core: nil backend")
	}
	if cfg.Dynamic == nil {
		return nil, errors.New("core: nil dynamic scheduler")
	}
	if cfg.Backend.Scheduler() != sched.Scheduler(cfg.Dynamic) {
		return nil, errors.New("core: backend is not driven by the given dynamic scheduler")
	}
	if cfg.TrackingError == nil {
		return nil, errors.New("core: nil tracking-error source")
	}
	mcfg := cfg.MFC
	if mcfg == (mfc.Config{}) {
		mcfg = MFCConfigForScale(DefaultErrScale, cfg.Dynamic.GammaCap)
	}
	pdc, err := mfc.New(mcfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rcfg := cfg.Rate
	if rcfg == (rate.Config{}) {
		rcfg = rate.DefaultConfig()
	}
	adapter, err := rate.New(rcfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	controlPeriod := cfg.ControlPeriod
	if controlPeriod <= 0 {
		controlPeriod = mcfg.Ts
	}
	adaptPeriod := cfg.AdaptPeriod
	if adaptPeriod <= 0 {
		adaptPeriod = simtime.Second
	}
	return &Coordinator{
		b:             cfg.Backend,
		dyn:           cfg.Dynamic,
		pdc:           pdc,
		adapter:       adapter,
		trkErr:        cfg.TrackingError,
		controlPeriod: controlPeriod,
		adaptPeriod:   adaptPeriod,
		external:      !cfg.DisableExternal,
		onControl:     cfg.OnControlPeriod,
		onAdapt:       cfg.OnAdaptPeriod,
		sources:       cfg.Backend.Graph().Sources(),
	}, nil
}

// Start schedules both coordination loops on the event queue q. The first
// control period fires one period from now, the first adaptation period
// one adaptation period from now.
func (c *Coordinator) Start(q *simtime.EventQueue) error {
	if q == nil {
		return errors.New("core: nil event queue")
	}
	if c.started {
		return errors.New("core: already started")
	}
	c.started = true
	now := q.Now()
	if _, err := q.NewTicker(now+c.controlPeriod, c.controlPeriod, c.ControlStep); err != nil {
		return fmt.Errorf("core: start internal coordinator: %w", err)
	}
	if c.external {
		if _, err := q.NewTicker(now+c.adaptPeriod, c.adaptPeriod, c.AdaptStep); err != nil {
			return fmt.Errorf("core: start external coordinator: %w", err)
		}
	}
	return nil
}

// Gamma returns the scheduler's current priority-adjustment coefficient.
func (c *Coordinator) Gamma() float64 { return c.dyn.Gamma() }

// NominalU returns the Performance Directed Controller's latest output.
func (c *Coordinator) NominalU() float64 { return c.pdc.LastU() }

// AdapterKp returns the Task Rate Adapter's current gain.
func (c *Coordinator) AdapterKp() float64 { return c.adapter.Kp() }

// Overhead returns wall-clock statistics (seconds per step) of the
// coordinator's own computation, covering both coordinators — the paper's
// §VII-E overhead metric.
func (c *Coordinator) Overhead() stats.Accumulator { return c.overhead }

// ControlStep is one internal-coordinator period (paper Fig. 6 left loop)
// at time now on the backend's clock. Steps must not overlap any other
// call into the backend, and now must not decrease from step to step.
func (c *Coordinator) ControlStep(now simtime.Time) {
	wall := time.Now()
	e := c.trkErr(now)
	u, err := c.pdc.Step(now, e)
	if err != nil {
		// Both drivers step on a monotone clock; a failure here means
		// the harness is broken, not a runtime condition.
		panic(fmt.Sprintf("core: controller step: %v", err))
	}
	c.dyn.SetNominalU(u)
	// Re-derive γmax and γ against the live queue immediately rather
	// than waiting for the next queue change.
	c.b.RefreshObserver(now)
	c.overhead.Add(time.Since(wall).Seconds())
	if c.onControl != nil {
		c.onControl(now, e, u, c.dyn.Gamma())
	}
}

// AdaptStep is one external-coordinator period (paper Fig. 6 right loop),
// under the same rules as ControlStep.
func (c *Coordinator) AdaptStep(now simtime.Time) {
	wall := time.Now()
	win := c.b.WindowStats()
	c.b.ResetWindow()
	// The adapter regulates the deadline miss ratio of the system; the
	// binding constraint is whichever is worse of the end-to-end
	// (control-job) ratio and the overall job ratio, so both queue
	// overload and pipeline starvation register.
	miss := win.MissRatio()
	if e2e := win.E2EMissRatio(); e2e > miss {
		miss = e2e
	}

	// Regime tracking: the largest observed-vs-nominal execution-time
	// ratio across tasks. A doubling of any task's execution time (the
	// paper's complex-scene event) trips the adapter's gain reset.
	c.adapter.NoteExecTime(simtime.Duration(c.execRegimeSignal()))

	current := make(map[*dag.Task]float64, len(c.sources))
	for _, s := range c.sources {
		current[s] = c.b.Rate(s.ID)
	}
	proposals, err := c.adapter.Step(miss, current)
	if err != nil {
		panic(fmt.Sprintf("core: rate adapter: %v", err))
	}
	for _, p := range proposals {
		if p.NewRate == p.OldRate {
			continue
		}
		if _, err := c.b.SetRate(p.Task.ID, p.NewRate); err != nil {
			panic(fmt.Sprintf("core: apply rate: %v", err))
		}
	}
	c.overhead.Add(time.Since(wall).Seconds())
	if c.onAdapt != nil {
		c.onAdapt(now, miss, proposals)
	}
}

// execRegimeSignal returns max over tasks of observed/nominal execution
// time — a dimensionless load-regime indicator (1 = nominal).
func (c *Coordinator) execRegimeSignal() float64 {
	maxRatio := 1.0
	for _, t := range c.b.Graph().Tasks() {
		nom := float64(t.Exec.Nominal())
		if nom <= 0 {
			continue
		}
		if r := float64(c.b.ObservedExec(t.ID)) / nom; r > maxRatio {
			maxRatio = r
		}
	}
	return maxRatio
}
