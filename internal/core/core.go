// Package core implements HCPerf itself: the performance-directed
// hierarchical coordination framework (paper Fig. 6). It wires the two
// coordinators around a lifecycle kernel, whichever backend runs it — the
// discrete-event engine or the wall-clock executor:
//
//   - The internal coordinator runs once per control period: it samples the
//     vehicle's driving-performance tracking error E(t), feeds it through
//     the Performance Directed Controller (package mfc) to obtain the
//     nominal priority-adjustment signal u(t), and installs u on the
//     Dynamic Priority Scheduler (package sched), which clamps it into the
//     schedulable range [0, γmax] and dispatches by P_i = γ·p_i + d_i.
//
//   - The external coordinator runs once per adaptation period: it reads
//     the deadline-miss ratio of the jobs decided since its previous step
//     from the kernel, runs the Task Rate Adapter (package rate), and
//     applies the resulting source-task rates, which the kernel's next
//     captures follow. It also watches the observed execution-time regime
//     and resets the adapter gain when the scene changes abruptly.
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

// Config configures a Coordinator.
type Config struct {
	// Kernel is the lifecycle kernel to coordinate. It must dispatch with
	// a *sched.Dynamic, the HCPerf scheduler the coordinator steers.
	Kernel *lifecycle.Kernel
	// TrackingError samples the driving performance each control period.
	TrackingError TrackingErrorFunc
	// MFC parameterises the Performance Directed Controller. Zero value
	// selects MFCConfigForScale(DefaultErrScale, GammaCap) of the kernel's
	// scheduler.
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
	k       *lifecycle.Kernel
	dyn     *sched.Dynamic
	pdc     *mfc.Controller
	adapter *rate.Adapter
	trkErr  TrackingErrorFunc

	controlPeriod simtime.Duration
	adaptPeriod   simtime.Duration
	external      bool
	onControl     func(now simtime.Time, e, u, gamma float64)
	onAdapt       func(now simtime.Time, missRatio float64, proposals []rate.Proposal)

	sources []*dag.Task
	// last holds the kernel's counters at the previous adaptation step, so
	// each step sees the jobs decided since then.
	last     lifecycle.Stats
	started  bool
	overhead stats.Accumulator // wall-clock seconds per coordinator step
}

// New validates cfg and builds a coordinator. Call Start to coordinate on
// an event queue, or call ControlStep and AdaptStep from another clock; the
// kernel must be started separately.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Kernel == nil {
		return nil, errors.New("core: nil kernel")
	}
	dyn, ok := cfg.Kernel.Scheduler().(*sched.Dynamic)
	if !ok {
		return nil, errors.New("core: kernel does not dispatch with a *sched.Dynamic")
	}
	if cfg.TrackingError == nil {
		return nil, errors.New("core: nil tracking-error source")
	}
	mcfg := cfg.MFC
	if mcfg == (mfc.Config{}) {
		mcfg = MFCConfigForScale(DefaultErrScale, dyn.GammaCap)
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
		k:             cfg.Kernel,
		dyn:           dyn,
		pdc:           pdc,
		adapter:       adapter,
		trkErr:        cfg.TrackingError,
		controlPeriod: controlPeriod,
		adaptPeriod:   adaptPeriod,
		external:      !cfg.DisableExternal,
		onControl:     cfg.OnControlPeriod,
		onAdapt:       cfg.OnAdaptPeriod,
		sources:       cfg.Kernel.Graph().Sources(),
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
	if err := q.NewTicker(now+c.controlPeriod, c.controlPeriod, c.ControlStep); err != nil {
		return fmt.Errorf("core: start internal coordinator: %w", err)
	}
	if c.external {
		if err := q.NewTicker(now+c.adaptPeriod, c.adaptPeriod, c.AdaptStep); err != nil {
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
// at time now on the kernel's clock. Steps must not overlap any other call
// into the kernel, and now must not decrease from step to step.
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
	// than waiting for the next queue change. Reading γ runs the search,
	// so the step's overhead covers it.
	c.k.RefreshObserver(now)
	gamma := c.dyn.Gamma()
	c.overhead.Add(time.Since(wall).Seconds())
	if c.onControl != nil {
		c.onControl(now, e, u, gamma)
	}
}

// AdaptStep is one external-coordinator period (paper Fig. 6 right loop),
// under the same rules as ControlStep.
func (c *Coordinator) AdaptStep(now simtime.Time) {
	wall := time.Now()
	total := c.k.Stats()
	win := lifecycle.Stats{
		Completed:  total.Completed - c.last.Completed,
		Missed:     total.Missed - c.last.Missed,
		E2EDecided: total.E2EDecided - c.last.E2EDecided,
		E2EMissed:  total.E2EMissed - c.last.E2EMissed,
	}
	c.last = total
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
		current[s] = c.k.Rate(s.ID)
	}
	proposals, err := c.adapter.Step(miss, current)
	if err != nil {
		panic(fmt.Sprintf("core: rate adapter: %v", err))
	}
	for _, p := range proposals {
		if p.NewRate == p.OldRate {
			continue
		}
		if _, err := c.k.SetRate(p.Task.ID, p.NewRate); err != nil {
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
	for _, t := range c.k.Graph().Tasks() {
		nom := float64(t.Exec.Nominal())
		if nom <= 0 {
			continue
		}
		if r := float64(c.k.ObservedExec(t.ID)) / nom; r > maxRatio {
			maxRatio = r
		}
	}
	return maxRatio
}
