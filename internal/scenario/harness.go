package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"hcperf/internal/core"
	"hcperf/internal/dag"
	"hcperf/internal/engine"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/metrics"
	"hcperf/internal/mfc"
	"hcperf/internal/rate"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
	"hcperf/internal/stats"
	"hcperf/internal/trace"
)

// This file is the shared closed-loop simulation kernel under every
// scenario. One loop owns the machinery each scenario used to duplicate —
// graph construction, load steps, rate overrides, scheduler/γ-cap setup,
// engine wiring, coordinator wiring, the vehicle-dynamics ticker, the
// summary-sample ticker and per-second deadline accounting. A scenario is
// a Plant (the vehicle-side world) and a family (what the scenario fixes:
// its graph and its default duration, obstacles and rates); the caller's
// knobs are one Loop. The four paper scenarios and any custom Spec all run
// through attachLoop.

// DefaultMaxDataAge is the input-age validity bound every scenario uses
// unless overridden: a control output computed from sensor data older than
// this is treated as a deadline miss (paper §V-B).
const DefaultMaxDataAge = 220 * simtime.Millisecond

// resolveMaxDataAge maps the MaxDataAge config sentinel to the engine
// value: 0 means the 220 ms default, negative disables the bound entirely
// (the engine treats 0 as "no bound").
func resolveMaxDataAge(v simtime.Duration) simtime.Duration {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	default:
		return DefaultMaxDataAge
	}
}

// Graph names accepted by the harness and the Spec layer.
const (
	// GraphAD23 is the paper's 23-task autonomous-driving graph.
	GraphAD23 = "ad23"
	// GraphDualControl is the 24-task dual-sink extension graph.
	GraphDualControl = "dual-control"
	// GraphMotivation is the §II motivation graph (Fig. 2).
	GraphMotivation = "motivation"
)

// GraphNames lists the known task graphs in stable order.
func GraphNames() []string {
	return []string{GraphAD23, GraphDualControl, GraphMotivation}
}

// BuildGraph constructs a fresh task graph by name.
func BuildGraph(name string) (*dag.Graph, error) {
	switch name {
	case GraphAD23:
		return dag.ADGraph23()
	case GraphDualControl:
		return dag.ADGraphDualControl()
	case GraphMotivation:
		return dag.MotivationGraph()
	default:
		return nil, checkGraph(name)
	}
}

// checkGraph validates a graph name without building the graph: nil for a
// name in GraphNames, otherwise the error BuildGraph returns for it.
func checkGraph(name string) error {
	for _, g := range GraphNames() {
		if name == g {
			return nil
		}
	}
	return fmt.Errorf("scenario: unknown graph %q (have %s)", name, strings.Join(GraphNames(), ", "))
}

// TaskLoad multiplies one task's execution time over time windows, on top
// of the obstacle profile — the mechanism behind the complex-scene and
// load-sweep studies.
type TaskLoad struct {
	// Task names the target task in the selected graph.
	Task string
	// Steps are the multiplicative windows (see exectime.NewProfile).
	Steps []exectime.Step
}

// Plant is the vehicle-side world a scenario plugs into the loop: it
// integrates dynamics, perceives through stale pipeline outputs, exposes
// the tracking error the coordinator regulates, and records its
// scenario-specific series.
type Plant interface {
	// Perceive handles one control command: look up world history at the
	// command's source time and actuate. Called for every command the
	// pipeline emits.
	Perceive(cmd lifecycle.ControlCommand)
	// Step advances vehicle dynamics by one VehicleStep ending at now,
	// records world history and per-step series.
	Step(now float64)
	// TrackingError is the performance signal the coordinator regulates
	// (HCPerf schemes only).
	TrackingError(now simtime.Time) float64
	// CoordSample observes one coordinator control period (HCPerf schemes
	// only); plants record gamma/u/error series here, or nothing.
	CoordSample(now simtime.Time, e, u, gamma float64)
	// Sample records the once-per-SamplePeriod summary series.
	Sample(now float64, env *Env)
}

// JobObserver is an optional Plant extension: scenarios that account
// per-job outcomes beyond the harness's miss buckets (e.g. the weakly-hard
// tracker) implement it.
type JobObserver interface {
	JobDecided(j *sched.Job, missed bool)
}

// Env exposes the engine-side state a Plant may read while sampling.
type Env struct {
	Eng   *engine.Engine
	Graph *dag.Graph
	Miss  *metrics.MissBuckets
}

// Loop is the closed loop's configuration: every knob of a scenario run
// that is not vehicle dynamics. Zero fields take the scenario's defaults;
// Scheme is required.
type Loop struct {
	// Scheme selects the scheduling scheme.
	Scheme Scheme
	// Seed drives all run randomness.
	Seed int64
	// Duration is the simulated span in seconds (0 = the scenario's
	// default).
	Duration float64
	// NumProcs is the processor count (0 = 2).
	NumProcs int
	// VehicleStep is the dynamics integration step in seconds (0 = 10 ms).
	VehicleStep float64
	// SampleRate is the summary-series sample frequency in Hz (0 = 1 Hz).
	SampleRate float64
	// MaxDataAge overrides the input-age validity bound: 0 = default
	// (DefaultMaxDataAge, 220 ms), negative = disabled (ablation:
	// auxiliary-task starvation becomes free).
	MaxDataAge simtime.Duration
	// GammaCap overrides the Dynamic scheduler's γ cap for ablation
	// studies (0 = sched.DefaultGammaCap).
	GammaCap float64
	// DisableE2E clears the end-to-end deadline of every control task
	// (ablation: the external coordinator loses its latency signal).
	DisableE2E bool
	// Loads multiply task execution times over time windows, on top of
	// the obstacle profile.
	Loads []TaskLoad
	// RateOverrides sets initial source rates by task name; each must lie
	// inside the task's allowable range (nil = the scenario's rates).
	RateOverrides map[string]float64
	// Obstacles maps time to detected-obstacle count (nil = the
	// scenario's profile).
	Obstacles func(t float64) int
	// Tracer optionally receives the engine's structured lifecycle event
	// stream (per-job timelines).
	Tracer lifecycle.Tracer
	// Tunables sets the coordinator parameter set (MFC window, adapter
	// gains, rate-band scales). Zero fields take the paper defaults
	// (core.DefaultTunables); the search subsystem explores this space.
	// Lane keeping keeps its own rate-adapter profile, so the adapter
	// gains do not apply there.
	Tunables core.Tunables
}

// family is what one scenario fixes about its loop: the task graph, the
// defaults of the Loop knobs that differ by scenario, and the coordinator
// profile.
type family struct {
	graph     string
	duration  float64
	obstacles func(t float64) int
	// rates are the initial source rates; nothing writes them.
	rates map[string]float64
	// mfcScale overrides the MFC gain scale (0 = coordinator default).
	mfcScale float64
	// rateConfig tunes the Task Rate Adapter (zero value = the tunable
	// set's profile).
	rateConfig rate.Config
}

// applyDefaults validates the loop knobs and fills each zero one from the
// scenario family f or the common default.
func (l *Loop) applyDefaults(f family) error {
	if l.Scheme == 0 {
		return errors.New("scenario: no scheme selected")
	}
	if l.Duration == 0 {
		l.Duration = f.duration
	}
	if l.Duration <= 0 {
		return fmt.Errorf("scenario: non-positive duration %v", l.Duration)
	}
	if l.NumProcs == 0 {
		l.NumProcs = 2
	}
	if l.NumProcs < 1 {
		return fmt.Errorf("scenario: NumProcs %d < 1", l.NumProcs)
	}
	if l.VehicleStep == 0 {
		l.VehicleStep = 0.01
	}
	if l.VehicleStep <= 0 {
		return fmt.Errorf("scenario: non-positive vehicle step %v", l.VehicleStep)
	}
	if l.SampleRate < 0 {
		return fmt.Errorf("scenario: negative sample rate %v", l.SampleRate)
	}
	if l.Obstacles == nil {
		l.Obstacles = f.obstacles
	}
	if l.RateOverrides == nil {
		l.RateOverrides = f.rates
	}
	return nil
}

// loopResult is what the kernel hands back; plants keep their own
// scenario-specific aggregates internally.
type loopResult struct {
	Rec         *trace.Recorder
	Miss        *metrics.MissBuckets
	EngineStats lifecycle.Stats
	Overhead    stats.Accumulator
}

// attachedLoop is one closed loop wired onto an event queue but not yet run
// to completion. Single-vehicle scenarios attach to a private queue and run
// it immediately (runLoop); the fleet layer attaches each vehicle's loop,
// after a platoon follower's replay ticker, to a queue reset since the
// previous vehicle ran, and runs it before the next vehicle's.
type attachedLoop struct {
	miss  *metrics.MissBuckets
	eng   *engine.Engine
	coord *core.Coordinator
}

// finish collects the loop's result, without series, after the owning
// queue has been run to the loop's duration.
func (a *attachedLoop) finish() *loopResult {
	res := &loopResult{Miss: a.miss, EngineStats: a.eng.Kernel().Stats()}
	if a.coord != nil {
		res.Overhead = a.coord.Overhead()
	}
	return res
}

// runLoop applies f's defaults to *l and executes one closed-loop run:
// build the graph and scheduler, wire engine + coordinator + plant, tick
// dynamics and summaries, run to Duration. The build callback constructs
// the plant against the run's recorder once *l holds its defaults.
func runLoop(l *Loop, f family, build func(rec *trace.Recorder, n seriesLens) (Plant, error)) (*loopResult, error) {
	if err := l.applyDefaults(f); err != nil {
		return nil, err
	}
	q := simtime.NewEventQueue()
	rec := trace.NewRecorder()
	a, err := attachLoop(q, *l, f, func(n seriesLens) (Plant, error) { return build(rec, n) })
	if err != nil {
		return nil, err
	}
	q.RunUntil(simtime.Time(l.Duration))
	res := a.finish()
	res.Rec = rec
	return res, nil
}

// attachLoop wires one closed loop onto q without running it: graph, load
// steps, scheduler, engine, coordinator, the vehicle-dynamics ticker and
// the summary-sample ticker. Registration order is load-bearing — events
// scheduled for the same instant fire in creation order, so the sequence
// below (plant dynamics, summary sample, engine sources, coordinator) is
// part of the simulation's observable behaviour and must not be reordered.
// lc must hold its defaults (Loop.applyDefaults). build constructs the
// plant, given how many samples each kind of series the run records can
// take.
func attachLoop(q *simtime.EventQueue, lc Loop, f family, build func(n seriesLens) (Plant, error)) (*attachedLoop, error) {
	tun, err := lc.Tunables.Resolved()
	if err != nil {
		return nil, err
	}
	graph, err := BuildGraph(f.graph)
	if err != nil {
		return nil, err
	}
	for _, l := range lc.Loads {
		if err := applyLoadSteps(graph, l.Task, l.Steps); err != nil {
			return nil, err
		}
	}
	if len(lc.RateOverrides) > 0 {
		if err := applyRateOverrides(graph, lc.RateOverrides); err != nil {
			return nil, err
		}
	}
	// Rate-band rescaling runs after the initial-rate overrides: the
	// overrides are validated against the paper's bands, then the tunable
	// scales reshape the range the rate adapter may move in.
	if err := tun.ApplyRateBounds(graph); err != nil {
		return nil, err
	}
	if lc.DisableE2E {
		for _, t := range graph.Tasks() {
			if t.IsControl {
				t.E2E = 0
			}
		}
	}
	scheduler, dyn, err := NewScheduler(lc.Scheme)
	if err != nil {
		return nil, err
	}
	if dyn != nil && lc.GammaCap > 0 {
		dyn.GammaCap = lc.GammaCap
	}
	samplePeriod := 1.0
	if lc.SampleRate > 0 {
		samplePeriod = 1 / lc.SampleRate
	}
	lens := seriesLens{step: ticks(lc.Duration, lc.VehicleStep), sample: ticks(lc.Duration, samplePeriod)}
	var mcfg mfc.Config
	if lc.Scheme.IsHCPerf() {
		// The MFC configuration is built from the tunable set around the
		// scheduler's γ cap; its sampling period is the coordinator's
		// control period.
		mcfg = tun.MFCConfig(f.mfcScale, dyn.GammaCap)
		lens.control = ticks(lc.Duration, float64(mcfg.Ts))
	}

	plant, err := build(lens)
	if err != nil {
		return nil, err
	}
	jobs, _ := plant.(JobObserver)

	miss, err := metrics.NewMissBuckets(1)
	if err != nil {
		return nil, err
	}
	env := &Env{Graph: graph, Miss: miss}

	eng, err := engine.New(engine.Config{
		Kernel: lifecycle.Config{
			Graph:      graph,
			Scheduler:  scheduler,
			Seed:       lc.Seed,
			MaxDataAge: resolveMaxDataAge(lc.MaxDataAge),
			Tracer:     lc.Tracer,
			Scene: func(now simtime.Time) exectime.Scene {
				return exectime.Scene{Obstacles: lc.Obstacles(float64(now)), LoadFactor: 1}
			},
			OnControl: plant.Perceive,
			OnJobDecided: func(now simtime.Time, j *sched.Job, missed bool) {
				// Sampling error at exactly t=Duration lands in a fresh
				// bucket; fold it back.
				t := math.Min(float64(now), lc.Duration-1e-9)
				if err := miss.Note(t, missed); err != nil {
					panic(fmt.Sprintf("scenario: miss bucket: %v", err))
				}
				if jobs != nil {
					jobs.JobDecided(j, missed)
				}
			},
		},
		NumProcs: lc.NumProcs,
		Queue:    q,
	})
	if err != nil {
		return nil, err
	}
	env.Eng = eng

	var coord *core.Coordinator
	if lc.Scheme.IsHCPerf() {
		// Scenarios with a bespoke adapter profile (lane keeping) keep it;
		// the tunable Kp0/decay overlay applies only on the default
		// profile.
		rcfg := f.rateConfig
		if rcfg == (rate.Config{}) {
			rcfg = tun.RateConfig()
		}
		ccfg := core.Config{
			Kernel:          eng.Kernel(),
			MFC:             mcfg,
			Rate:            rcfg,
			TrackingError:   plant.TrackingError,
			DisableExternal: lc.Scheme == SchemeHCPerfInternal,
			OnControlPeriod: plant.CoordSample,
		}
		if coord, err = core.New(ccfg); err != nil {
			return nil, err
		}
	}

	// Vehicle dynamics loop.
	if err := q.NewTicker(simtime.Time(lc.VehicleStep), simtime.Duration(lc.VehicleStep), func(now simtime.Time) {
		plant.Step(float64(now))
	}); err != nil {
		return nil, err
	}
	// Summary series.
	if err := q.NewTicker(simtime.Time(samplePeriod), simtime.Duration(samplePeriod), func(now simtime.Time) {
		plant.Sample(float64(now), env)
	}); err != nil {
		return nil, err
	}

	if err := eng.Start(); err != nil {
		return nil, err
	}
	if coord != nil {
		if err := coord.Start(q); err != nil {
			return nil, err
		}
	}
	return &attachedLoop{miss: miss, eng: eng, coord: coord}, nil
}

// applyLoadSteps wraps the named task's execution model in a load profile.
func applyLoadSteps(g *dag.Graph, taskName string, steps []exectime.Step) error {
	if len(steps) == 0 {
		return nil
	}
	t := g.TaskByName(taskName)
	if t == nil {
		return fmt.Errorf("scenario: unknown task %q for load steps", taskName)
	}
	prof, err := exectime.NewProfile(t.Exec, steps)
	if err != nil {
		return err
	}
	t.Exec = prof
	return nil
}

// applyRateOverrides sets the initial rates of source tasks by name, in
// name order, so a spec with several bad overrides always fails on the
// same one.
func applyRateOverrides(g *dag.Graph, overrides map[string]float64) error {
	names := make([]string, 0, len(overrides))
	for name := range overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := overrides[name]
		t := g.TaskByName(name)
		if t == nil {
			return fmt.Errorf("scenario: unknown task %q in rate overrides", name)
		}
		if t.MaxRate > 0 && (r < t.MinRate || r > t.MaxRate) {
			return fmt.Errorf("scenario: rate %v for %q outside [%v,%v]", r, name, t.MinRate, t.MaxRate)
		}
		t.Rate = r
	}
	return g.Validate()
}

// seriesLens is how many samples each kind of series a run records can
// take: one per dynamics step, per coordinator control period (HCPerf
// schemes only) and per summary sample.
type seriesLens struct {
	step, control, sample int
}

// ticks is the most times a ticker of the given period, first firing one
// period in, fires over a run of d seconds: the quotient's floor, plus one
// for the rounding of the accumulated tick times.
func ticks(d, period float64) int { return int(d/period) + 1 }

// seriesRow is a group of series a plant records at one instant, one
// handle per series in recording order. A plant without a recorder keeps
// a nil row.
type seriesRow []trace.Handle

// newSeriesRow takes rec's handles on the named series, each presized to
// n samples; it is nil for a nil recorder.
func newSeriesRow(rec *trace.Recorder, n int, names ...string) seriesRow {
	if rec == nil {
		return nil
	}
	r := make(seriesRow, len(names))
	for i, name := range names {
		r[i] = rec.Handle(name, n)
	}
	return r
}

// add appends vs[i] at t to the row's i-th series. A plant's series only
// ever advance with simulation time, so a failure is a harness bug.
func (r seriesRow) add(t float64, vs ...float64) {
	for i := range r {
		if err := r[i].Add(t, vs[i]); err != nil {
			panic(fmt.Sprintf("scenario: record: %v", err))
		}
	}
}
