package scenario

import (
	"fmt"
	"math"
	"strings"

	"hcperf/internal/core"
	"hcperf/internal/dag"
	"hcperf/internal/engine"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/metrics"
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
// a Plant (the vehicle-side world) plus a loopConfig (declarative knobs);
// the four paper scenarios and any custom Spec all run through runLoop.

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
	Perceive(cmd engine.ControlCommand)
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

// loopConfig is the declarative half of a scenario: everything the closed
// loop needs that is not vehicle dynamics.
type loopConfig struct {
	// Graph names the task graph (BuildGraph).
	Graph string
	// Scheme selects the scheduling scheme.
	Scheme Scheme
	// Seed drives engine randomness.
	Seed int64
	// Duration is the simulated span in seconds.
	Duration float64
	// NumProcs is the processor count.
	NumProcs int
	// VehicleStep is the dynamics integration step in seconds.
	VehicleStep float64
	// SampleRate is the summary-sample frequency in Hz (0 = 1 Hz).
	SampleRate float64
	// MaxDataAge carries the config sentinel (see resolveMaxDataAge).
	MaxDataAge simtime.Duration
	// GammaCap overrides the Dynamic scheduler's γ cap (0 = default).
	GammaCap float64
	// DisableE2E clears the end-to-end deadline of every control task.
	DisableE2E bool
	// Loads multiply task execution times over time windows.
	Loads []TaskLoad
	// RateOverrides sets initial source rates by task name.
	RateOverrides map[string]float64
	// Obstacles maps time to detected-obstacle count.
	Obstacles func(t float64) int
	// Tracer optionally receives the engine's lifecycle event stream.
	Tracer lifecycle.Tracer
	// MFCScale overrides the MFC gain scale (0 = coordinator default).
	MFCScale float64
	// RateConfig tunes the Task Rate Adapter (zero value = default).
	RateConfig rate.Config
	// Tunables carries the coordinator parameter set; zero fields take
	// the paper defaults (core.DefaultTunables), so a zero value is
	// byte-identical to the pre-tunables behaviour.
	Tunables core.Tunables
}

// loopResult is what the kernel hands back; plants keep their own
// scenario-specific aggregates internally.
type loopResult struct {
	Rec         *trace.Recorder
	Miss        *metrics.MissBuckets
	EngineStats engine.Stats
	Overhead    stats.Accumulator
}

// attachedLoop is one closed loop wired onto an event queue but not yet run
// to completion. Single-vehicle scenarios attach to a private queue and run
// it immediately (runLoop); the fleet layer attaches many loops to one
// shared queue so every vehicle advances on the same virtual clock.
type attachedLoop struct {
	lc    loopConfig
	rec   *trace.Recorder
	miss  *metrics.MissBuckets
	eng   *engine.Engine
	coord *core.Coordinator
	plant Plant
}

// finish collects the loop's result after the owning queue has been run to
// the loop's duration.
func (a *attachedLoop) finish() *loopResult {
	res := &loopResult{Rec: a.rec, Miss: a.miss, EngineStats: a.eng.Stats()}
	if a.coord != nil {
		res.Overhead = a.coord.Overhead()
	}
	return res
}

// runLoop executes one closed-loop run: build the graph and scheduler,
// wire engine + coordinator + plant, tick dynamics and summaries, run to
// Duration. The build callback constructs the plant against the shared
// recorder after the static configuration is validated.
func runLoop(lc loopConfig, build func(rec *trace.Recorder) (Plant, error)) (*loopResult, error) {
	q := simtime.NewEventQueue()
	a, err := attachLoop(q, lc, build)
	if err != nil {
		return nil, err
	}
	if err := q.RunUntil(simtime.Time(lc.Duration)); err != nil {
		return nil, err
	}
	return a.finish(), nil
}

// attachLoop wires one closed loop onto q without running it: graph, load
// steps, scheduler, engine, coordinator, the vehicle-dynamics ticker and
// the summary-sample ticker. Registration order is load-bearing — events
// scheduled for the same instant fire in creation order, so the sequence
// below (plant dynamics, summary sample, engine sources, coordinator) is
// part of the simulation's observable behaviour and must not be reordered.
func attachLoop(q *simtime.EventQueue, lc loopConfig, build func(rec *trace.Recorder) (Plant, error)) (*attachedLoop, error) {
	tun, err := lc.Tunables.Resolved()
	if err != nil {
		return nil, err
	}
	graph, err := BuildGraph(lc.Graph)
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
	scheduler, dyn, err := buildScheduler(lc.Scheme)
	if err != nil {
		return nil, err
	}
	// γ-cap precedence: the scenario's explicit GammaCap (ablation knob)
	// wins over the tunable set, whose default is sched.DefaultGammaCap —
	// exactly what NewDynamic(0) picked before tunables existed.
	if dyn != nil {
		dyn.GammaCap = tun.GammaCap
		if lc.GammaCap > 0 {
			dyn.GammaCap = lc.GammaCap
		}
	}
	if lc.SampleRate < 0 {
		return nil, fmt.Errorf("scenario: negative sample rate %v", lc.SampleRate)
	}
	samplePeriod := 1.0
	if lc.SampleRate > 0 {
		samplePeriod = 1 / lc.SampleRate
	}

	rec := trace.NewRecorder()
	plant, err := build(rec)
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
		Graph:      graph,
		Scheduler:  scheduler,
		NumProcs:   lc.NumProcs,
		Queue:      q,
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
	})
	if err != nil {
		return nil, err
	}
	env.Eng = eng

	var coord *core.Coordinator
	if lc.Scheme.IsHCPerf() {
		// The MFC and adapter configurations are built from the tunable
		// set around the *effective* γ cap (post-override). Scenarios
		// with a bespoke adapter profile (lane keeping) keep it; the
		// tunable Kp0/decay overlay applies only on the default profile.
		effective := tun
		effective.GammaCap = dyn.GammaCap
		rcfg := lc.RateConfig
		if rcfg == (rate.Config{}) {
			rcfg = effective.RateConfig()
		}
		ccfg := core.Config{
			Engine:          eng,
			Queue:           q,
			Dynamic:         dyn,
			MFC:             effective.MFCConfig(lc.MFCScale),
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
	if _, err := q.NewTicker(simtime.Time(lc.VehicleStep), simtime.Duration(lc.VehicleStep), func(now simtime.Time) {
		plant.Step(float64(now))
	}); err != nil {
		return nil, err
	}
	// Summary series.
	if _, err := q.NewTicker(simtime.Time(samplePeriod), simtime.Duration(samplePeriod), func(now simtime.Time) {
		plant.Sample(float64(now), env)
	}); err != nil {
		return nil, err
	}

	if err := eng.Start(); err != nil {
		return nil, err
	}
	if coord != nil {
		if err := coord.Start(); err != nil {
			return nil, err
		}
	}
	return &attachedLoop{lc: lc, rec: rec, miss: miss, eng: eng, coord: coord, plant: plant}, nil
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

// applyRateOverrides sets the initial rates of source tasks by name.
func applyRateOverrides(g *dag.Graph, overrides map[string]float64) error {
	for name, r := range overrides {
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

// recAdd appends to a recorder series; recorder series only ever advance
// with simulation time, so failures indicate harness bugs.
func recAdd(rec *trace.Recorder, name string, t, v float64) {
	if err := rec.Add(name, t, v); err != nil {
		panic(fmt.Sprintf("scenario: record %s: %v", name, err))
	}
}
