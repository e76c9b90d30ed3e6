package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"hcperf/internal/core"
	"hcperf/internal/exectime"
	"hcperf/internal/lifecycle"
	"hcperf/internal/simtime"
	"hcperf/internal/trace"
)

// Spec is the declarative, JSON-serializable form of one scenario run: the
// scenario family picks the Plant (the vehicle-side world), everything
// else configures the shared closed-loop kernel. Specs are first-class
// data — hcperf-sim runs them from files (-spec run.json) and the serving
// layer accepts them inline on POST /v1/runs, where the normalized JSON
// feeds the content-addressed cache key.
//
// Zero fields take the scenario's defaults; a Spec containing only
// {"scenario": "carfollow"} reproduces the paper's §VII-B1 run.
type Spec struct {
	// Name optionally labels the run (report IDs, filenames).
	Name string `json:"name,omitempty"`
	// Scenario selects the plant: aeb | carfollow | combined | hardware
	// | jam | lanekeep | motivation.
	Scenario string `json:"scenario"`
	// Graph names the task graph. Each scenario runs one graph
	// (carfollow family and lanekeep: ad23; combined: dual-control;
	// motivation: motivation); empty selects it, non-empty must match.
	Graph string `json:"graph,omitempty"`
	// Scheme is the scheduling scheme name (default "hcperf"): hpf |
	// edf | edfvd | apollo | hcperf | hcperf-internal.
	Scheme string `json:"scheme,omitempty"`
	// Seed drives all run randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Duration overrides the scenario duration in seconds (0 = scenario
	// default).
	Duration float64 `json:"duration,omitempty"`
	// NumProcs overrides the processor count (0 = scenario default).
	NumProcs int `json:"num_procs,omitempty"`
	// VehicleStep overrides the dynamics integration step in seconds
	// (0 = default 10 ms).
	VehicleStep float64 `json:"vehicle_step,omitempty"`
	// SampleRate is the summary-series sample frequency in Hz
	// (0 = default 1 Hz).
	SampleRate float64 `json:"sample_rate,omitempty"`
	// MaxDataAgeMS overrides the input-age validity bound in
	// milliseconds: 0 = default (220 ms), negative = disabled.
	MaxDataAgeMS float64 `json:"max_data_age_ms,omitempty"`
	// GammaCap overrides the Dynamic scheduler's γ cap (0 = default;
	// carfollow family, lanekeep and combined).
	GammaCap float64 `json:"gamma_cap,omitempty"`
	// DisableE2E clears every control task's end-to-end deadline
	// (carfollow family only).
	DisableE2E bool `json:"disable_e2e,omitempty"`
	// TrackGapError makes the coordinator track the gap error instead
	// of the speed error (carfollow family only).
	TrackGapError bool `json:"track_gap_error,omitempty"`
	// Loads multiply task execution times over time windows.
	Loads []SpecLoad `json:"loads,omitempty"`
	// RateOverrides sets initial source rates by task name.
	RateOverrides map[string]float64 `json:"rate_overrides,omitempty"`
	// Obstacles is a piecewise-constant obstacle-count profile; empty
	// keeps the scenario default.
	Obstacles []ObstaclePhase `json:"obstacles,omitempty"`
	// Tunables overrides the coordinator parameter set (car-following
	// family only): MFC window, rate-adapter gains and rate-band scales.
	// The γ cap keeps its existing top-level gamma_cap knob. Zero fields
	// take the paper defaults; a block with every field zero normalizes
	// to nil.
	Tunables *SpecTunables `json:"tunables,omitempty"`
	// Fleet scales the run from one vehicle to N coupled vehicles on one
	// shared virtual clock (car-following family only). Fleet specs are
	// executed by internal/fleet; nil keeps the single-vehicle run.
	Fleet *FleetSpec `json:"fleet,omitempty"`
}

// Fleet coupling modes accepted by FleetSpec.Coupling.
const (
	// FleetCouplingNone runs N independent vehicles over the common
	// obstacle field: no vehicle observes another.
	FleetCouplingNone = "none"
	// FleetCouplingPlatoon chains the vehicles: vehicle i follows
	// vehicle i-1's simulated motion (vehicle 0 follows the scenario's
	// lead profile), and a hard-braking predecessor inflates its
	// follower's obstacle count — V2X-style shared-world coupling.
	FleetCouplingPlatoon = "platoon"
)

// FleetCouplings lists the coupling modes in stable order.
func FleetCouplings() []string { return []string{FleetCouplingNone, FleetCouplingPlatoon} }

// FleetSpec is the declarative form of a multi-vehicle fleet run. The rest
// of the Spec acts as the per-vehicle template; the fleet block says how
// many vehicles to instantiate, how their worlds couple, and how their
// per-vehicle randomness is partitioned.
type FleetSpec struct {
	// N is the number of vehicles (>= 1).
	N int `json:"n"`
	// Coupling selects the shared-world coupling (default
	// FleetCouplingNone): none | platoon.
	Coupling string `json:"coupling,omitempty"`
	// Spacing is the platoon's initial inter-vehicle gap in metres
	// (0 = the control law's desired gap at the initial speed;
	// platoon only).
	Spacing float64 `json:"spacing,omitempty"`
	// BrakeThreshold is the predecessor deceleration magnitude (m/s^2)
	// beyond which its braking enters the follower's scene as extra
	// obstacles (0 = default 2.5; platoon only).
	BrakeThreshold float64 `json:"brake_threshold,omitempty"`
	// BrakeObstacles is the obstacle-count bump a hard-braking
	// predecessor adds to its follower's scene (0 = default 12;
	// platoon only).
	BrakeObstacles int `json:"brake_obstacles,omitempty"`
	// VehicleSeeds pins each vehicle's seed explicitly; the length must
	// equal N. Empty derives per-vehicle seeds from the run seed with a
	// splitmix64 partition (internal/fleet.VehicleSeed).
	VehicleSeeds []int64 `json:"vehicle_seeds,omitempty"`
}

// SpecTunables is the declarative form of core.Tunables (minus the γ cap,
// which predates it as the spec's top-level gamma_cap field). Zero fields
// take the paper defaults, so the block only needs the knobs being moved.
type SpecTunables struct {
	// MFCWindowMS is the Performance Directed Controller's derivative-
	// estimation window in milliseconds (0 = default 500; must cover the
	// 100 ms MFC sampling period).
	MFCWindowMS float64 `json:"mfc_window_ms,omitempty"`
	// RateKp0 is the Task Rate Adapter's initial gain (0 = default 0.8).
	RateKp0 float64 `json:"rate_kp0,omitempty"`
	// RateDecay is the adapter's stable-period gain decay in (0,1)
	// (0 = default 0.9).
	RateDecay float64 `json:"rate_decay,omitempty"`
	// RMinScale and RMaxScale multiply every adjustable source task's
	// allowable rate band (0 = default 1).
	RMinScale float64 `json:"r_min_scale,omitempty"`
	RMaxScale float64 `json:"r_max_scale,omitempty"`
}

// Core maps the spec block onto the coordinator tunable set; zero fields
// pass through and resolve to the paper defaults at run time.
func (t SpecTunables) Core() core.Tunables {
	return core.Tunables{
		MFCWindow: simtime.Duration(t.MFCWindowMS * float64(simtime.Millisecond)),
		RateKp0:   t.RateKp0,
		RateDecay: t.RateDecay,
		RMinScale: t.RMinScale,
		RMaxScale: t.RMaxScale,
	}
}

// SpecLoad is one execution-time multiplier window.
type SpecLoad struct {
	// Task names the target task in the scenario's graph.
	Task string `json:"task"`
	// From and To bound the window in seconds, [From, To).
	From float64 `json:"from"`
	To   float64 `json:"to"`
	// Factor multiplies the task's execution-time samples.
	Factor float64 `json:"factor"`
}

// ObstaclePhase sets the detected-obstacle count from time T onward.
type ObstaclePhase struct {
	T float64 `json:"t"`
	N int     `json:"n"`
}

// ScenarioNames lists the spec-runnable scenarios in stable order.
func ScenarioNames() []string {
	return []string{"aeb", "carfollow", "combined", "hardware", "jam", "lanekeep", "motivation"}
}

// specCaps records what each scenario family supports beyond the common
// knobs. Scenarios outside the car-following family have no gap to track
// and keep their control tasks' latency deadline; motivation is a fixed
// demonstration whose graph has no adjustable load/rate surface.
type specCaps struct {
	graph     string
	carFollow bool // DisableE2E / TrackGapError
	loads     bool // Loads / RateOverrides / GammaCap
	obstacles bool
}

var specScenarios = map[string]specCaps{
	"carfollow":  {graph: GraphAD23, carFollow: true, loads: true, obstacles: true},
	"hardware":   {graph: GraphAD23, carFollow: true, loads: true, obstacles: true},
	"jam":        {graph: GraphAD23, carFollow: true, loads: true, obstacles: true},
	"aeb":        {graph: GraphAD23, carFollow: true, loads: true, obstacles: true},
	"lanekeep":   {graph: GraphAD23, loads: true, obstacles: true},
	"combined":   {graph: GraphDualControl, loads: true, obstacles: true},
	"motivation": {graph: GraphMotivation},
}

// DecodeSpec reads one JSON spec with strict field checking and returns it
// normalized.
func DecodeSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: invalid spec: %w", err)
	}
	return s.Normalize()
}

// Normalize validates the spec and fills defaults so every equivalent spec
// maps to one canonical form: the scheme and seed defaults are explicit
// and the graph name is resolved. Normalize is idempotent — normalizing a
// normalized spec returns it unchanged — which makes the encoded form a
// stable cache key.
func (s Spec) Normalize() (Spec, error) {
	caps, ok := specScenarios[s.Scenario]
	if !ok {
		return s, fmt.Errorf("scenario: unknown scenario %q (have %s)",
			s.Scenario, strings.Join(ScenarioNames(), ", "))
	}
	if s.Graph == "" {
		s.Graph = caps.graph
	}
	if err := checkGraph(s.Graph); err != nil {
		return s, err
	}
	if s.Graph != caps.graph {
		return s, fmt.Errorf("scenario: scenario %q runs graph %q, not %q", s.Scenario, caps.graph, s.Graph)
	}
	if s.Scheme == "" {
		s.Scheme = "hcperf"
	}
	if _, err := ParseScheme(s.Scheme); err != nil {
		return s, err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"duration", s.Duration},
		{"vehicle_step", s.VehicleStep},
		{"sample_rate", s.SampleRate},
		{"gamma_cap", s.GammaCap},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return s, fmt.Errorf("scenario: %s must be a finite value >= 0, got %v", f.name, f.v)
		}
	}
	if math.IsNaN(s.MaxDataAgeMS) || math.IsInf(s.MaxDataAgeMS, 0) {
		return s, fmt.Errorf("scenario: max_data_age_ms must be finite, got %v", s.MaxDataAgeMS)
	}
	if s.NumProcs < 0 {
		return s, fmt.Errorf("scenario: num_procs must be >= 0, got %d", s.NumProcs)
	}
	if !caps.carFollow && s.DisableE2E {
		return s, fmt.Errorf("scenario: disable_e2e is only supported by the car-following scenarios")
	}
	if !caps.carFollow && s.TrackGapError {
		return s, fmt.Errorf("scenario: track_gap_error is only supported by the car-following scenarios")
	}
	if !caps.loads && (len(s.Loads) > 0 || len(s.RateOverrides) > 0 || s.GammaCap > 0) {
		return s, fmt.Errorf("scenario: %s does not support loads, rate_overrides or gamma_cap", s.Scenario)
	}
	if !caps.obstacles && len(s.Obstacles) > 0 {
		return s, fmt.Errorf("scenario: %s does not support an obstacles profile", s.Scenario)
	}
	if s.Tunables != nil {
		if !caps.carFollow {
			return s, fmt.Errorf("scenario: tunables are only supported by the car-following scenarios")
		}
		tb := *s.Tunables
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"tunables.mfc_window_ms", tb.MFCWindowMS},
			{"tunables.rate_kp0", tb.RateKp0},
			{"tunables.rate_decay", tb.RateDecay},
			{"tunables.r_min_scale", tb.RMinScale},
			{"tunables.r_max_scale", tb.RMaxScale},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return s, fmt.Errorf("scenario: %s must be a finite value >= 0, got %v", f.name, f.v)
			}
		}
		if tb.MFCWindowMS != 0 && tb.MFCWindowMS < 100 {
			return s, fmt.Errorf("scenario: tunables.mfc_window_ms %v must cover the 100 ms MFC sampling period", tb.MFCWindowMS)
		}
		if tb.RateDecay != 0 && tb.RateDecay >= 1 {
			return s, fmt.Errorf("scenario: tunables.rate_decay %v outside (0,1)", tb.RateDecay)
		}
		// A block with every field zero is the default set: canonicalize
		// it away so equivalent specs share one cache key.
		if tb == (SpecTunables{}) {
			s.Tunables = nil
		} else {
			s.Tunables = &tb
		}
	}
	// Dry-run the load steps, rate overrides and tunable rate-band scales
	// against a scratch copy of the graph: task names, window shapes and
	// rate ranges fail here with the same structured errors the runtime
	// path would produce.
	if len(s.Loads) > 0 || len(s.RateOverrides) > 0 || s.Tunables != nil {
		scratch, err := BuildGraph(s.Graph)
		if err != nil {
			return s, err
		}
		for _, l := range s.Loads {
			if err := applyLoadSteps(scratch, l.Task, l.steps()); err != nil {
				return s, err
			}
		}
		if len(s.RateOverrides) > 0 {
			if err := applyRateOverrides(scratch, s.RateOverrides); err != nil {
				return s, err
			}
		}
		if s.Tunables != nil {
			tun, err := s.Tunables.Core().Resolved()
			if err != nil {
				return s, err
			}
			if err := tun.ApplyRateBounds(scratch); err != nil {
				return s, err
			}
		}
	}
	for i, p := range s.Obstacles {
		if math.IsNaN(p.T) || math.IsInf(p.T, 0) {
			return s, fmt.Errorf("scenario: obstacles[%d].t must be finite", i)
		}
		if i == 0 && p.T != 0 {
			return s, fmt.Errorf("scenario: obstacles[0].t must be 0 (the profile covers the whole run), got %v", p.T)
		}
		if i > 0 && p.T <= s.Obstacles[i-1].T {
			return s, fmt.Errorf("scenario: obstacles[%d].t = %v does not increase on %v", i, p.T, s.Obstacles[i-1].T)
		}
		if p.N < 0 {
			return s, fmt.Errorf("scenario: obstacles[%d].n must be >= 0, got %d", i, p.N)
		}
	}
	if s.Fleet != nil {
		// Copy before filling defaults so Normalize never mutates the
		// caller's spec through the shared pointer.
		f := *s.Fleet
		if !caps.carFollow {
			return s, fmt.Errorf("scenario: %s does not support a fleet block (car-following family only)", s.Scenario)
		}
		if f.N < 1 {
			return s, fmt.Errorf("scenario: fleet.n must be >= 1, got %d", f.N)
		}
		if f.Coupling == "" {
			f.Coupling = FleetCouplingNone
		}
		switch f.Coupling {
		case FleetCouplingNone, FleetCouplingPlatoon:
		default:
			return s, fmt.Errorf("scenario: unknown fleet coupling %q (have %s)",
				f.Coupling, strings.Join(FleetCouplings(), ", "))
		}
		for _, v := range []struct {
			name string
			v    float64
		}{
			{"fleet.spacing", f.Spacing},
			{"fleet.brake_threshold", f.BrakeThreshold},
		} {
			if math.IsNaN(v.v) || math.IsInf(v.v, 0) || v.v < 0 {
				return s, fmt.Errorf("scenario: %s must be a finite value >= 0, got %v", v.name, v.v)
			}
		}
		if f.BrakeObstacles < 0 {
			return s, fmt.Errorf("scenario: fleet.brake_obstacles must be >= 0, got %d", f.BrakeObstacles)
		}
		if f.Coupling == FleetCouplingNone && (f.Spacing != 0 || f.BrakeThreshold != 0 || f.BrakeObstacles != 0) {
			return s, fmt.Errorf("scenario: fleet spacing/brake parameters require %q coupling", FleetCouplingPlatoon)
		}
		if len(f.VehicleSeeds) > 0 && len(f.VehicleSeeds) != f.N {
			return s, fmt.Errorf("scenario: fleet.vehicle_seeds has %d entries for %d vehicles", len(f.VehicleSeeds), f.N)
		}
		s.Fleet = &f
	}
	return s, nil
}

func (l SpecLoad) steps() []exectime.Step {
	return []exectime.Step{{From: simtime.Time(l.From), To: simtime.Time(l.To), Factor: l.Factor}}
}

// taskLoads converts the spec's load windows to harness form.
func (s Spec) taskLoads() []TaskLoad {
	if len(s.Loads) == 0 {
		return nil
	}
	out := make([]TaskLoad, 0, len(s.Loads))
	for _, l := range s.Loads {
		out = append(out, TaskLoad{Task: l.Task, Steps: l.steps()})
	}
	return out
}

// obstaclesFunc converts the piecewise profile, or returns nil to keep the
// scenario default.
func (s Spec) obstaclesFunc() func(float64) int {
	if len(s.Obstacles) == 0 {
		return nil
	}
	phases := s.Obstacles
	return func(t float64) int {
		n := phases[0].N
		for _, p := range phases[1:] {
			if t < p.T {
				break
			}
			n = p.N
		}
		return n
	}
}

// maxDataAge maps the millisecond sentinel to the config sentinel.
func (s Spec) maxDataAge() simtime.Duration {
	switch {
	case s.MaxDataAgeMS > 0:
		return simtime.Duration(s.MaxDataAgeMS) * simtime.Millisecond
	case s.MaxDataAgeMS < 0:
		return -1
	default:
		return 0
	}
}

// SpecResult is one completed spec run: the normalized spec that ran, a
// human-readable title, the scenario's key metrics as label/value rows
// (the same rows the serving layer reports) and every recorded series.
type SpecResult struct {
	Spec  Spec
	Title string
	Rows  [][]string
	Rec   *trace.Recorder
}

// CarFollowingConfigFromSpec maps a car-following-family spec (carfollow,
// hardware, jam, aeb) onto its scenario config. The spec is normalized
// first; any fleet block is ignored — the fleet layer calls this to build
// the per-vehicle template and then stamps per-vehicle seeds, coupling and
// spacing on top.
func CarFollowingConfigFromSpec(spec Spec) (CarFollowingConfig, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return CarFollowingConfig{}, err
	}
	scheme, err := ParseScheme(spec.Scheme)
	if err != nil {
		return CarFollowingConfig{}, err
	}
	cfg := CarFollowingConfig{Scheme: scheme, Seed: spec.Seed}
	switch spec.Scenario {
	case "carfollow":
	case "hardware":
		if cfg, err = HardwareCarFollowingConfig(scheme, spec.Seed); err != nil {
			return CarFollowingConfig{}, err
		}
	case "jam":
		if cfg, err = JamCarFollowingConfig(scheme, spec.Seed); err != nil {
			return CarFollowingConfig{}, err
		}
	case "aeb":
		if cfg, err = AEBCarFollowingConfig(scheme, spec.Seed); err != nil {
			return CarFollowingConfig{}, err
		}
	default:
		return CarFollowingConfig{}, fmt.Errorf("scenario: %s is not a car-following scenario", spec.Scenario)
	}
	if spec.Duration > 0 {
		cfg.Duration = spec.Duration
	}
	if spec.NumProcs > 0 {
		cfg.NumProcs = spec.NumProcs
	}
	if spec.VehicleStep > 0 {
		cfg.VehicleStep = spec.VehicleStep
	}
	cfg.SampleRate = spec.SampleRate
	cfg.MaxDataAge = spec.maxDataAge()
	cfg.GammaCap = spec.GammaCap
	if spec.DisableE2E {
		cfg.DisableE2E = true
	}
	if spec.TrackGapError {
		cfg.TrackGapError = true
	}
	cfg.Loads = append(cfg.Loads, spec.taskLoads()...)
	if spec.RateOverrides != nil {
		cfg.RateOverrides = spec.RateOverrides
	}
	if obs := spec.obstaclesFunc(); obs != nil {
		cfg.Obstacles = obs
	}
	if spec.Tunables != nil {
		cfg.Tunables = spec.Tunables.Core()
	}
	return cfg, nil
}

// RunSpec normalizes and executes one spec. All scenario families funnel
// through here: the spec configures the shared kernel, the scenario picks
// the plant, and the result carries a uniform rows+series shape. Fleet
// specs are the one exception — they are executed by internal/fleet (which
// builds on this package), so RunSpec rejects them with a pointer to the
// fleet runner.
func RunSpec(spec Spec, tracer lifecycle.Tracer) (*SpecResult, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if spec.Fleet != nil {
		return nil, fmt.Errorf("scenario: fleet specs are executed by the fleet runner (internal/fleet.RunSpec)")
	}
	scheme, err := ParseScheme(spec.Scheme)
	if err != nil {
		return nil, err
	}
	res := &SpecResult{
		Spec:  spec,
		Title: fmt.Sprintf("%s under %v (seed %d)", spec.Scenario, scheme, spec.Seed),
	}
	switch spec.Scenario {
	case "carfollow", "hardware", "jam", "aeb":
		cfg, err := CarFollowingConfigFromSpec(spec)
		if err != nil {
			return nil, err
		}
		cfg.Tracer = tracer
		r, err := RunCarFollowing(cfg)
		if err != nil {
			return nil, err
		}
		res.Rec = r.Rec
		res.Rows = [][]string{
			{"speed RMS (m/s)", fmt.Sprintf("%.4f", r.SpeedErrRMS)},
			{"distance RMS (m)", fmt.Sprintf("%.4f", r.DistErrRMS)},
			{"miss ratio", fmt.Sprintf("%.4f", r.Miss.MeanRatio())},
			{"commands/s", fmt.Sprintf("%.1f", r.Throughput)},
			{"mean response (ms)", fmt.Sprintf("%.1f", r.MeanResponse*1000)},
			{"collision", fmt.Sprintf("%t", r.Collision)},
		}
	case "lanekeep":
		cfg := LaneKeepingConfig{Scheme: scheme, Seed: spec.Seed}
		if spec.Duration > 0 {
			cfg.Duration = spec.Duration
		}
		if spec.NumProcs > 0 {
			cfg.NumProcs = spec.NumProcs
		}
		if spec.VehicleStep > 0 {
			cfg.VehicleStep = spec.VehicleStep
		}
		cfg.SampleRate = spec.SampleRate
		cfg.MaxDataAge = spec.maxDataAge()
		cfg.GammaCap = spec.GammaCap
		cfg.Loads = spec.taskLoads()
		if spec.RateOverrides != nil {
			cfg.RateOverrides = spec.RateOverrides
		}
		if obs := spec.obstaclesFunc(); obs != nil {
			cfg.Obstacles = obs
		}
		cfg.Tracer = tracer
		r, err := RunLaneKeeping(cfg)
		if err != nil {
			return nil, err
		}
		res.Rec = r.Rec
		res.Rows = [][]string{
			{"offset RMS (m)", fmt.Sprintf("%.4f", r.OffsetRMS)},
			{"offset max (m)", fmt.Sprintf("%.4f", r.OffsetMax)},
			{"miss ratio", fmt.Sprintf("%.4f", r.Miss.MeanRatio())},
			{"commands/s", fmt.Sprintf("%.1f", r.Throughput)},
		}
	case "combined":
		cfg := CombinedConfig{Scheme: scheme, Seed: spec.Seed}
		if spec.Duration > 0 {
			cfg.Duration = spec.Duration
		}
		if spec.NumProcs > 0 {
			cfg.NumProcs = spec.NumProcs
		}
		if spec.VehicleStep > 0 {
			cfg.VehicleStep = spec.VehicleStep
		}
		cfg.SampleRate = spec.SampleRate
		cfg.MaxDataAge = spec.maxDataAge()
		cfg.GammaCap = spec.GammaCap
		cfg.Loads = spec.taskLoads()
		if spec.RateOverrides != nil {
			cfg.RateOverrides = spec.RateOverrides
		}
		if obs := spec.obstaclesFunc(); obs != nil {
			cfg.Obstacles = obs
		}
		cfg.Tracer = tracer
		r, err := RunCombined(cfg)
		if err != nil {
			return nil, err
		}
		res.Rec = r.Rec
		res.Rows = [][]string{
			{"speed RMS (m/s)", fmt.Sprintf("%.4f", r.SpeedErrRMS)},
			{"offset RMS (m)", fmt.Sprintf("%.4f", r.OffsetRMS)},
			{"lon commands", fmt.Sprintf("%d", r.LonCommands)},
			{"lat commands", fmt.Sprintf("%d", r.LatCommands)},
			{"miss ratio", fmt.Sprintf("%.4f", r.Miss.MeanRatio())},
		}
	case "motivation":
		cfg := MotivationConfig{Scheme: scheme, Seed: spec.Seed}
		if spec.Duration > 0 {
			cfg.Duration = spec.Duration
		}
		if spec.NumProcs > 0 {
			cfg.NumProcs = spec.NumProcs
		}
		if spec.VehicleStep > 0 {
			cfg.VehicleStep = spec.VehicleStep
		}
		cfg.SampleRate = spec.SampleRate
		cfg.MaxDataAge = spec.maxDataAge()
		cfg.Tracer = tracer
		r, err := RunMotivation(cfg)
		if err != nil {
			return nil, err
		}
		res.Rec = r.Rec
		res.Rows = [][]string{
			{"collision", fmt.Sprintf("%t", r.Collision)},
			{"collision time (s)", fmt.Sprintf("%.1f", r.CollisionAt)},
			{"min gap (m)", fmt.Sprintf("%.2f", r.MinGap)},
			{"miss ratio", fmt.Sprintf("%.4f", r.Miss.MeanRatio())},
		}
	default:
		return nil, fmt.Errorf("scenario: unknown scenario %q", spec.Scenario)
	}
	return res, nil
}
