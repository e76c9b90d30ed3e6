package scenario

import (
	"errors"
	"fmt"
	"math"

	"hcperf/internal/engine"
	"hcperf/internal/lifecycle"
	"hcperf/internal/metrics"
	"hcperf/internal/simtime"
	"hcperf/internal/trace"
	"hcperf/internal/vehicle"
)

// CombinedConfig parameterises the dual-control extension scenario: the
// vehicle simultaneously follows a lead car (longitudinal control) and
// keeps its lane on a winding road (lateral control), running the 24-task
// dual-sink graph. This goes beyond the paper's single-application
// evaluations and exercises multi-sink coordination: one tracking-error
// signal must arbitrate between two control loops.
type CombinedConfig struct {
	// Scheme selects the scheduling scheme.
	Scheme Scheme
	// Seed drives all scenario randomness.
	Seed int64
	// Duration is the simulated span in seconds (default 60).
	Duration float64
	// NumProcs is the processor count (default 2).
	NumProcs int
	// LeadProfile is the lead's speed profile (default: gentle sine
	// 12 ± 3 m/s over 9 s).
	LeadProfile vehicle.SpeedProfile
	// Curvature maps travelled distance to road curvature (default: a
	// winding road alternating 25 m-radius bends every 120 m).
	Curvature func(s float64) float64
	// Obstacles maps time to obstacle count (default 14).
	Obstacles func(t float64) int
	// RateOverrides sets initial source rates by task name (default:
	// the car-following rates).
	RateOverrides map[string]float64
	// Loads optionally multiply task execution times over time windows
	// (default none).
	Loads []TaskLoad
	// VehicleStep is the dynamics integration step (default 10 ms).
	VehicleStep float64
	// SampleRate is the summary-series sample frequency in Hz
	// (default 1).
	SampleRate float64
	// GammaCap overrides the Dynamic scheduler's γ cap (0 = default).
	GammaCap float64
	// MaxDataAge overrides the input-age validity bound: 0 = default
	// (DefaultMaxDataAge, 220 ms), negative = disabled.
	MaxDataAge simtime.Duration
	// Tracer optionally receives the engine's structured lifecycle
	// event stream (per-job timelines).
	Tracer lifecycle.Tracer
}

func (c *CombinedConfig) applyDefaults() error {
	if c.Scheme == 0 {
		return errors.New("scenario: no scheme selected")
	}
	if c.Duration == 0 {
		c.Duration = 60
	}
	if c.Duration <= 0 {
		return fmt.Errorf("scenario: non-positive duration %v", c.Duration)
	}
	if c.NumProcs == 0 {
		c.NumProcs = 2
	}
	if c.NumProcs < 1 {
		return fmt.Errorf("scenario: NumProcs %d < 1", c.NumProcs)
	}
	if c.LeadProfile == nil {
		c.LeadProfile = vehicle.SineProfile{Mean: 12, Amp: 3, Period: 9}
	}
	if c.Curvature == nil {
		c.Curvature = func(s float64) float64 {
			// Alternating gentle bends: 40 m straight, 80 m bend.
			seg := math.Mod(s, 240)
			switch {
			case seg < 40:
				return 0
			case seg < 120:
				return 1.0 / 25
			case seg < 160:
				return 0
			default:
				return -1.0 / 25
			}
		}
	}
	if c.Obstacles == nil {
		c.Obstacles = func(float64) int { return 14 }
	}
	if c.RateOverrides == nil {
		c.RateOverrides = map[string]float64{
			"camera_front": 10, "camera_traffic_light": 8,
			"lidar_scan": 10, "radar_scan": 12,
		}
	}
	if c.VehicleStep == 0 {
		c.VehicleStep = 0.01
	}
	if c.VehicleStep <= 0 {
		return fmt.Errorf("scenario: non-positive vehicle step %v", c.VehicleStep)
	}
	return nil
}

// loop maps the config onto the shared closed-loop kernel.
func (c *CombinedConfig) loop() loopConfig {
	return loopConfig{
		Graph:         GraphDualControl,
		Scheme:        c.Scheme,
		Seed:          c.Seed,
		Duration:      c.Duration,
		NumProcs:      c.NumProcs,
		VehicleStep:   c.VehicleStep,
		SampleRate:    c.SampleRate,
		MaxDataAge:    c.MaxDataAge,
		GammaCap:      c.GammaCap,
		Loads:         c.Loads,
		RateOverrides: c.RateOverrides,
		Obstacles:     c.Obstacles,
		Tracer:        c.Tracer,
	}
}

// CombinedResult aggregates the dual-control outcomes.
type CombinedResult struct {
	// Scheme is the scheme that produced this result.
	Scheme Scheme
	// Rec holds speed_err, offset, gap, miss_ratio series and gamma/u
	// for HCPerf schemes.
	Rec *trace.Recorder
	// SpeedErrRMS is the longitudinal tracking error RMS (m/s).
	SpeedErrRMS float64
	// OffsetRMS is the lateral offset RMS (m).
	OffsetRMS float64
	// LonCommands and LatCommands count the per-sink control outputs.
	LonCommands, LatCommands uint64
	// Miss holds per-second deadline accounting.
	Miss *metrics.MissBuckets
	// EngineStats is the engine's final counter snapshot.
	EngineStats engine.Stats
}

// combinedPlant runs the longitudinal and lateral worlds side by side and
// routes control commands by sink task name.
type combinedPlant struct {
	cfg *CombinedConfig
	rec *trace.Recorder

	gains    vehicle.CarFollower
	follower *vehicle.Longitudinal
	lead     *vehicle.Lead

	keeper vehicle.LaneKeeper
	lat    *vehicle.Lateral

	// Full-resolution world history for stale perception.
	hist history[combinedState]

	lonCmds, latCmds uint64
}

func newCombinedPlant(cfg *CombinedConfig, rec *trace.Recorder) (*combinedPlant, error) {
	p := &combinedPlant{
		cfg:   cfg,
		rec:   rec,
		gains: vehicle.CarFollower{Kv: 5, Kg: 1, StandstillGap: 5, Headway: 1.2},
	}
	var err error
	if p.follower, err = vehicle.NewLongitudinal(vehicle.LongitudinalConfig{
		MaxAccel: 6, MaxBrake: 8, ActuatorTau: 0.1, MaxSpeed: 40,
	}); err != nil {
		return nil, err
	}
	p.follower.Speed = cfg.LeadProfile.Speed(0)
	if p.lead, err = vehicle.NewLead(cfg.LeadProfile, p.gains.StandstillGap+p.gains.Headway*p.follower.Speed); err != nil {
		return nil, err
	}
	latCfg := vehicle.LateralConfig{WheelBase: 2.7, MaxSteer: 0.5, ActuatorTau: 0.08}
	if p.lat, err = vehicle.NewLateral(latCfg); err != nil {
		return nil, err
	}
	p.keeper = vehicle.LaneKeeper{Ky: 0.5, Kpsi: 1.4, WheelBase: latCfg.WheelBase}
	if err := p.hist.add(0, p.state()); err != nil {
		return nil, err
	}
	return p, nil
}

// combinedState is the world both perceptions read; the lateral distance
// travelled is the follower's position.
type combinedState struct {
	lon lonState
	lat latState
}

// state is the world state a perception reads.
func (p *combinedPlant) state() combinedState {
	return combinedState{
		lon: lonStateOf(p.lead, p.follower),
		lat: latState{offset: p.lat.Y, heading: p.lat.Psi, dist: p.follower.Position},
	}
}

func (p *combinedPlant) Perceive(cmd engine.ControlCommand) {
	s, ok := p.hist.at(float64(cmd.SourceTime))
	switch cmd.Task.Name {
	case "lon_control":
		p.lonCmds++
		if ok {
			p.follower.SetAccelCommand(p.gains.Accel(s.lon.folSpeed, s.lon.leadSpeed, s.lon.leadPos-s.lon.folPos))
		}
	case "lat_control":
		p.latCmds++
		if ok {
			p.lat.SetSteerCommand(p.keeper.Steer(s.lat.offset, s.lat.heading, p.cfg.Curvature(s.lat.dist+0.3*p.follower.Speed)))
		}
	}
}

// TrackingError is the multi-objective signal: the speed error in its
// natural scale plus the lateral offset scaled up so a 0.15 m excursion
// weighs like a 2 m/s speed error.
func (p *combinedPlant) TrackingError(simtime.Time) float64 {
	speedErr := math.Abs(p.lead.Speed() - p.follower.Speed)
	latErr := math.Abs(p.lat.Y) * (2.0 / 0.15)
	return math.Max(speedErr, latErr)
}

func (p *combinedPlant) CoordSample(now simtime.Time, e, u, gamma float64) {
	recAdd(p.rec, "gamma", float64(now), gamma)
	recAdd(p.rec, "u", float64(now), u)
}

func (p *combinedPlant) Step(now float64) {
	step := p.cfg.VehicleStep
	if err := p.lead.Step(step); err != nil {
		panic(fmt.Sprintf("scenario: lead step: %v", err))
	}
	if err := p.follower.Step(step); err != nil {
		panic(fmt.Sprintf("scenario: follower step: %v", err))
	}
	if err := p.lat.Step(step, p.follower.Speed, p.cfg.Curvature(p.follower.Position)); err != nil {
		panic(fmt.Sprintf("scenario: lateral step: %v", err))
	}
	if err := p.hist.add(now, p.state()); err != nil {
		panic(fmt.Sprintf("scenario: history: %v", err))
	}
	recAdd(p.rec, "speed_err", now, p.lead.Speed()-p.follower.Speed)
	recAdd(p.rec, "offset", now, p.lat.Y)
	recAdd(p.rec, "gap", now, p.lead.Position-p.follower.Position)
}

func (p *combinedPlant) Sample(t float64, env *Env) {
	recAdd(p.rec, "miss_ratio", t, env.Miss.Ratio(int(t)-1))
}

// RunCombined executes the dual-control scenario.
func RunCombined(cfg CombinedConfig) (*CombinedResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	var p *combinedPlant
	out, err := runLoop(cfg.loop(), func(rec *trace.Recorder) (Plant, error) {
		var err error
		p, err = newCombinedPlant(&cfg, rec)
		return p, err
	})
	if err != nil {
		return nil, err
	}

	return &CombinedResult{
		Scheme:      cfg.Scheme,
		Rec:         out.Rec,
		SpeedErrRMS: out.Rec.Series("speed_err").RMS(0, cfg.Duration),
		OffsetRMS:   out.Rec.Series("offset").RMS(0, cfg.Duration),
		LonCommands: p.lonCmds,
		LatCommands: p.latCmds,
		Miss:        out.Miss,
		EngineStats: out.EngineStats,
	}, nil
}
