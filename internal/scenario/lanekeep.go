package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hcperf/internal/engine"
	"hcperf/internal/lifecycle"
	"hcperf/internal/metrics"
	"hcperf/internal/rate"
	"hcperf/internal/simtime"
	"hcperf/internal/stats"
	"hcperf/internal/trace"
	"hcperf/internal/vehicle"
)

// LaneKeepingConfig parameterises the loop-driving lane-keeping scenario
// (paper §VII-B2, Fig. 14): the vehicle circles an oval track clockwise at
// a fixed longitudinal speed; the performance metric is the lateral offset
// from the lane centre.
type LaneKeepingConfig struct {
	// Scheme selects the scheduling scheme.
	Scheme Scheme
	// Seed drives all scenario randomness.
	Seed int64
	// Duration is the simulated span in seconds (default: one full lap).
	Duration float64
	// NumProcs is the processor count (default 2).
	NumProcs int
	// Speed is the fixed longitudinal speed (default 5 m/s).
	Speed float64
	// Track is the closed circuit (default: oval with 100 m straights
	// and 20 m corner radius — four distinct turns per lap).
	Track *vehicle.Track
	// Obstacles maps time to detected-obstacle count (default constant
	// 14: busy urban loop).
	Obstacles func(t float64) int
	// Lateral bounds the steering plant (default passenger car).
	Lateral vehicle.LateralConfig
	// KeeperGains tunes the lane-keeping law.
	KeeperGains vehicle.LaneKeeper
	// RateOverrides sets initial source rates by task name.
	RateOverrides map[string]float64
	// Loads optionally multiply task execution times over time windows
	// (default none).
	Loads []TaskLoad
	// VehicleStep is the dynamics integration step (default 10 ms).
	VehicleStep float64
	// SampleRate is the summary-series sample frequency in Hz
	// (default 1).
	SampleRate float64
	// OffsetNoiseSD adds Gaussian noise to the perceived lateral offset
	// (m).
	OffsetNoiseSD float64
	// GammaCap overrides the Dynamic scheduler's γ cap (0 = default).
	GammaCap float64
	// MaxDataAge overrides the input-age validity bound: 0 = default
	// (DefaultMaxDataAge, 220 ms), negative = disabled.
	MaxDataAge simtime.Duration
	// Tracer optionally receives the engine's structured lifecycle
	// event stream (per-job timelines).
	Tracer lifecycle.Tracer
}

func (c *LaneKeepingConfig) applyDefaults() error {
	if c.Scheme == 0 {
		return errors.New("scenario: no scheme selected")
	}
	if c.Speed == 0 {
		c.Speed = 5
	}
	if c.Speed <= 0 {
		return fmt.Errorf("scenario: non-positive speed %v", c.Speed)
	}
	if c.Track == nil {
		track, err := vehicle.OvalTrack(100, 12)
		if err != nil {
			return err
		}
		c.Track = track
	}
	if c.Duration == 0 {
		c.Duration = c.Track.Length() / c.Speed
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
	if c.Obstacles == nil {
		c.Obstacles = func(float64) int { return 16 }
	}
	if c.Lateral == (vehicle.LateralConfig{}) {
		c.Lateral = vehicle.LateralConfig{WheelBase: 2.7, MaxSteer: 0.5, ActuatorTau: 0.08}
	}
	if c.KeeperGains == (vehicle.LaneKeeper{}) {
		c.KeeperGains = vehicle.LaneKeeper{Ky: 0.5, Kpsi: 1.4, WheelBase: c.Lateral.WheelBase}
	}
	if c.RateOverrides == nil {
		c.RateOverrides = map[string]float64{
			"camera_front": 12, "camera_traffic_light": 8,
			"lidar_scan": 12, "radar_scan": 12,
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

// loop maps the config onto the shared closed-loop kernel. Lane keeping
// uses the lane-keeping MFC scale and rate-adapter profile: the controller
// gains are scaled to centimetre-scale errors, and the rate adapter probes
// conservatively — at a fixed cruise speed extra sensor throughput cannot
// improve steering, so the offline-profiled ε is small (paper §VI: K_p and
// the probing error are set from offline profiled data).
func (c *LaneKeepingConfig) loop() loopConfig {
	return loopConfig{
		Graph:         GraphAD23,
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
		MFCScale:      0.1,
		RateConfig:    laneKeepingRateConfig(),
	}
}

// LaneKeepingResult aggregates the lane-keeping outcomes.
type LaneKeepingResult struct {
	// Scheme is the scheme that produced this result.
	Scheme Scheme
	// Rec holds the recorded series: offset, heading, curvature,
	// miss_ratio, throughput, and gamma/u for HCPerf schemes.
	Rec *trace.Recorder
	// OffsetRMS is the RMS lateral offset (Table IV).
	OffsetRMS float64
	// OffsetMax is the worst excursion from the centreline.
	OffsetMax float64
	// Miss holds per-second deadline accounting.
	Miss *metrics.MissBuckets
	// EngineStats is the engine's final counter snapshot.
	EngineStats engine.Stats
	// Throughput is control commands per second.
	Throughput float64
	// Overhead is the coordinator's wall-clock cost per step (HCPerf
	// schemes only).
	Overhead stats.Accumulator
}

// laneKeepingRateConfig is the lane-keeping profile of the Task Rate
// Adapter: identical to the default except for a conservative probing
// error, reflecting that steering quality at fixed speed does not improve
// with sensor throughput.
func laneKeepingRateConfig() rate.Config {
	cfg := rate.DefaultConfig()
	cfg.Epsilon = 1e-6
	return cfg
}

// laneKeepPlant is the lateral lane-keeping world: a bicycle-model vehicle
// steered along a closed track from stale pipeline outputs.
type laneKeepPlant struct {
	cfg   *LaneKeepingConfig
	rec   *trace.Recorder
	noise *rand.Rand
	gains vehicle.LaneKeeper

	lat      *vehicle.Lateral
	distance float64 // arc length along the track

	// Full-resolution world history for stale-perception lookups.
	hist history[latState]

	lastCmds uint64
}

func newLaneKeepPlant(cfg *LaneKeepingConfig, rec *trace.Recorder) (*laneKeepPlant, error) {
	p := &laneKeepPlant{
		cfg:   cfg,
		rec:   rec,
		noise: rand.New(rand.NewSource(cfg.Seed ^ 0x1a4e)),
		gains: cfg.KeeperGains,
	}
	var err error
	if p.lat, err = vehicle.NewLateral(cfg.Lateral); err != nil {
		return nil, err
	}
	if err := p.hist.add(0, p.state()); err != nil {
		return nil, err
	}
	return p, nil
}

// state is the world state a perception reads.
func (p *laneKeepPlant) state() latState {
	return latState{offset: p.lat.Y, heading: p.lat.Psi, dist: p.distance}
}

func (p *laneKeepPlant) Perceive(cmd engine.ControlCommand) {
	st, ok := p.hist.at(float64(cmd.SourceTime))
	if !ok {
		return
	}
	offset, heading, s := st.offset, st.heading, st.dist
	if p.cfg.OffsetNoiseSD > 0 {
		offset += p.noise.NormFloat64() * p.cfg.OffsetNoiseSD
	}
	// Feed-forward uses the curvature a short preview ahead of the
	// perceived position.
	curv := p.cfg.Track.Curvature(s + 0.3*p.cfg.Speed)
	p.lat.SetSteerCommand(p.gains.Steer(offset, heading, curv))
}

// TrackingError is the performance metric: the lateral offset from the
// lane centre (paper §VII-B2).
func (p *laneKeepPlant) TrackingError(simtime.Time) float64 { return math.Abs(p.lat.Y) }

func (p *laneKeepPlant) CoordSample(now simtime.Time, e, u, gamma float64) {
	recAdd(p.rec, "tracking_err_sample", float64(now), e)
	recAdd(p.rec, "u", float64(now), u)
	recAdd(p.rec, "gamma", float64(now), gamma)
}

func (p *laneKeepPlant) Step(now float64) {
	step := p.cfg.VehicleStep
	curv := p.cfg.Track.Curvature(p.distance)
	if err := p.lat.Step(step, p.cfg.Speed, curv); err != nil {
		panic(fmt.Sprintf("scenario: lateral step: %v", err))
	}
	p.distance += p.cfg.Speed * step
	if err := p.hist.add(now, p.state()); err != nil {
		panic(fmt.Sprintf("scenario: history: %v", err))
	}
	recAdd(p.rec, "offset", now, p.lat.Y)
	recAdd(p.rec, "heading", now, p.lat.Psi)
	recAdd(p.rec, "curvature", now, curv)
}

func (p *laneKeepPlant) Sample(t float64, env *Env) {
	cmds := env.Eng.Stats().ControlCommands
	recAdd(p.rec, "throughput", t, float64(cmds-p.lastCmds))
	p.lastCmds = cmds
	recAdd(p.rec, "miss_ratio", t, env.Miss.Ratio(int(t)-1))
}

// RunLaneKeeping executes one loop-driving run.
func RunLaneKeeping(cfg LaneKeepingConfig) (*LaneKeepingResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	out, err := runLoop(cfg.loop(), func(rec *trace.Recorder) (Plant, error) {
		return newLaneKeepPlant(&cfg, rec)
	})
	if err != nil {
		return nil, err
	}

	res := &LaneKeepingResult{
		Scheme:      cfg.Scheme,
		Rec:         out.Rec,
		Miss:        out.Miss,
		EngineStats: out.EngineStats,
		Overhead:    out.Overhead,
	}
	off := out.Rec.Series("offset")
	res.OffsetRMS = off.RMS(0, cfg.Duration)
	res.OffsetMax = off.MaxAbs(0, cfg.Duration)
	res.Throughput = float64(out.EngineStats.ControlCommands) / cfg.Duration
	return res, nil
}
