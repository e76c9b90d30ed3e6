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

// MotivationConfig parameterises the paper's §II motivation experiment
// (Figs. 1-4): car A follows human-driven car B on an urban road at
// 10 m/s; at t = 5 s car B sees a red light 200 m ahead and brakes to a
// stop while the intersection scene fills with waiting vehicles and
// pedestrians, inflating the O(n³) sensor-fusion time. Under Apollo's
// static-priority scheduling the deadline-miss ratio climbs and car A's
// speed updates become sluggish until the two cars collide.
type MotivationConfig struct {
	// Scheme selects the scheduling scheme (the paper uses Apollo; any
	// scheme may be substituted to test whether it avoids the crash).
	Scheme Scheme
	// Seed drives all scenario randomness.
	Seed int64
	// Duration is the simulated span in seconds (default 42: at the
	// paper's crowded intersection the fusion job alone exceeds any
	// feasible budget, so the sensing-to-control pipeline stalls under
	// every scheduling policy — the motivation experiment demonstrates
	// the failure, as in the paper, rather than a scheme that avoids
	// it).
	Duration float64
	// NumProcs is the processor count (default 2).
	NumProcs int
	// BrakeStart is when car B begins braking (default 5 s).
	BrakeStart float64
	// BrakeDecel is car B's deceleration magnitude (default 0.45 m/s²,
	// putting the stop just past the paper's collision instant).
	BrakeDecel float64
	// MaxObstacles is the intersection's obstacle count once car A is
	// close to the light (default 42: at the
	// paper's crowded intersection the fusion job alone exceeds any
	// feasible budget, so the sensing-to-control pipeline stalls under
	// every scheduling policy — the motivation experiment demonstrates
	// the failure, as in the paper, rather than a scheme that avoids
	// it).
	MaxObstacles int
	// VehicleStep is the dynamics integration step (default 10 ms).
	VehicleStep float64
	// SampleRate is the summary-series sample frequency in Hz
	// (default 1).
	SampleRate float64
	// MaxDataAge overrides the input-age validity bound: 0 = default
	// (DefaultMaxDataAge, 220 ms), negative = disabled.
	MaxDataAge simtime.Duration
	// Tracer optionally receives the engine's structured lifecycle
	// event stream (per-job timelines).
	Tracer lifecycle.Tracer
}

func (c *MotivationConfig) applyDefaults() error {
	if c.Scheme == 0 {
		return errors.New("scenario: no scheme selected")
	}
	if c.Duration == 0 {
		c.Duration = 30
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
	if c.BrakeStart == 0 {
		c.BrakeStart = 5
	}
	if c.BrakeDecel == 0 {
		c.BrakeDecel = 0.5
	}
	if c.BrakeDecel <= 0 {
		return fmt.Errorf("scenario: non-positive brake decel %v", c.BrakeDecel)
	}
	if c.MaxObstacles == 0 {
		c.MaxObstacles = 42
	}
	if c.MaxObstacles < 1 {
		return fmt.Errorf("scenario: MaxObstacles %d < 1", c.MaxObstacles)
	}
	if c.VehicleStep == 0 {
		c.VehicleStep = 0.01
	}
	if c.VehicleStep <= 0 {
		return fmt.Errorf("scenario: non-positive vehicle step %v", c.VehicleStep)
	}
	return nil
}

// loop maps the config onto the shared closed-loop kernel. Obstacle count
// ramps from quiet-road to crowded intersection as car A approaches the
// light.
func (c *MotivationConfig) loop() loopConfig {
	return loopConfig{
		Graph:       GraphMotivation,
		Scheme:      c.Scheme,
		Seed:        c.Seed,
		Duration:    c.Duration,
		NumProcs:    c.NumProcs,
		VehicleStep: c.VehicleStep,
		SampleRate:  c.SampleRate,
		MaxDataAge:  c.MaxDataAge,
		Obstacles: func(t float64) int {
			const rampLen = 12.0
			switch {
			case t < c.BrakeStart:
				return 8
			case t < c.BrakeStart+rampLen:
				frac := (t - c.BrakeStart) / rampLen
				return 8 + int(frac*float64(c.MaxObstacles-8))
			default:
				return c.MaxObstacles
			}
		},
		Tracer: c.Tracer,
	}
}

// MotivationResult aggregates the motivation-experiment outcomes.
type MotivationResult struct {
	// Scheme is the scheme that produced this result.
	Scheme Scheme
	// Rec holds lead_speed, follow_speed, gap, speed_diff and miss_ratio
	// series (Fig. 4's two panels).
	Rec *trace.Recorder
	// Miss holds per-second deadline accounting (Fig. 4(a)).
	Miss *metrics.MissBuckets
	// Collision reports whether the cars collided, and when (Fig. 4(b):
	// the paper's Apollo run collides at t = 23.4 s).
	Collision   bool
	CollisionAt float64
	// MinGap is the closest approach between the two cars.
	MinGap float64
	// EngineStats is the engine's final counter snapshot.
	EngineStats engine.Stats
}

// motivationPlant is the red-light world: car B brakes to a stop while
// car A's drive-by-wire watchdog coasts whenever the pipeline stalls.
type motivationPlant struct {
	cfg   *MotivationConfig
	rec   *trace.Recorder
	gains vehicle.CarFollower

	follower *vehicle.Longitudinal
	lead     *vehicle.Lead

	hist history[lonState]

	collide   metrics.CollisionDetector
	minGap    float64
	lastCmdAt float64
}

func newMotivationPlant(cfg *MotivationConfig, rec *trace.Recorder) (*motivationPlant, error) {
	const initSpeed = 10.0
	p := &motivationPlant{
		cfg:    cfg,
		rec:    rec,
		gains:  vehicle.CarFollower{Kv: 5, Kg: 1, StandstillGap: 5, Headway: 1.2},
		minGap: math.Inf(1),
	}
	long := vehicle.LongitudinalConfig{MaxAccel: 6, MaxBrake: 8, ActuatorTau: 0.1, MaxSpeed: 40}
	var err error
	if p.follower, err = vehicle.NewLongitudinal(long); err != nil {
		return nil, err
	}
	p.follower.Speed = initSpeed

	// Car B: constant 10 m/s, then brakes to a stop from BrakeStart.
	stopAt := cfg.BrakeStart + initSpeed/cfg.BrakeDecel
	leadProfile, err := vehicle.NewPiecewiseProfile([]vehicle.PhasePoint{
		{T: 0, Speed: initSpeed},
		{T: cfg.BrakeStart, Speed: initSpeed},
		{T: stopAt, Speed: 0},
	})
	if err != nil {
		return nil, err
	}
	if p.lead, err = vehicle.NewLead(leadProfile, p.gains.StandstillGap+p.gains.Headway*initSpeed); err != nil {
		return nil, err
	}
	if err := p.hist.add(0, lonStateOf(p.lead, p.follower)); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *motivationPlant) Perceive(cmd engine.ControlCommand) {
	s, ok := p.hist.at(float64(cmd.SourceTime))
	if !ok {
		return
	}
	p.follower.SetAccelCommand(p.gains.Accel(s.folSpeed, s.leadSpeed, s.leadPos-s.folPos))
	p.lastCmdAt = float64(cmd.Completed)
}

func (p *motivationPlant) TrackingError(simtime.Time) float64 {
	return math.Abs(p.lead.Speed() - p.follower.Speed)
}

// CoordSample records nothing: the motivation run reports the Fig. 4
// panels only.
func (p *motivationPlant) CoordSample(simtime.Time, float64, float64, float64) {}

func (p *motivationPlant) Step(now float64) {
	step := p.cfg.VehicleStep
	if err := p.lead.Step(step); err != nil {
		panic(fmt.Sprintf("scenario: lead step: %v", err))
	}
	if err := p.follower.Step(step); err != nil {
		panic(fmt.Sprintf("scenario: follower step: %v", err))
	}
	// Drive-by-wire watchdog: without a fresh control command the
	// actuators release to neutral and the car coasts — exactly how
	// a stalled pipeline turns into the paper's collision.
	if now-p.lastCmdAt > 0.5 {
		p.follower.SetAccelCommand(0)
	}
	if err := p.hist.add(now, lonStateOf(p.lead, p.follower)); err != nil {
		panic(fmt.Sprintf("scenario: history: %v", err))
	}
	gap := p.lead.Position - p.follower.Position
	if gap < p.minGap {
		p.minGap = gap
	}
	p.collide.Note(now, gap)
	recAdd(p.rec, "lead_speed", now, p.lead.Speed())
	recAdd(p.rec, "follow_speed", now, p.follower.Speed)
	recAdd(p.rec, "speed_diff", now, p.follower.Speed-p.lead.Speed())
	recAdd(p.rec, "gap", now, gap)
}

func (p *motivationPlant) Sample(t float64, env *Env) {
	recAdd(p.rec, "miss_ratio", t, env.Miss.Ratio(int(t)-1))
}

// RunMotivation executes the red-light scenario on the Fig. 2 task graph.
func RunMotivation(cfg MotivationConfig) (*MotivationResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	var p *motivationPlant
	out, err := runLoop(cfg.loop(), func(rec *trace.Recorder) (Plant, error) {
		var err error
		p, err = newMotivationPlant(&cfg, rec)
		return p, err
	})
	if err != nil {
		return nil, err
	}

	return &MotivationResult{
		Scheme:      cfg.Scheme,
		Rec:         out.Rec,
		Miss:        out.Miss,
		Collision:   p.collide.Collided(),
		CollisionAt: p.collide.At(),
		MinGap:      p.minGap,
		EngineStats: out.EngineStats,
	}, nil
}
