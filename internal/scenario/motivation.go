package scenario

import (
	"fmt"
	"math"

	"hcperf/internal/lifecycle"
	"hcperf/internal/metrics"
	"hcperf/internal/simtime"
	"hcperf/internal/trace"
	"hcperf/internal/vehicle"
)

// The red-light episode of the motivation experiment.
const (
	// motivationBrakeStart is when car B begins braking (s).
	motivationBrakeStart = 5.0
	// motivationBrakeDecel is car B's deceleration magnitude (m/s²): it
	// stops at t = 25 s, just past the paper's collision instant.
	motivationBrakeDecel = 0.5
	// motivationMaxObstacles is the intersection's obstacle count once
	// car A is close to the light. At 42 the fusion job alone exceeds any
	// feasible budget, so the sensing-to-control pipeline stalls under
	// every scheduling policy: the experiment demonstrates the failure,
	// as in the paper, rather than a scheme that avoids it.
	motivationMaxObstacles = 42
)

// motivationObstacles ramps the obstacle count from quiet road (8) to the
// crowded intersection over the 12 s after car B starts braking.
func motivationObstacles(t float64) int {
	const rampLen = 12.0
	switch {
	case t < motivationBrakeStart:
		return 8
	case t < motivationBrakeStart+rampLen:
		frac := (t - motivationBrakeStart) / rampLen
		return 8 + int(frac*float64(motivationMaxObstacles-8))
	default:
		return motivationMaxObstacles
	}
}

// motivationFamily is what the motivation experiment fixes about its loop: a
// 30 s run on the Fig. 2 graph at the graph's own source rates.
var motivationFamily = family{
	graph:     GraphMotivation,
	duration:  30,
	obstacles: motivationObstacles,
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
	EngineStats lifecycle.Stats
}

// motivationPlant is the red-light world: car B brakes to a stop while
// car A's drive-by-wire watchdog coasts whenever the pipeline stalls.
type motivationPlant struct {
	step float64

	follower *vehicle.Longitudinal
	lead     *vehicle.Lead

	hist history[lonState]

	collide   metrics.CollisionDetector
	minGap    float64
	lastCmdAt float64

	// The series recorded per dynamics step and per summary sample.
	steps, samples seriesRow
}

func newMotivationPlant(step float64, rec *trace.Recorder, n seriesLens) (*motivationPlant, error) {
	const initSpeed = 10.0
	p := &motivationPlant{
		step:    step,
		minGap:  math.Inf(1),
		hist:    make(history[lonState], 0, n.step+1),
		steps:   newSeriesRow(rec, n.step, "lead_speed", "follow_speed", "speed_diff", "gap"),
		samples: newSeriesRow(rec, n.sample, "miss_ratio"),
	}
	var err error
	if p.follower, err = vehicle.NewLongitudinal(vehicle.DefaultLongitudinal()); err != nil {
		return nil, err
	}
	p.follower.Speed = initSpeed

	// Car B: constant 10 m/s, then brakes to a stop from
	// motivationBrakeStart.
	stopAt := motivationBrakeStart + initSpeed/motivationBrakeDecel
	leadProfile, err := vehicle.NewPiecewiseProfile([]vehicle.PhasePoint{
		{T: 0, Speed: initSpeed},
		{T: motivationBrakeStart, Speed: initSpeed},
		{T: stopAt, Speed: 0},
	})
	if err != nil {
		return nil, err
	}
	gains := vehicle.DefaultCarFollower()
	if p.lead, err = vehicle.NewLead(leadProfile, gains.StandstillGap+gains.Headway*initSpeed); err != nil {
		return nil, err
	}
	if err := p.hist.add(0, lonStateOf(p.lead, p.lead.Speed(), p.follower)); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *motivationPlant) Perceive(cmd lifecycle.ControlCommand) {
	s, ok := p.hist.at(float64(cmd.SourceTime))
	if !ok {
		return
	}
	p.follower.SetAccelCommand(vehicle.DefaultCarFollower().Accel(s.folSpeed, s.leadSpeed, s.leadPos-s.folPos))
	p.lastCmdAt = float64(cmd.Completed)
}

func (p *motivationPlant) TrackingError(simtime.Time) float64 {
	return math.Abs(p.lead.Speed() - p.follower.Speed)
}

// CoordSample records nothing: the motivation run reports the Fig. 4
// panels only.
func (p *motivationPlant) CoordSample(simtime.Time, float64, float64, float64) {}

func (p *motivationPlant) Step(now float64) {
	if err := p.lead.Step(p.step); err != nil {
		panic(fmt.Sprintf("scenario: lead step: %v", err))
	}
	if err := p.follower.Step(p.step); err != nil {
		panic(fmt.Sprintf("scenario: follower step: %v", err))
	}
	// Drive-by-wire watchdog: without a fresh control command the
	// actuators release to neutral and the car coasts — exactly how
	// a stalled pipeline turns into the paper's collision.
	if now-p.lastCmdAt > 0.5 {
		p.follower.SetAccelCommand(0)
	}
	lead := p.lead.Speed()
	if err := p.hist.add(now, lonStateOf(p.lead, lead, p.follower)); err != nil {
		panic(fmt.Sprintf("scenario: history: %v", err))
	}
	gap := p.lead.Position - p.follower.Position
	if gap < p.minGap {
		p.minGap = gap
	}
	p.collide.Note(now, gap)
	p.steps.add(now, lead, p.follower.Speed, p.follower.Speed-lead, gap)
}

func (p *motivationPlant) Sample(t float64, env *Env) {
	p.samples.add(t, env.Miss.Ratio(int(t)-1))
}

// RunMotivation executes the paper's §II motivation experiment (Figs. 1-4)
// on the Fig. 2 task graph: car A follows human-driven car B on an urban
// road at 10 m/s; at t = 5 s car B sees a red light 200 m ahead and brakes
// to a stop while the intersection scene fills with waiting vehicles and
// pedestrians, inflating the O(n³) sensor-fusion time. Under Apollo's
// static-priority scheduling the deadline-miss ratio climbs and car A's
// speed updates become sluggish until the two cars collide. The paper uses
// Apollo; any scheme may be substituted to test whether it avoids the
// crash. Zero Loop fields take the scenario's defaults: 30 s.
func RunMotivation(l Loop) (*MotivationResult, error) {
	var p *motivationPlant
	out, err := runLoop(&l, motivationFamily, func(rec *trace.Recorder, n seriesLens) (Plant, error) {
		var err error
		p, err = newMotivationPlant(l.VehicleStep, rec, n)
		return p, err
	})
	if err != nil {
		return nil, err
	}

	return &MotivationResult{
		Scheme:      l.Scheme,
		Rec:         out.Rec,
		Miss:        out.Miss,
		Collision:   p.collide.Collided(),
		CollisionAt: p.collide.At(),
		MinGap:      p.minGap,
		EngineStats: out.EngineStats,
	}, nil
}
