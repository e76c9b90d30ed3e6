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

// combinedLead is the lead's speed profile: a gentle sine, 12 ± 3 m/s
// over 9 s.
var combinedLead = vehicle.SineProfile{Mean: 12, Amp: 3, Period: 9}

// combinedCurvature maps travelled distance to road curvature: a winding
// road of 40 m straights and 80 m bends of 25 m radius, alternating
// direction every 120 m.
func combinedCurvature(s float64) float64 {
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

// combinedFamily is what the dual-control scenario fixes about its loop: 60 s
// over 14 obstacles at the car-following rates.
var combinedFamily = family{
	graph:     GraphDualControl,
	duration:  60,
	obstacles: func(float64) int { return 14 },
	rates:     carFollowRates,
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
	EngineStats lifecycle.Stats
}

// combinedPlant runs the longitudinal and lateral worlds side by side and
// routes control commands by sink task name.
type combinedPlant struct {
	step float64

	follower *vehicle.Longitudinal
	lead     *vehicle.Lead
	lat      *vehicle.Lateral

	// Full-resolution world history for stale perception.
	hist history[combinedState]

	lonCmds, latCmds uint64

	// The series recorded per dynamics step, per coordinator control
	// period and per summary sample.
	steps, coord, samples seriesRow
}

func newCombinedPlant(step float64, rec *trace.Recorder, n seriesLens) (*combinedPlant, error) {
	p := &combinedPlant{
		step:    step,
		hist:    make(history[combinedState], 0, n.step+1),
		steps:   newSeriesRow(rec, n.step, "speed_err", "offset", "gap"),
		coord:   newSeriesRow(rec, n.control, "gamma", "u"),
		samples: newSeriesRow(rec, n.sample, "miss_ratio"),
	}
	var err error
	if p.follower, err = vehicle.NewLongitudinal(vehicle.DefaultLongitudinal()); err != nil {
		return nil, err
	}
	p.follower.Speed = combinedLead.Speed(0)
	gains := vehicle.DefaultCarFollower()
	if p.lead, err = vehicle.NewLead(combinedLead, gains.StandstillGap+gains.Headway*p.follower.Speed); err != nil {
		return nil, err
	}
	if p.lat, err = vehicle.NewLateral(vehicle.DefaultLateral()); err != nil {
		return nil, err
	}
	if err := p.hist.add(0, p.state(p.lead.Speed())); err != nil {
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

// state is the world state a perception reads, given the lead's speed.
func (p *combinedPlant) state(leadSpeed float64) combinedState {
	return combinedState{
		lon: lonStateOf(p.lead, leadSpeed, p.follower),
		lat: latState{offset: p.lat.Y, heading: p.lat.Psi, dist: p.follower.Position},
	}
}

func (p *combinedPlant) Perceive(cmd lifecycle.ControlCommand) {
	s, ok := p.hist.at(float64(cmd.SourceTime))
	switch cmd.Task.Name {
	case "lon_control":
		p.lonCmds++
		if ok {
			p.follower.SetAccelCommand(vehicle.DefaultCarFollower().Accel(s.lon.folSpeed, s.lon.leadSpeed, s.lon.leadPos-s.lon.folPos))
		}
	case "lat_control":
		p.latCmds++
		if ok {
			p.lat.SetSteerCommand(vehicle.DefaultLaneKeeper().Steer(s.lat.offset, s.lat.heading, combinedCurvature(s.lat.dist+0.3*p.follower.Speed)))
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
	p.coord.add(float64(now), gamma, u)
}

func (p *combinedPlant) Step(now float64) {
	if err := p.lead.Step(p.step); err != nil {
		panic(fmt.Sprintf("scenario: lead step: %v", err))
	}
	if err := p.follower.Step(p.step); err != nil {
		panic(fmt.Sprintf("scenario: follower step: %v", err))
	}
	if err := p.lat.Step(p.step, p.follower.Speed, combinedCurvature(p.follower.Position)); err != nil {
		panic(fmt.Sprintf("scenario: lateral step: %v", err))
	}
	lead := p.lead.Speed()
	if err := p.hist.add(now, p.state(lead)); err != nil {
		panic(fmt.Sprintf("scenario: history: %v", err))
	}
	p.steps.add(now, lead-p.follower.Speed, p.lat.Y, p.lead.Position-p.follower.Position)
}

func (p *combinedPlant) Sample(t float64, env *Env) {
	p.samples.add(t, env.Miss.Ratio(int(t)-1))
}

// RunCombined executes the dual-control extension scenario: the vehicle
// simultaneously follows a lead car (longitudinal control) and keeps its
// lane on a winding road (lateral control), running the 24-task dual-sink
// graph. This goes beyond the paper's single-application evaluations and
// exercises multi-sink coordination: one tracking-error signal must
// arbitrate between two control loops. Zero Loop fields take the
// scenario's defaults: 60 s over 14 obstacles.
func RunCombined(l Loop) (*CombinedResult, error) {
	var p *combinedPlant
	out, err := runLoop(&l, combinedFamily, func(rec *trace.Recorder, n seriesLens) (Plant, error) {
		var err error
		p, err = newCombinedPlant(l.VehicleStep, rec, n)
		return p, err
	})
	if err != nil {
		return nil, err
	}

	return &CombinedResult{
		Scheme:      l.Scheme,
		Rec:         out.Rec,
		SpeedErrRMS: out.Rec.Series("speed_err").RMS(0, l.Duration),
		OffsetRMS:   out.Rec.Series("offset").RMS(0, l.Duration),
		LonCommands: p.lonCmds,
		LatCommands: p.latCmds,
		Miss:        out.Miss,
		EngineStats: out.EngineStats,
	}, nil
}
