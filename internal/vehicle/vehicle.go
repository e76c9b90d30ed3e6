// Package vehicle implements the Vehicle Control Simulator of the HCPerf
// testbed: longitudinal dynamics for car following, lateral dynamics for
// lane keeping, lead-vehicle speed profiles, the corresponding control
// laws, and track geometry for loop driving.
//
// The models are deliberately simple — first-order actuator lag plus
// kinematic integration — because the paper's phenomenon lives in the
// *timing* of control commands, not in tyre physics: when the scheduler
// delays or drops commands, the vehicle holds its previous actuation and
// tracking error grows.
package vehicle

import (
	"errors"
	"fmt"
	"math"
)

// LongitudinalConfig bounds a longitudinal vehicle.
type LongitudinalConfig struct {
	// MaxAccel is the strongest forward acceleration (m/s^2, > 0).
	MaxAccel float64
	// MaxBrake is the strongest deceleration magnitude (m/s^2, > 0).
	MaxBrake float64
	// ActuatorTau is the first-order throttle/brake lag time constant
	// (s, >= 0; 0 means instantaneous actuation).
	ActuatorTau float64
	// MaxSpeed caps the speed (m/s, > 0).
	MaxSpeed float64
}

// Validate checks the configuration.
func (c LongitudinalConfig) Validate() error {
	switch {
	case c.MaxAccel <= 0:
		return fmt.Errorf("vehicle: MaxAccel %v must be positive", c.MaxAccel)
	case c.MaxBrake <= 0:
		return fmt.Errorf("vehicle: MaxBrake %v must be positive", c.MaxBrake)
	case c.ActuatorTau < 0:
		return fmt.Errorf("vehicle: ActuatorTau %v must be non-negative", c.ActuatorTau)
	case c.MaxSpeed <= 0:
		return fmt.Errorf("vehicle: MaxSpeed %v must be positive", c.MaxSpeed)
	}
	return nil
}

// DefaultLongitudinal returns passenger-car-scale limits.
func DefaultLongitudinal() LongitudinalConfig {
	return LongitudinalConfig{MaxAccel: 3, MaxBrake: 8, ActuatorTau: 0.2, MaxSpeed: 40}
}

// ScaledCarLongitudinal returns limits matching the 1:10 scaled hardware
// testbed: lower speeds, snappier acceleration, more actuation lag
// relative to its dynamics.
func ScaledCarLongitudinal() LongitudinalConfig {
	return LongitudinalConfig{MaxAccel: 1.5, MaxBrake: 2.5, ActuatorTau: 0.15, MaxSpeed: 4}
}

// Longitudinal is a point-mass vehicle with first-order actuator lag.
type Longitudinal struct {
	cfg LongitudinalConfig
	// Position along the road (m) and speed (m/s).
	Position, Speed float64

	cmdAccel float64
	actAccel float64
}

// NewLongitudinal validates cfg and builds a vehicle at rest at position 0.
func NewLongitudinal(cfg LongitudinalConfig) (*Longitudinal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Longitudinal{cfg: cfg}, nil
}

// SetAccelCommand installs the latest acceleration command (m/s^2). The
// command persists until replaced — a stale command is exactly what a
// missed control deadline produces.
func (v *Longitudinal) SetAccelCommand(a float64) {
	v.cmdAccel = clamp(a, -v.cfg.MaxBrake, v.cfg.MaxAccel)
}

// AccelCommand returns the currently installed command.
func (v *Longitudinal) AccelCommand() float64 { return v.cmdAccel }

// Accel returns the achieved acceleration after actuator lag.
func (v *Longitudinal) Accel() float64 { return v.actAccel }

// Step advances the vehicle by dt seconds.
func (v *Longitudinal) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("vehicle: non-positive dt %v", dt)
	}
	if v.cfg.ActuatorTau == 0 {
		v.actAccel = v.cmdAccel
	} else {
		// First-order lag toward the command.
		v.actAccel += dt / v.cfg.ActuatorTau * (v.cmdAccel - v.actAccel)
	}
	a := clamp(v.actAccel, -v.cfg.MaxBrake, v.cfg.MaxAccel)
	v.Position += v.Speed*dt + 0.5*a*dt*dt
	v.Speed += a * dt
	if v.Speed < 0 {
		v.Speed = 0
		if v.actAccel < 0 {
			v.actAccel = 0
		}
	}
	if v.Speed > v.cfg.MaxSpeed {
		v.Speed = v.cfg.MaxSpeed
	}
	return nil
}

// SpeedProfile yields a reference speed over time (the lead vehicle's
// behaviour in the evaluation scenarios).
type SpeedProfile interface {
	// Speed returns the profile speed (m/s) at time t (s).
	Speed(t float64) float64
}

// ConstantProfile is a fixed speed.
type ConstantProfile float64

// Speed implements SpeedProfile.
func (c ConstantProfile) Speed(float64) float64 { return float64(c) }

// SineProfile oscillates around Mean with amplitude Amp and the given
// Period — the car-following evaluation's lead speed (10-20 m/s, 7 s).
type SineProfile struct {
	Mean, Amp, Period float64
}

// Speed implements SpeedProfile.
func (s SineProfile) Speed(t float64) float64 {
	if s.Period <= 0 {
		return s.Mean
	}
	return s.Mean + s.Amp*math.Sin(2*math.Pi*t/s.Period)
}

// PhasePoint anchors a piecewise-linear speed profile.
type PhasePoint struct {
	T, Speed float64
}

// PiecewiseProfile interpolates linearly between anchor points; before the
// first anchor it holds the first speed, after the last it holds the last.
type PiecewiseProfile struct {
	points []PhasePoint
}

// NewPiecewiseProfile validates that anchors are time-ordered.
func NewPiecewiseProfile(points []PhasePoint) (*PiecewiseProfile, error) {
	if len(points) == 0 {
		return nil, errors.New("vehicle: empty profile")
	}
	for i := 1; i < len(points); i++ {
		if points[i].T <= points[i-1].T {
			return nil, fmt.Errorf("vehicle: profile anchors not time-ordered at %d", i)
		}
	}
	for i, p := range points {
		if p.Speed < 0 {
			return nil, fmt.Errorf("vehicle: negative profile speed at %d", i)
		}
	}
	out := &PiecewiseProfile{points: make([]PhasePoint, len(points))}
	copy(out.points, points)
	return out, nil
}

// Speed implements SpeedProfile.
func (p *PiecewiseProfile) Speed(t float64) float64 {
	pts := p.points
	if t <= pts[0].T {
		return pts[0].Speed
	}
	for i := 1; i < len(pts); i++ {
		if t <= pts[i].T {
			frac := (t - pts[i-1].T) / (pts[i].T - pts[i-1].T)
			return pts[i-1].Speed + frac*(pts[i].Speed-pts[i-1].Speed)
		}
	}
	return pts[len(pts)-1].Speed
}

// Lead integrates a speed profile into a moving lead vehicle.
type Lead struct {
	Profile SpeedProfile
	// Position (m) and the profile clock (s).
	Position, Clock float64
}

// NewLead builds a lead vehicle at the given starting position.
func NewLead(profile SpeedProfile, startPos float64) (*Lead, error) {
	if profile == nil {
		return nil, errors.New("vehicle: nil speed profile")
	}
	return &Lead{Profile: profile, Position: startPos}, nil
}

// Speed returns the lead's current speed.
func (l *Lead) Speed() float64 { return l.Profile.Speed(l.Clock) }

// Step advances the lead by dt seconds (trapezoidal position update).
func (l *Lead) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("vehicle: non-positive dt %v", dt)
	}
	v0 := l.Profile.Speed(l.Clock)
	v1 := l.Profile.Speed(l.Clock + dt)
	l.Position += (v0 + v1) / 2 * dt
	l.Clock += dt
	return nil
}

// CarFollower computes acceleration commands for car following: a blend of
// speed matching and gap regulation with a constant-headway policy.
type CarFollower struct {
	// Kv is the speed-error gain (1/s).
	Kv float64
	// Kg is the gap-error gain (1/s^2).
	Kg float64
	// StandstillGap is the desired gap at zero speed (m).
	StandstillGap float64
	// Headway is the desired time headway (s); desired gap =
	// StandstillGap + Headway·v.
	Headway float64
}

// DefaultCarFollower returns gains tuned for the simulation scenarios.
func DefaultCarFollower() CarFollower {
	return CarFollower{Kv: 1.2, Kg: 0.25, StandstillGap: 5, Headway: 1.2}
}

// Accel returns the commanded acceleration for the follower given its own
// speed, the perceived lead speed and the perceived gap (lead position −
// own position).
func (c CarFollower) Accel(selfSpeed, leadSpeed, gap float64) float64 {
	desiredGap := c.StandstillGap + c.Headway*selfSpeed
	return c.Kv*(leadSpeed-selfSpeed) + c.Kg*(gap-desiredGap)
}

// LateralConfig bounds the lateral (lane keeping) model.
type LateralConfig struct {
	// WheelBase is the vehicle wheel base (m, > 0).
	WheelBase float64
	// MaxSteer is the steering-angle limit (rad, > 0).
	MaxSteer float64
	// ActuatorTau is the steering first-order lag (s, >= 0).
	ActuatorTau float64
}

// Validate checks the configuration.
func (c LateralConfig) Validate() error {
	switch {
	case c.WheelBase <= 0:
		return fmt.Errorf("vehicle: WheelBase %v must be positive", c.WheelBase)
	case c.MaxSteer <= 0:
		return fmt.Errorf("vehicle: MaxSteer %v must be positive", c.MaxSteer)
	case c.ActuatorTau < 0:
		return fmt.Errorf("vehicle: ActuatorTau %v must be non-negative", c.ActuatorTau)
	}
	return nil
}

// DefaultLateral returns passenger-car-scale lateral limits.
func DefaultLateral() LateralConfig {
	return LateralConfig{WheelBase: 2.7, MaxSteer: 0.5, ActuatorTau: 0.15}
}

// Lateral is a kinematic-bicycle lane-keeping model in path coordinates:
// Y is the lateral offset from the lane centre (m), Psi the heading error
// (rad). Road curvature enters as a disturbance.
type Lateral struct {
	cfg LateralConfig
	// Y is the lateral offset from the lane centreline (m); Psi the
	// heading error (rad).
	Y, Psi float64

	cmdSteer float64
	actSteer float64
}

// NewLateral validates cfg and builds a centred vehicle.
func NewLateral(cfg LateralConfig) (*Lateral, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Lateral{cfg: cfg}, nil
}

// SetSteerCommand installs the latest steering command (rad). It persists
// until replaced.
func (l *Lateral) SetSteerCommand(delta float64) {
	l.cmdSteer = clamp(delta, -l.cfg.MaxSteer, l.cfg.MaxSteer)
}

// Step advances the lateral state by dt seconds at the given speed over
// road of the given curvature (1/m, positive = curving away from +Y).
func (l *Lateral) Step(dt, speed, curvature float64) error {
	if dt <= 0 {
		return fmt.Errorf("vehicle: non-positive dt %v", dt)
	}
	if l.cfg.ActuatorTau == 0 {
		l.actSteer = l.cmdSteer
	} else {
		l.actSteer += dt / l.cfg.ActuatorTau * (l.cmdSteer - l.actSteer)
	}
	steer := clamp(l.actSteer, -l.cfg.MaxSteer, l.cfg.MaxSteer)
	// Kinematic bicycle in path coordinates.
	l.Psi += dt * (speed/l.cfg.WheelBase*math.Tan(steer) - speed*curvature)
	l.Y += dt * speed * math.Sin(l.Psi)
	return nil
}

// LaneKeeper computes steering commands from lateral offset and heading
// error with curvature feed-forward.
type LaneKeeper struct {
	// Ky is the offset gain (rad/m), Kpsi the heading gain (rad/rad).
	Ky, Kpsi float64
	// WheelBase feeds forward the road curvature.
	WheelBase float64
}

// DefaultLaneKeeper returns gains tuned for the loop scenario.
func DefaultLaneKeeper() LaneKeeper {
	return LaneKeeper{Ky: 0.35, Kpsi: 1.1, WheelBase: 2.7}
}

// Steer returns the steering command for the given perceived offset,
// heading error and upcoming road curvature.
func (k LaneKeeper) Steer(offset, heading, curvature float64) float64 {
	feedForward := math.Atan(k.WheelBase * curvature)
	return -k.Ky*offset - k.Kpsi*heading + feedForward
}

// Segment is one piece of a closed track.
type Segment struct {
	// Length along the centreline (m, > 0).
	Length float64
	// Curvature of the segment (1/m; 0 = straight).
	Curvature float64
}

// Track is a closed loop of segments; distances wrap around.
type Track struct {
	segments []Segment
	total    float64
}

// NewTrack validates and builds a closed track.
func NewTrack(segments []Segment) (*Track, error) {
	if len(segments) == 0 {
		return nil, errors.New("vehicle: empty track")
	}
	t := &Track{segments: make([]Segment, len(segments))}
	copy(t.segments, segments)
	for i, s := range segments {
		if s.Length <= 0 {
			return nil, fmt.Errorf("vehicle: segment %d length %v must be positive", i, s.Length)
		}
		t.total += s.Length
	}
	return t, nil
}

// OvalTrack builds the paper's loop-driving circuit: two straights joined
// by four quarter-circle corners (driven clockwise it has four distinct
// turns, matching Fig. 14's four error bursts).
func OvalTrack(straight, cornerRadius float64) (*Track, error) {
	if straight <= 0 || cornerRadius <= 0 {
		return nil, fmt.Errorf("vehicle: invalid oval dimensions straight=%v radius=%v", straight, cornerRadius)
	}
	quarter := math.Pi * cornerRadius / 2
	k := 1 / cornerRadius
	return NewTrack([]Segment{
		{Length: straight, Curvature: 0},
		{Length: quarter, Curvature: k},
		{Length: straight / 4, Curvature: 0},
		{Length: quarter, Curvature: k},
		{Length: straight, Curvature: 0},
		{Length: quarter, Curvature: k},
		{Length: straight / 4, Curvature: 0},
		{Length: quarter, Curvature: k},
	})
}

// Length returns the total loop length.
func (t *Track) Length() float64 { return t.total }

// Curvature returns the centreline curvature at distance s from the start,
// wrapping around the loop.
func (t *Track) Curvature(s float64) float64 {
	s = math.Mod(s, t.total)
	if s < 0 {
		s += t.total
	}
	for _, seg := range t.segments {
		if s < seg.Length {
			return seg.Curvature
		}
		s -= seg.Length
	}
	return t.segments[len(t.segments)-1].Curvature
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
