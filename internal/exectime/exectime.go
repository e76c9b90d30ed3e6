// Package exectime models task execution times for the HCPerf simulator.
//
// The paper's central workload property is that autonomous-driving task
// execution times depend heavily on the runtime scene: configurable sensor
// fusion runs Hungarian matching over the n detected obstacles (O(n^3)), so
// a complex intersection can double or triple its running time. This package
// provides composable execution-time models — constants, bounded random
// ranges, obstacle-driven fusion costs and time-varying load profiles — all
// sampled from caller-owned seeded RNGs so simulations stay deterministic.
package exectime

import (
	"errors"
	"fmt"
	"math/rand"

	"hcperf/internal/hungarian"
	"hcperf/internal/simtime"
)

// Scene captures the runtime driving context that execution times depend on.
type Scene struct {
	// Obstacles is the number of objects currently detected around the
	// vehicle; it drives the Hungarian-matching cost of sensor fusion.
	Obstacles int
	// LoadFactor is a generic multiplier applied by scene-sensitive
	// models; 1 means nominal load. Scenario code uses it to emulate the
	// paper's 20 ms -> 40 ms fusion-load step.
	LoadFactor float64
}

// NominalScene is the quiet-road scene: a typical light-traffic obstacle
// count at nominal load.
func NominalScene() Scene { return Scene{Obstacles: 10, LoadFactor: 1} }

// Model produces execution times. Implementations must be pure given
// (rng, at, scene): all randomness flows through rng.
type Model interface {
	// Sample returns the execution time for a job released at virtual
	// time at under the given scene.
	Sample(rng *rand.Rand, at simtime.Time, scene Scene) simtime.Duration
	// Nominal returns the representative (design-time) execution time,
	// used for initial schedulability reasoning before any observation
	// exists.
	Nominal() simtime.Duration
}

// Constant is a fixed execution time.
type Constant simtime.Duration

// Sample implements Model.
func (c Constant) Sample(*rand.Rand, simtime.Time, Scene) simtime.Duration {
	return simtime.Duration(c)
}

// Nominal implements Model.
func (c Constant) Nominal() simtime.Duration { return simtime.Duration(c) }

// TruncNormal samples from a normal distribution truncated to [Lo, Hi].
// This matches the unimodal-with-tail execution-time histograms the paper
// measures on the Jetson TX2 (Fig. 12).
type TruncNormal struct {
	Mean, SD simtime.Duration
	Lo, Hi   simtime.Duration
}

// NewTruncNormal validates and builds a TruncNormal model.
func NewTruncNormal(mean, sd, lo, hi simtime.Duration) (TruncNormal, error) {
	if lo < 0 || hi < lo {
		return TruncNormal{}, fmt.Errorf("exectime: invalid truncation range [%v,%v]", lo, hi)
	}
	if sd < 0 {
		return TruncNormal{}, errors.New("exectime: negative standard deviation")
	}
	if mean < lo || mean > hi {
		return TruncNormal{}, fmt.Errorf("exectime: mean %v outside [%v,%v]", mean, lo, hi)
	}
	return TruncNormal{Mean: mean, SD: sd, Lo: lo, Hi: hi}, nil
}

// Sample implements Model.
func (n TruncNormal) Sample(rng *rand.Rand, _ simtime.Time, _ Scene) simtime.Duration {
	if n.SD == 0 {
		return clampDur(n.Mean, n.Lo, n.Hi)
	}
	// Rejection sampling; the truncation windows used by the AD profiles
	// keep the acceptance rate high. Fall back to clamping after a few
	// rejects so adversarial configurations cannot spin.
	for i := 0; i < 16; i++ {
		x := n.Mean + simtime.Duration(rng.NormFloat64())*n.SD
		if x >= n.Lo && x <= n.Hi {
			return x
		}
	}
	return clampDur(n.Mean+simtime.Duration(rng.NormFloat64())*n.SD, n.Lo, n.Hi)
}

// Nominal implements Model.
func (n TruncNormal) Nominal() simtime.Duration { return clampDur(n.Mean, n.Lo, n.Hi) }

// Fusion models configurable sensor fusion: a base cost plus the Hungarian
// matching cost over the obstacles in the scene, scaled by the scene load
// factor. PerOp is the simulated time per elementary matching operation.
type Fusion struct {
	Base  simtime.Duration
	PerOp simtime.Duration
	// RelJitter adds +/- RelJitter fractional uniform noise, modelling
	// cache and memory effects (0 disables).
	RelJitter float64
}

// NewFusion validates and builds a Fusion model.
func NewFusion(base, perOp simtime.Duration, relJitter float64) (Fusion, error) {
	if base < 0 || perOp < 0 {
		return Fusion{}, errors.New("exectime: negative fusion cost")
	}
	if relJitter < 0 || relJitter >= 1 {
		return Fusion{}, fmt.Errorf("exectime: fusion jitter %v outside [0,1)", relJitter)
	}
	return Fusion{Base: base, PerOp: perOp, RelJitter: relJitter}, nil
}

// Sample implements Model.
func (f Fusion) Sample(rng *rand.Rand, _ simtime.Time, scene Scene) simtime.Duration {
	load := scene.LoadFactor
	if load <= 0 {
		load = 1
	}
	d := (f.Base + f.PerOp*simtime.Duration(hungarian.Ops(scene.Obstacles))) * simtime.Duration(load)
	if f.RelJitter > 0 {
		d *= simtime.Duration(1 + f.RelJitter*(2*rng.Float64()-1))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Nominal implements Model.
func (f Fusion) Nominal() simtime.Duration {
	scene := NominalScene()
	return f.Base + f.PerOp*simtime.Duration(hungarian.Ops(scene.Obstacles))
}

// Step is one segment of a load profile: between From (inclusive) and To
// (exclusive) the wrapped model's samples are multiplied by Factor.
type Step struct {
	From, To simtime.Time
	Factor   float64
}

// Profile wraps a model with a time-varying multiplicative load profile,
// e.g. the paper's car-following experiment doubles the fusion time during
// t in [10 s, 80 s).
type Profile struct {
	Inner Model
	Steps []Step
}

// NewProfile validates and builds a Profile.
func NewProfile(inner Model, steps []Step) (*Profile, error) {
	if inner == nil {
		return nil, errors.New("exectime: profile with nil inner model")
	}
	for i, s := range steps {
		if s.To <= s.From {
			return nil, fmt.Errorf("exectime: profile step %d has empty interval [%v,%v)", i, s.From, s.To)
		}
		if s.Factor <= 0 {
			return nil, fmt.Errorf("exectime: profile step %d has non-positive factor %v", i, s.Factor)
		}
	}
	out := &Profile{Inner: inner, Steps: make([]Step, len(steps))}
	copy(out.Steps, steps)
	return out, nil
}

// FactorAt returns the combined multiplier active at time at.
func (p *Profile) FactorAt(at simtime.Time) float64 {
	f := 1.0
	for _, s := range p.Steps {
		if at >= s.From && at < s.To {
			f *= s.Factor
		}
	}
	return f
}

// Sample implements Model.
func (p *Profile) Sample(rng *rand.Rand, at simtime.Time, scene Scene) simtime.Duration {
	return p.Inner.Sample(rng, at, scene) * simtime.Duration(p.FactorAt(at))
}

// Nominal implements Model.
func (p *Profile) Nominal() simtime.Duration { return p.Inner.Nominal() }

func clampDur(x, lo, hi simtime.Duration) simtime.Duration {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Linear models a task whose cost grows linearly with the number of
// detected objects (per-proposal work in detection and tracking): Base +
// PerItem·obstacles, scaled by the scene load factor, with optional
// relative jitter.
type Linear struct {
	Base      simtime.Duration
	PerItem   simtime.Duration
	RelJitter float64
	// NominalItems is the obstacle count assumed by Nominal().
	NominalItems int
}

// NewLinear validates and builds a Linear model.
func NewLinear(base, perItem simtime.Duration, nominalItems int, relJitter float64) (Linear, error) {
	if base < 0 || perItem < 0 {
		return Linear{}, errors.New("exectime: negative linear cost")
	}
	if nominalItems < 0 {
		return Linear{}, errors.New("exectime: negative nominal item count")
	}
	if relJitter < 0 || relJitter >= 1 {
		return Linear{}, fmt.Errorf("exectime: linear jitter %v outside [0,1)", relJitter)
	}
	return Linear{Base: base, PerItem: perItem, NominalItems: nominalItems, RelJitter: relJitter}, nil
}

// Sample implements Model.
func (l Linear) Sample(rng *rand.Rand, _ simtime.Time, scene Scene) simtime.Duration {
	load := scene.LoadFactor
	if load <= 0 {
		load = 1
	}
	n := scene.Obstacles
	if n < 0 {
		n = 0
	}
	d := (l.Base + l.PerItem*simtime.Duration(n)) * simtime.Duration(load)
	if l.RelJitter > 0 {
		d *= simtime.Duration(1 + l.RelJitter*(2*rng.Float64()-1))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Nominal implements Model.
func (l Linear) Nominal() simtime.Duration {
	return l.Base + l.PerItem*simtime.Duration(l.NominalItems)
}
