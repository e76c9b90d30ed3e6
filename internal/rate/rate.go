// Package rate implements HCPerf's Task Rate Adapter (paper §VI): the
// external coordinator's proportional feedback controller that retunes the
// release rates of all source (sensing) tasks jointly, driven by the
// system's end-to-end deadline-miss ratio.
//
// Each adaptation period k the adapter computes the miss-ratio error
//
//	e(k) = m_t − m(k)            (with e(k) = ε when m(k) = 0)
//
// and proposes new rates
//
//	r_out = Kp·e(k) + r(k)       (Eq. 13)
//
// per source task, where the per-task gain is Kp scaled by that task's
// allowable rate span so one dimensionless gain serves heterogeneous
// sensors. e(k) < 0 (too many misses) sheds load; e(k) > 0 raises rates to
// exploit head-room and improve control-command throughput.
//
// Kp decays toward zero while the loop is stable, freezing the rates; an
// unusual change in observed task execution times resets Kp to its profiled
// initial value so the loop re-engages (paper §VI step 2).
package rate

import (
	"errors"
	"fmt"
	"math"

	"hcperf/internal/dag"
	"hcperf/internal/simtime"
)

// Config parameterises an Adapter.
type Config struct {
	// TargetMissRatio is m_t, the deadline-miss ratio the loop steers to.
	TargetMissRatio float64
	// Epsilon is the small positive error substituted when m(k) = 0 so
	// the loop keeps probing for head-room.
	Epsilon float64
	// Kp0 is the initial (offline-profiled) dimensionless gain.
	Kp0 float64
	// Decay is the multiplicative Kp decay applied per stable period,
	// in (0,1).
	Decay float64
	// StableBand is the |e(k)| band within which the loop is considered
	// stable and Kp decays.
	StableBand float64
	// FreezeBelow zeroes Kp once it decays under this fraction of Kp0.
	FreezeBelow float64
	// ResetThreshold is the relative change in the observed execution-
	// time signal that constitutes an "unusual change" and resets Kp.
	ResetThreshold float64
	// ExecEWMA is the smoothing factor (0,1] for the execution-time
	// regime tracker; higher reacts faster.
	ExecEWMA float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.TargetMissRatio < 0 || c.TargetMissRatio >= 1:
		return fmt.Errorf("rate: target miss ratio %v outside [0,1)", c.TargetMissRatio)
	case c.Epsilon <= 0:
		return fmt.Errorf("rate: epsilon %v must be positive", c.Epsilon)
	case c.Kp0 <= 0:
		return fmt.Errorf("rate: Kp0 %v must be positive", c.Kp0)
	case c.Decay <= 0 || c.Decay >= 1:
		return fmt.Errorf("rate: decay %v outside (0,1)", c.Decay)
	case c.StableBand <= 0:
		return fmt.Errorf("rate: stable band %v must be positive", c.StableBand)
	case c.FreezeBelow < 0 || c.FreezeBelow >= 1:
		return fmt.Errorf("rate: freeze threshold %v outside [0,1)", c.FreezeBelow)
	case c.ResetThreshold <= 0:
		return fmt.Errorf("rate: reset threshold %v must be positive", c.ResetThreshold)
	case c.ExecEWMA <= 0 || c.ExecEWMA > 1:
		return fmt.Errorf("rate: exec EWMA factor %v outside (0,1]", c.ExecEWMA)
	}
	return nil
}

// DefaultConfig returns the gains used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		TargetMissRatio: 0.005,
		Epsilon:         0.012,
		Kp0:             0.8,
		Decay:           0.9,
		StableBand:      0.008,
		FreezeBelow:     0.05,
		ResetThreshold:  0.25,
		ExecEWMA:        0.3,
	}
}

// Proposal is the adapter's output for one source task.
type Proposal struct {
	Task    *dag.Task
	OldRate float64
	NewRate float64 // already clamped to the task's [MinRate, MaxRate]
}

// Adapter is the Task Rate Adapter. Not safe for concurrent use.
type Adapter struct {
	cfg      Config
	kp       float64
	execEWMA float64
	hasEWMA  bool
	resets   uint64
}

// New validates cfg and builds an adapter with Kp = Kp0.
func New(cfg Config) (*Adapter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Adapter{cfg: cfg, kp: cfg.Kp0}, nil
}

// Kp returns the current proportional gain.
func (a *Adapter) Kp() float64 { return a.kp }

// Resets returns how many times the gain was reset by regime changes.
func (a *Adapter) Resets() uint64 { return a.resets }

// NoteExecTime feeds the regime tracker with an observed execution-time
// signal (e.g. the fusion task's latest run time). A relative jump beyond
// ResetThreshold against the EWMA resets Kp to Kp0 so the loop re-engages.
func (a *Adapter) NoteExecTime(d simtime.Duration) {
	x := float64(d)
	if x <= 0 {
		return
	}
	if !a.hasEWMA {
		a.execEWMA = x
		a.hasEWMA = true
		return
	}
	if rel := math.Abs(x-a.execEWMA) / a.execEWMA; rel > a.cfg.ResetThreshold {
		a.kp = a.cfg.Kp0
		a.resets++
		a.execEWMA = x
		return
	}
	a.execEWMA += a.cfg.ExecEWMA * (x - a.execEWMA)
}

// Step runs one adaptation period: given the measured miss ratio m(k) and
// the current source rates, it returns the clamped rate proposals and
// updates the internal gain schedule. sources maps each source task to its
// current rate.
func (a *Adapter) Step(missRatio float64, sources map[*dag.Task]float64) ([]Proposal, error) {
	if missRatio < 0 || missRatio > 1 {
		return nil, fmt.Errorf("rate: miss ratio %v outside [0,1]", missRatio)
	}
	if len(sources) == 0 {
		return nil, errors.New("rate: no source tasks")
	}
	e := a.cfg.TargetMissRatio - missRatio
	if missRatio == 0 {
		e = a.cfg.Epsilon
	}

	out := make([]Proposal, 0, len(sources))
	saturated := true
	for t, r := range sources {
		if t == nil {
			return nil, errors.New("rate: nil source task")
		}
		span := t.MaxRate - t.MinRate
		if span <= 0 {
			// Fixed-rate source: never adjusted.
			out = append(out, Proposal{Task: t, OldRate: r, NewRate: r})
			continue
		}
		// Eq. 13 with a state-scaled per-task gain: shedding acts on
		// the full allowable span (fast overload relief); probing acts
		// on the remaining head-room, approaching the ceiling
		// asymptotically instead of slamming into overload.
		gain := span
		if e > 0 {
			gain = t.MaxRate - r
		}
		nr := r + a.kp*e*gain
		if nr < t.MinRate {
			nr = t.MinRate
		}
		if nr > t.MaxRate {
			nr = t.MaxRate
		}
		if nr < t.MaxRate {
			saturated = false
		}
		out = append(out, Proposal{Task: t, OldRate: r, NewRate: nr})
	}

	// Gain schedule (paper §VI step 2): decay toward zero — freezing the
	// rates — while the loop is stable: either the miss-ratio error sits
	// inside the stable band, or the loop is probing upward with every
	// adjustable rate already at its ceiling (nothing left to exploit).
	if math.Abs(e) <= a.cfg.StableBand || (e > 0 && saturated) {
		a.kp *= a.cfg.Decay
		if a.kp < a.cfg.FreezeBelow*a.cfg.Kp0 {
			a.kp = 0
		}
	}
	return out, nil
}
