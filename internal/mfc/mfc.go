// Package mfc implements the Performance Directed Controller of HCPerf
// (paper §IV): a Model-Free Control (MFC) loop that converts the vehicle's
// driving-performance tracking error E(t) into the nominal priority
// adjustment signal u(t), using Algebraic Differentiation Estimation (ADE)
// to obtain a noise-robust derivative of E.
//
// The plant relationship between E and u is unknown and time varying, so
// MFC approximates it by the ultra-local model
//
//	Ė(t) = F(t) + α·u(t)                     (Eq. 2)
//
// with F continuously re-estimated from measurements:
//
//	F̂(t) = Ê̇(t) − α·u(t−Ts)                 (Eq. 5)
//	u(t) = (−F̂(t) + K·E(t)) / α              (Eq. 3)
//
// with constant gains α < 0 and K < 0. Ê̇ comes from the ADE sliding-window
// integral
//
//	Ê̇(t) = 6/T³ ∫₀ᵀ (T − 2τ)·E(t−τ) dτ      (Eq. 6)
//
// which acts as a low-pass filter on the measurement noise.
package mfc

import (
	"errors"
	"fmt"

	"hcperf/internal/simtime"
)

// Config parameterises a Controller.
type Config struct {
	// Alpha is the constant control gain α; must be negative.
	Alpha float64
	// K is the feedback gain; must be negative (the paper uses K = -1).
	K float64
	// Ts is the control sampling period of the MFC loop.
	Ts simtime.Duration
	// ADEWindow is T_ADE, the width of the derivative-estimation window.
	ADEWindow simtime.Duration
	// UClamp, when positive, bounds the accumulated output to
	// [-UClamp, +UClamp] (anti-windup): when the tracking error has an
	// unreachable floor — the vehicle cannot track perfectly no matter
	// how tasks are scheduled — the integral action would otherwise
	// wind u far beyond the scheduler's useful γ range and the loop
	// would stop responding to error changes. Zero disables clamping.
	UClamp float64
}

// Validate checks gain signs and window sizes.
func (c Config) Validate() error {
	switch {
	case c.Alpha >= 0:
		return fmt.Errorf("mfc: alpha %v must be negative", c.Alpha)
	case c.K >= 0:
		return fmt.Errorf("mfc: K %v must be negative", c.K)
	case c.Ts <= 0:
		return fmt.Errorf("mfc: Ts %v must be positive", c.Ts)
	case c.ADEWindow < c.Ts:
		return fmt.Errorf("mfc: ADE window %v must cover at least one sample period %v", c.ADEWindow, c.Ts)
	case c.UClamp < 0:
		return fmt.Errorf("mfc: UClamp %v must be non-negative", c.UClamp)
	}
	return nil
}

// DefaultConfig returns the gains used throughout the evaluation: K = -1
// per the paper's remark, α sized so that u lands in the scheduler's γ
// range, a 100 ms sampling period and a 500 ms ADE window.
func DefaultConfig() Config {
	return Config{
		Alpha:     -50,
		K:         -1,
		Ts:        100 * simtime.Millisecond,
		ADEWindow: 500 * simtime.Millisecond,
	}
}

type sample struct {
	at simtime.Time
	e  float64
}

// Controller is the Performance Directed Controller. Not safe for
// concurrent use; drive it from the simulation loop.
type Controller struct {
	cfg     Config
	window  []sample
	lastU   float64
	lastDot float64
}

// New validates cfg and builds a controller with u(0) = 0.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// Step ingests the tracking error measured at virtual time now and returns
// the nominal priority adjustment signal u(now). Calls must have
// non-decreasing now.
func (c *Controller) Step(now simtime.Time, trackingErr float64) (float64, error) {
	if n := len(c.window); n > 0 && now < c.window[n-1].at {
		return 0, errors.New("mfc: time moved backwards")
	}
	c.window = append(c.window, sample{at: now, e: trackingErr})
	c.trim(now)
	eDot := c.estimateDerivative(now)
	c.lastDot = eDot
	fHat := eDot - c.cfg.Alpha*c.lastU               // Eq. 5
	u := (-fHat + c.cfg.K*trackingErr) / c.cfg.Alpha // Eq. 3
	if cl := c.cfg.UClamp; cl > 0 {
		if u > cl {
			u = cl
		} else if u < -cl {
			u = -cl
		}
	}
	c.lastU = u
	return u, nil
}

// LastU returns the most recent controller output.
func (c *Controller) LastU() float64 { return c.lastU }

// LastDerivative returns the most recent ADE derivative estimate Ê̇.
func (c *Controller) LastDerivative() float64 { return c.lastDot }

// trim evicts samples older than now − ADEWindow, always keeping at least
// one sample at or before the window edge so the integral spans the full
// window.
func (c *Controller) trim(now simtime.Time) {
	edge := now - c.cfg.ADEWindow
	cut := 0
	for i := 0; i+1 < len(c.window); i++ {
		if c.window[i+1].at <= edge {
			cut = i + 1
		} else {
			break
		}
	}
	if cut > 0 {
		c.window = append(c.window[:0], c.window[cut:]...)
	}
}

// estimateDerivative evaluates the Eq. 6 ADE integral by trapezoidal
// quadrature over the recorded samples. With fewer than two samples (or a
// degenerate span) it returns 0.
func (c *Controller) estimateDerivative(now simtime.Time) float64 {
	n := len(c.window)
	if n < 2 {
		return 0
	}
	t := float64(c.cfg.ADEWindow)
	span := float64(now - c.window[0].at)
	if span <= 0 {
		return 0
	}
	if span < t {
		// Early start-up: integrate over the span actually covered so
		// the estimator warms up smoothly instead of biasing toward 0.
		t = span
	}
	weighted := func(tau, e float64) float64 { return (t - 2*tau) * e }
	sum := 0.0
	for i := n - 1; i > 0; i-- {
		newer, older := c.window[i], c.window[i-1]
		tauNewer := float64(now - newer.at)
		tauOlder := float64(now - older.at)
		if tauNewer >= t {
			break
		}
		if tauOlder > t {
			// Clip the oldest segment at the window edge by linear
			// interpolation of E.
			frac := (t - tauNewer) / (tauOlder - tauNewer)
			eEdge := newer.e + frac*(older.e-newer.e)
			older = sample{at: now - simtime.Duration(t), e: eEdge}
			tauOlder = t
		}
		dt := tauOlder - tauNewer
		// Simpson's rule per segment: exact for the quadratic
		// integrand produced by a linear weight times linear E.
		tauMid := (tauNewer + tauOlder) / 2
		eMid := (newer.e + older.e) / 2
		sum += dt / 6 * (weighted(tauNewer, newer.e) + 4*weighted(tauMid, eMid) + weighted(tauOlder, older.e))
	}
	return 6 / (t * t * t) * sum
}
